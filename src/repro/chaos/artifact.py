"""Replayable counterexample artifacts (``repro-counterexample/1``).

A shrunk violation is saved as a small JSON document carrying the scripted
:class:`~repro.chaos.space.FuzzCase`, the violated property, and the shrink
provenance.  The format is versioned so committed fixtures stay loadable;
:func:`replay_counterexample` rebuilds the exact kernel run (scripted
scheduler + recorded seed) and re-judges it with the live property checkers
— a loaded artifact is *evidence*, not testimony.

Each artifact embeds its own one-line repro command.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.chaos.fuzzer import CaseOutcome, execute_case
from repro.chaos.shrinker import ShrinkResult
from repro.chaos.space import FuzzCase
from repro.kernel.messages import build_delivery
from repro.kernel.scheduler import build_scheduler

FORMAT = "repro-counterexample/1"

#: The document shape, enforced by :func:`load_counterexample`.  Kept as a
#: plain structural description (no external schema library).
COUNTEREXAMPLE_SCHEMA: Dict[str, type] = {
    "format": str,
    "config": str,
    "property": str,
    "message": str,
    "case": dict,
    "shrink": dict,
    "repro": str,
}


def counterexample_document(result: ShrinkResult, path_hint: str = "<artifact>") -> Dict[str, Any]:
    """The JSON document for one shrink result."""
    return {
        "format": FORMAT,
        "config": result.config,
        "property": result.property,
        "message": result.message,
        "case": result.case.to_json(),
        "shrink": {
            "original_schedule_len": result.original_schedule_len,
            "script_len": len(result.script),
            "evaluations": result.evaluations,
            "one_minimal": result.one_minimal,
        },
        "repro": f"python -m repro chaos --replay {path_hint}",
    }


def save_counterexample(
    result: ShrinkResult, path: Union[str, Path]
) -> Dict[str, Any]:
    """Write the artifact to ``path`` and return the document."""
    path = Path(path)
    document = counterexample_document(result, path_hint=str(path))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document


def load_counterexample(source: Union[str, Path, Dict[str, Any]]) -> Dict[str, Any]:
    """Load and validate an artifact document.

    Raises ``OSError`` if the file cannot be read and ``ValueError`` for
    any document that is not a replayable case: bad JSON, a wrong shape,
    or a case whose failure pattern, scheduler or delivery cannot be built.
    """
    if isinstance(source, (str, Path)):
        data = json.loads(Path(source).read_text())
    else:
        data = source
    if not isinstance(data, dict):
        raise ValueError("counterexample artifact must be a JSON object")
    if data.get("format") != FORMAT:
        raise ValueError(
            f"unsupported counterexample format {data.get('format')!r} "
            f"(expected {FORMAT!r})"
        )
    for key, kind in COUNTEREXAMPLE_SCHEMA.items():
        if key not in data:
            raise ValueError(f"counterexample artifact missing key {key!r}")
        if not isinstance(data[key], kind):
            raise ValueError(
                f"counterexample key {key!r} must be {kind.__name__}, "
                f"got {type(data[key]).__name__}"
            )
    # The embedded case must round-trip and build, so a bad case is refused
    # here and not halfway through a replay.
    try:
        case = FuzzCase.from_json(data["case"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"counterexample case is malformed: {exc!r}") from exc
    case.pattern()
    build_scheduler(case.scheduler)
    build_delivery(case.delivery)
    return data


def replay_counterexample(
    source: Union[str, Path, Dict[str, Any]],
    config: Optional[Any] = None,
) -> Tuple[bool, CaseOutcome, Dict[str, Any]]:
    """Re-execute an artifact and re-judge it with the live checkers.

    Returns ``(reproduced, outcome, document)`` where ``reproduced`` is
    whether the recorded property is violated again.  ``config`` may be a
    :class:`~repro.chaos.fuzzer.ChaosConfig`; by default it is resolved by
    name from the matrix registry (``ValueError`` for a name it lacks).
    """
    document = load_counterexample(source)
    if config is None:
        from repro.chaos.matrix import CONFIGS

        name = document["config"]
        if name not in CONFIGS:
            raise ValueError(
                f"unknown chaos config {name!r}; known: {', '.join(sorted(CONFIGS))}"
            )
        config = CONFIGS[name]
    case = FuzzCase.from_json(document["case"])
    outcome = execute_case(config, case)
    reproduced = any(
        v.property == document["property"] for v in outcome.violations
    )
    return reproduced, outcome, document
