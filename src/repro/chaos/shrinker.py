"""Delta-debugging shrinker: violating runs → minimal scheduling prefixes.

A violating fuzz case is first re-executed under ``trace="full"`` to extract
the exact pid step schedule.  Replaying that schedule through a
:class:`~repro.kernel.scheduler.ScriptedScheduler` with the same kernel seed
is bit-identical to the original run: delivery randomness lives in
per-destination streams that are consumed in step order, so a run is a pure
function of (seed, pid schedule) — the scheduler's own RNG stream is
irrelevant.  That soundness property is what makes schedule-level shrinking
(and artifact replay) possible at all, and ``tests/chaos`` pins it.

Shrinking then minimizes the *script*:

* **safety targets** (agreement, validity, register/smr safety) — the run is
  capped at the script length, so the question is "what is the shortest
  event prefix that already contains the contradiction?".  A binary search
  finds the minimal violating prefix length, then classic ddmin
  [Zeller/Hildebrandt 2002] deletes interior steps, then a 1-minimality
  pass certifies that removing any single remaining step loses the
  violation.  Safety violations are monotone under run extension (decisions
  and operation records are permanent), so prefix-capping is sound.
* **termination targets** — any truncation trivially "violates termination",
  so instead the scripted prefix is followed by the case's original
  scheduler for the full step budget and the predicate asks whether the
  algorithm *still* fails to terminate.  This legitimately shrinks toward
  the empty script when the detector lie alone (not the schedule) causes
  non-termination — which is itself the interesting diagnosis.

Every candidate evaluation is a fresh deterministic kernel run over the
case's one history: a scripted variant keeps the case's pattern and run
seed, so the shrinker samples that history once and judges every candidate
with it.  The whole shrink is a pure function of the input case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.chaos.fuzzer import ChaosConfig, judge_case
from repro.chaos.space import FuzzCase
from repro.detectors.base import History, sample_run_history
from repro import obs as _obs

#: Properties whose violations persist under run extension.
SAFETY_PROPERTIES = frozenset(
    {
        "nonuniform agreement",
        "uniform agreement",
        "validity",
        "register safety",
        "smr safety",
    }
)


@dataclass(frozen=True)
class ShrinkResult:
    """A locally-minimal scripted reproduction of one violation."""

    config: str
    property: str
    case: FuzzCase  # the shrunk, scripted case (replayable as-is)
    original_case: FuzzCase
    original_schedule_len: int
    script: Tuple[int, ...]
    evaluations: int
    message: str
    one_minimal: bool

    def __repr__(self) -> str:
        return (
            f"ShrinkResult({self.config}: {self.property}, "
            f"{self.original_schedule_len} -> {len(self.script)} steps, "
            f"{self.evaluations} evals, 1-minimal={self.one_minimal})"
        )


def scripted_case(
    case: FuzzCase, script: Sequence[int], max_steps: Optional[int] = None
) -> FuzzCase:
    """``case`` with its scheduler replaced by a scripted replay.

    The original scheduler spec becomes the fallback so termination-style
    replays keep the original environment after the script runs out.
    """
    return replace(
        case,
        scheduler=("scripted", tuple(script), case.scheduler),
        max_steps=case.max_steps if max_steps is None else max_steps,
    )


def _violates(
    config: ChaosConfig,
    case: FuzzCase,
    history: History,
    script: Sequence[int],
    prop: str,
    safety: bool,
) -> bool:
    candidate = scripted_case(
        case,
        script,
        max_steps=max(len(script), 1) if safety else case.max_steps,
    )
    outcome = judge_case(config, candidate, history)
    return any(v.property == prop for v in outcome.violations)


def _ddmin(
    test,
    script: List[int],
    max_evaluations: int,
) -> Tuple[List[int], int, bool]:
    """Classic ddmin + a final 1-minimality certification pass.

    Returns ``(minimal script, evaluations used, certified 1-minimal)``.
    ``test`` must already hold on ``script``.
    """
    evals = 0
    granularity = 2
    while len(script) >= 2 and evals < max_evaluations:
        chunk = max(1, len(script) // granularity)
        reduced = False
        start = 0
        while start < len(script) and evals < max_evaluations:
            complement = script[:start] + script[start + chunk :]
            evals += 1
            if complement and test(complement):
                script = complement
                granularity = max(granularity - 1, 2)
                reduced = True
            else:
                start += chunk
        if not reduced:
            if granularity >= len(script):
                break
            granularity = min(granularity * 2, len(script))

    # 1-minimality: no single remaining step is removable.
    certified = True
    i = 0
    while i < len(script):
        if evals >= max_evaluations:
            certified = False
            break
        candidate = script[:i] + script[i + 1 :]
        evals += 1
        if candidate and test(candidate):
            script = candidate
        else:
            i += 1
    return script, evals, certified


def shrink_schedule(
    config: ChaosConfig,
    case: FuzzCase,
    prop: str,
    max_evaluations: int = 400,
) -> Optional[ShrinkResult]:
    """Shrink ``case`` to a minimal scripted reproduction of ``prop``.

    Returns ``None`` if re-executing the case does not reproduce the
    violation (which would indicate a determinism bug — the chaos tests
    assert it never happens).
    """
    history = sample_run_history(
        config.detector(), case.pattern(), case.run_seed()
    )
    full = judge_case(config, case, history, trace="full")
    if not any(v.property == prop for v in full.violations):
        return None
    evals = 1
    schedule = list(full.schedule)
    safety = prop in SAFETY_PROPERTIES

    def test(script: Sequence[int]) -> bool:
        return _violates(config, case, history, script, prop, safety)

    if safety:
        # Binary-search the minimal violating prefix before ddmin: safety
        # violations are monotone in the prefix length, and this collapses
        # a 30k-step schedule to the interesting region in ~15 runs.
        lo, hi = 1, len(schedule)
        while lo < hi and evals < max_evaluations:
            mid = (lo + hi) // 2
            evals += 1
            if test(schedule[:mid]):
                hi = mid
            else:
                lo = mid + 1
        schedule = schedule[:hi]
    else:
        # Termination: try the empty script first — if the lie alone blocks
        # termination under the original environment, that is the answer.
        evals += 1
        if test(()):
            schedule = []

    one_minimal = True
    if schedule:
        schedule, used, one_minimal = _ddmin(
            test, schedule, max_evaluations - evals
        )
        evals += used

    final = scripted_case(
        case,
        schedule,
        max_steps=max(len(schedule), 1) if safety else case.max_steps,
    )
    outcome = judge_case(config, final, history)
    violation = next(v for v in outcome.violations if v.property == prop)
    if _obs._ENABLED:
        _obs.metrics().inc("chaos.shrinks")
        _obs.metrics().inc("chaos.shrink_evals", evals)
    return ShrinkResult(
        config=config.name,
        property=prop,
        case=final,
        original_case=case,
        original_schedule_len=len(full.schedule),
        script=tuple(schedule),
        evaluations=evals,
        message=violation.message,
        one_minimal=one_minimal,
    )
