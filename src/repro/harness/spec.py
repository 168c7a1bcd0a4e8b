"""Declarative sweep specs: TOML / CSV files that name an experiment.

A spec decouples *what to sweep* from *how it executes*.  Each spec names
one EXP-1..EXP-9 family and overrides its parameters; expansion into
:class:`~repro.harness.parallel.SweepTask` lists is the experiment
function's own deterministic loop, so a spec-driven sweep is byte-identical
to calling the function directly — and flows through the same
``run_sweep(jobs=N, store=...)`` machinery, including the
content-addressed result store.

TOML (one spec per file)::

    [sweep]
    name = "exp3-quick"            # optional; defaults to the experiment
    experiment = "exp3"

    [params]
    ns = [3]
    seeds = [0, 1, 2]

CSV (one spec per row; columns map to parameter overrides)::

    experiment,ns,seeds
    exp1,"(2, 3)","range(4)"
    exp6,,range(10)

Cell values are Python literals (``ast.literal_eval``), with two
conveniences: ``range(N)`` / ``range(A, B)`` expand to explicit integer
lists, and a bare word stays a string.  Empty cells keep the experiment's
default.  In TOML, a table value ``{ range = N }`` (or ``{ start = A,
stop = B }``) likewise expands to ``[0, .., N-1]`` — TOML has no compact
range syntax and thousand-element seed lists are unreadable.

Execution parameters (``jobs``, ``store``) are *not* spec
parameters: the spec describes the workload, the caller describes the
machine.  ``validate`` rejects unknown parameter names against the
experiment function's signature, so a typo fails before any run starts.
"""

from __future__ import annotations

import ast
import csv
import os
import re
import tomllib
from dataclasses import dataclass, field
from inspect import signature
from typing import Any, Callable, Dict, List, Optional

from repro import obs as _obs
from repro.analysis.tables import Table

#: Experiment name -> runner-function suffix in repro.harness.experiments.
EXPERIMENT_SUFFIXES = {
    "exp1": "nuc_sufficiency",
    "exp2": "boosting",
    "exp3": "extraction",
    "exp4": "separation",
    "exp5": "contamination",
    "exp6": "merging",
    "exp7": "scaling",
    "exp8": "exhaustive",
    "exp9": "registers",
}


class SpecError(ValueError):
    """A malformed or invalid sweep spec."""


@dataclass
class SweepSpec:
    """One declarative sweep: an experiment family plus overrides."""

    experiment: str
    params: Dict[str, Any] = field(default_factory=dict)
    name: Optional[str] = None
    source: Optional[str] = None

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENT_SUFFIXES:
            raise SpecError(
                f"unknown experiment {self.experiment!r} "
                f"(expected one of {', '.join(sorted(EXPERIMENT_SUFFIXES))})"
            )
        if self.name is None:
            self.name = self.experiment

    def runner(self) -> Callable[..., Table]:
        from repro.harness import experiments

        return getattr(
            experiments, f"{self.experiment}_{EXPERIMENT_SUFFIXES[self.experiment]}"
        )

    def validate(self) -> None:
        """Reject parameter names the experiment function does not accept."""
        accepted = set(signature(self.runner()).parameters)
        reserved = {"jobs", "store"}
        bad = sorted(set(self.params) - (accepted - reserved))
        if bad:
            raise SpecError(
                f"spec {self.name!r}: {self.experiment} does not accept "
                f"parameter(s) {', '.join(bad)} "
                f"(accepted: {', '.join(sorted(accepted - reserved))})"
            )

    def run(
        self,
        jobs: int = 1,
        store: Any = None,
    ) -> Table:
        """Execute the sweep; returns its rendered-ready table."""
        self.validate()
        runner = self.runner()
        kwargs: Dict[str, Any] = dict(self.params)
        kwargs["jobs"] = jobs
        if store is not None:
            kwargs["store"] = store
        if _obs._ENABLED:
            # The spec span roots the sweep's path tree: everything below
            # (exp.<name> -> store.lookup/store.execute -> runner.* ->
            # kernel.run) canonicalizes under sweep.spec/<...>, so two
            # sweeps of the same spec diff path-for-path.
            with _obs.tracer().span(
                "sweep.spec", spec=self.name, experiment=self.experiment
            ):
                return runner(**kwargs)
        return runner(**kwargs)


# ----------------------------------------------------------------------
# Value parsing
# ----------------------------------------------------------------------

_RANGE_RE = re.compile(r"^range\(\s*(-?\d+)\s*(?:,\s*(-?\d+)\s*)?\)$")


def _parse_cell(text: str) -> Any:
    """A CSV cell: python literal, range(...) shorthand, else a string."""
    text = text.strip()
    match = _RANGE_RE.match(text)
    if match:
        start, stop = match.group(1), match.group(2)
        if stop is None:
            return list(range(int(start)))
        return list(range(int(start), int(stop)))
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _expand_toml_value(key: str, value: Any) -> Any:
    """Expand the ``{ range = N }`` / ``{ start, stop }`` TOML shorthand."""
    if isinstance(value, dict):
        if set(value) == {"range"}:
            return list(range(int(value["range"])))
        if set(value) <= {"start", "stop"} and "stop" in value:
            return list(range(int(value.get("start", 0)), int(value["stop"])))
        raise SpecError(
            f"parameter {key!r}: unknown table value {value!r} "
            f"(use an array, {{ range = N }}, or {{ start = A, stop = B }})"
        )
    if isinstance(value, list):
        return [_expand_toml_value(key, item) for item in value]
    return value


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------


def load_specs(path: str) -> List[SweepSpec]:
    """Parse a ``.toml`` (one spec) or ``.csv`` (one per row) spec file."""
    ext = os.path.splitext(path)[1].lower()
    if ext == ".toml":
        return [_load_toml(path)]
    if ext == ".csv":
        return _load_csv(path)
    raise SpecError(f"unknown spec format {ext!r} for {path} (use .toml or .csv)")


def _load_toml(path: str) -> SweepSpec:
    with open(path, "rb") as fh:
        try:
            document = tomllib.load(fh)
        except tomllib.TOMLDecodeError as exc:
            raise SpecError(f"{path}: {exc}") from exc
    sweep = document.get("sweep")
    if not isinstance(sweep, dict) or "experiment" not in sweep:
        raise SpecError(f"{path}: missing [sweep] table with an 'experiment' key")
    params = document.get("params", {})
    if not isinstance(params, dict):
        raise SpecError(f"{path}: [params] must be a table")
    spec = SweepSpec(
        experiment=str(sweep["experiment"]),
        params={k: _expand_toml_value(k, v) for k, v in params.items()},
        name=sweep.get("name"),
        source=path,
    )
    spec.validate()
    return spec


def _load_csv(path: str) -> List[SweepSpec]:
    specs: List[SweepSpec] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "experiment" not in reader.fieldnames:
            raise SpecError(f"{path}: CSV specs need an 'experiment' column")
        for lineno, row in enumerate(reader, start=2):
            experiment = (row.get("experiment") or "").strip()
            if not experiment:
                continue  # blank separator row
            extras = row.get(None)
            if extras:
                raise SpecError(
                    f"{path}:{lineno}: {len(extras)} more cell(s) than "
                    f"header columns (quote values containing commas)"
                )
            params = {
                key: _parse_cell(value)
                for key, value in row.items()
                if key not in (None, "experiment", "name")
                and value is not None
                and value.strip() != ""
            }
            spec = SweepSpec(
                experiment=experiment,
                params=params,
                name=(row.get("name") or "").strip() or f"{experiment}@{lineno}",
                source=f"{path}:{lineno}",
            )
            spec.validate()
            specs.append(spec)
    if not specs:
        raise SpecError(f"{path}: no sweep rows")
    return specs
