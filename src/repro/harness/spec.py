"""Ad-hoc sweeps: CSV files whose rows override an experiment's parameters.

A spec decouples *what to sweep* from *how it executes*.  Each row names
one EXP-1..EXP-9 family and overrides some of its ``full`` parameters in
:data:`~repro.harness.experiments.EXPERIMENTS` (the committed table's);
expansion into :class:`~repro.harness.parallel.SweepTask` lists is the
experiment function's own deterministic loop, so a spec-driven sweep is
byte-identical to calling the function directly and flows through the same
``run_sweep(jobs=N)`` machinery.

One spec per row; columns map to parameter overrides::

    experiment,name,ns,seeds
    exp1,exp1-small,"(2, 3)","range(4)"
    exp6,,,range(10)

Cell values are Python literals (``ast.literal_eval``), with two
conveniences: ``range(N)`` / ``range(A, B)`` expand to explicit integer
lists, and a bare word stays a string.  Empty cells keep the experiment's
full parameter.

The execution parameter ``jobs`` is *not* a spec
parameter: the spec describes the workload, the caller describes the
machine.  ``validate`` rejects unknown parameter names against the
experiment function's signature, so a typo fails before any run starts.
"""

from __future__ import annotations

import ast
import csv
import re
from dataclasses import dataclass, field
from inspect import signature
from typing import Any, Dict, List, Optional

from repro import obs as _obs
from repro.analysis.tables import Table
from repro.harness.experiments import EXPERIMENTS


class SpecError(ValueError):
    """A malformed or invalid sweep spec."""


@dataclass
class SweepSpec:
    """One declarative sweep: an experiment family plus overrides."""

    experiment: str
    params: Dict[str, Any] = field(default_factory=dict)
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise SpecError(
                f"unknown experiment {self.experiment!r} "
                f"(expected one of {', '.join(sorted(EXPERIMENTS))})"
            )
        if self.name is None:
            self.name = self.experiment

    def validate(self) -> None:
        """Reject parameter names the experiment function does not accept."""
        accepted = set(signature(EXPERIMENTS[self.experiment].runner).parameters)
        accepted.discard("jobs")
        bad = sorted(set(self.params) - accepted)
        if bad:
            raise SpecError(
                f"spec {self.name!r}: {self.experiment} does not accept "
                f"parameter(s) {', '.join(bad)} "
                f"(accepted: {', '.join(sorted(accepted))})"
            )

    def run(self, jobs: int = 1) -> Table:
        """Execute the sweep; returns its rendered-ready table."""
        self.validate()
        experiment = EXPERIMENTS[self.experiment]
        if _obs._ENABLED:
            # The spec span roots the sweep's path tree: everything below
            # (exp.<name> -> runner.* -> kernel.run) canonicalizes under
            # sweep.spec/<...>, so two sweeps of the same spec diff
            # path-for-path.
            with _obs.tracer().span(
                "sweep.spec", spec=self.name, experiment=self.experiment
            ):
                return experiment.run(jobs=jobs, **self.params)
        return experiment.run(jobs=jobs, **self.params)


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


def load_specs(path: str) -> List[SweepSpec]:
    """Parse a CSV spec file: one sweep per non-blank row."""
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
            )
            spec.validate()
            specs.append(spec)
    if not specs:
        raise SpecError(f"{path}: no sweep rows")
    return specs
