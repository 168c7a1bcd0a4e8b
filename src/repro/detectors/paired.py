"""Product detectors (D, D') — footnote 1 / Section 2.3.

``(D, D')`` outputs ordered pairs; a history of the pair projects to a
history of each component.  The consensus algorithms in this repository take
their leader and quorum components from a paired history, e.g.
``(Omega, Sigma^nu+)`` for A_nuc.

A pair of piecewise-constant components is itself piecewise-constant, so
its per-process breakpoint tables are merged once, when the pair is built
(:func:`segment_merge`), and ``value(p, t)`` is one ``bisect`` into the
merged table.  The fused lane of ``repro.kernel.batch`` runs off the same
tables (:func:`history_breakpoints`), so both engines read one compiled
copy.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.detectors.base import FailureDetector, History, ScheduleHistory
from repro.kernel.failures import FailurePattern

#: One process's breakpoints: ascending ``times`` (the first is 0) and the
#: value holding from each time on.
Table = Tuple[List[int], List[Any]]


def segment_merge(per_component: List[Table]) -> Table:
    """Merge component breakpoint tables into one ``(times, values)`` pair.

    Values at merged time ``t`` are the tuple of component values holding
    at ``t`` — what calling every component's ``value`` would return.
    """
    merged_times = sorted({t for times, _ in per_component for t in times})
    columns = [
        [values[bisect_right(times, t) - 1] for t in merged_times]
        for times, values in per_component
    ]
    return merged_times, list(zip(*columns))


def history_breakpoints(history: Any) -> Optional[Dict[int, Table]]:
    """``{process: (times, values)}`` for piecewise-constant histories.

    ``None`` for history types whose values cannot be proven
    piecewise-constant ahead of the run (functional, recorded, adaptive or
    injector-wrapped histories, and subclasses that may override
    ``value``).  The tables are the history's own: read, never written.
    """
    if type(history) is ScheduleHistory:
        values = history._values
        return {p: (times, values[p]) for p, times in history._times.items()}
    if type(history) is PairedHistory:
        return history._tables or None
    return None


def _merged_tables(components: Sequence[History]) -> Dict[int, Table]:
    """The pair's table for every process all ``components`` tabulate."""
    parts = []
    for component in components:
        tables = history_breakpoints(component)
        if tables is None:
            return {}
        parts.append(tables)
    common = set(parts[0]).intersection(*parts[1:])
    return {
        p: segment_merge([tables[p] for tables in parts]) for p in sorted(common)
    }


class PairedHistory(History):
    """The product history: ``H''(p, t) = (H(p, t), H'(p, t))``."""

    def __init__(self, components: Sequence[History]):
        if len(components) < 2:
            raise ValueError("a paired history needs at least two components")
        self.components = tuple(components)
        self._tables = _merged_tables(self.components)

    def value(self, p: int, t: int) -> Tuple[Any, ...]:
        try:
            times, values = self._tables[p]
        except KeyError:
            # Some component is not piecewise-constant (or does not know
            # ``p``, and says so itself): ask each one.
            return tuple(component.value(p, t) for component in self.components)
        return values[bisect_right(times, t) - 1]

    def project(self, index: int) -> History:
        return self.components[index]


class PairedDetector(FailureDetector):
    """The product detector ``(D, D', ...)``."""

    def __init__(self, *detectors: FailureDetector):
        if len(detectors) < 2:
            raise ValueError("a paired detector needs at least two components")
        self.detectors = detectors
        self.name = "(" + ", ".join(d.name for d in detectors) + ")"

    def sample_history(
        self, pattern: FailurePattern, rng: random.Random
    ) -> PairedHistory:
        return PairedHistory(
            [d.sample_history(pattern, rng) for d in self.detectors]
        )
