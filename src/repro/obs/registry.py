"""Named counters and gauges with cross-process merge.

One :class:`MetricsRegistry` collects all telemetry of a process:

* **counters** — monotonically increasing integers (``inc``); merged by
  summation.  All deterministic search-work accounting (the simulation
  trie's :class:`~repro.core.simtrie.TrieCounters`, the model checker)
  flows in here.
* **gauges** — high-water marks (``gauge`` keeps the max ever seen); merged
  by max.  High-water semantics, not last-write, so that per-worker
  snapshots merge to the same value regardless of how a sweep's tasks were
  distributed over processes.

Every value is logical: a registry holds no wall-clock readings, so two
runs of the same seeded work produce equal snapshots.

The merge contract (used by :mod:`repro.harness.parallel`): per-task deltas
(:meth:`delta_since`) merged into a parent registry in task order produce
the same counters and gauges as running every task inline in that parent —
counter sums and gauge maxes commute, so ``--jobs 1`` and ``--jobs N``
sweeps report identical deterministic metrics.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

Snapshot = Dict[str, Dict[str, Any]]


class MetricsRegistry:
    """A process-wide bag of named counters and gauges."""

    __slots__ = ("_counters", "_gauges")

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}

    # -- writing --------------------------------------------------------

    def inc(self, name: str, value: int = 1) -> None:
        """Add ``value`` to counter ``name`` (created at 0)."""
        self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Raise gauge ``name`` to ``value`` if higher (high-water mark)."""
        current = self._gauges.get(name)
        if current is None or value > current:
            self._gauges[name] = value

    def absorb(self, counters: Optional[Mapping[str, int]], prefix: str = "") -> None:
        """Sum a plain counter dict (e.g. ``search_counters()``) into us."""
        if not counters:
            return
        for key, value in counters.items():
            self.inc(prefix + key, int(value))

    # -- reading --------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        return dict(self._counters)

    def snapshot(self) -> Snapshot:
        """A picklable copy of everything recorded so far."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
        }

    def delta_since(self, before: Snapshot) -> Snapshot:
        """What was recorded since ``before`` (an earlier :meth:`snapshot`).

        Counters subtract; gauges pass through current values (high-water
        marks merge by max, so no subtraction applies).
        """
        counters_then = before.get("counters", {})
        counters = {
            k: v - counters_then.get(k, 0)
            for k, v in self._counters.items()
            if v != counters_then.get(k, 0)
        }
        return {"counters": counters, "gauges": dict(self._gauges)}

    # -- merging --------------------------------------------------------

    def merge(self, snapshot: Snapshot) -> None:
        """Fold a snapshot/delta (e.g. from a sweep worker) into us."""
        for k, v in snapshot.get("counters", {}).items():
            self.inc(k, v)
        for k, v in snapshot.get("gauges", {}).items():
            self.gauge(k, v)

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges)

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)})"
        )


def merge_snapshots(snapshots: List[Snapshot]) -> Snapshot:
    """Merge snapshots into one (fresh registry, same merge rules)."""
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.merge(snapshot)
    return registry.snapshot()
