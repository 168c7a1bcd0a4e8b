"""The dict-of-nodes ``SampleDAG``: the oracle for the shipped one.

:class:`repro.core.dag.SampleDAG` represents a DAG version by its frontier
over per-process sample lists that all versions share.  This module keeps
the plain representation that is an optimization of: every version owns a
``(pid, k) -> Sample`` dict, copied on each new sample and each union.
``tests/core/test_dag_equivalence.py`` drives both through the same
operations and compares every query.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.dag import Sample, SampleKey


class ReferenceDAG:
    """An immutable DAG of samples; each version owns its node dict.

    All mutation-like operations return a new DAG built on a copy of the
    dict, so a version costs O(|G|).
    """

    __slots__ = ("n", "_nodes", "_max_k")

    def __init__(
        self,
        n: int,
        nodes: Optional[Dict[SampleKey, Sample]] = None,
        max_k: Optional[Tuple[int, ...]] = None,
    ):
        self.n = n
        self._nodes: Dict[SampleKey, Sample] = nodes if nodes is not None else {}
        if max_k is None:
            counters = [0] * n
            for pid, k in self._nodes:
                counters[pid] = max(counters[pid], k)
            max_k = tuple(counters)
        self._max_k = max_k

    @classmethod
    def empty(cls, n: int) -> "ReferenceDAG":
        return cls(n, {}, tuple([0] * n))

    # ------------------------------------------------------------------
    # Construction (the operations of A_DAG lines 7-10)
    # ------------------------------------------------------------------

    def add_local_sample(
        self, pid: int, d: Any, t: int = 0
    ) -> Tuple["ReferenceDAG", Sample]:
        """Add a new sample of ``pid`` below everything present.

        Returns the new DAG and the created node (A_DAG lines 8-10: the
        frontier encodes 'edges from every other node to the new node').
        """
        k = self._max_k[pid] + 1
        sample = Sample(pid=pid, k=k, d=d, frontier=self._max_k, t=t)
        nodes = dict(self._nodes)
        nodes[sample.key] = sample
        max_k = tuple(
            k if q == pid else self._max_k[q] for q in range(self.n)
        )
        return ReferenceDAG(self.n, nodes, max_k), sample

    def union(self, other: "ReferenceDAG") -> "ReferenceDAG":
        """``G_p <- G_p ∪ m`` (A_DAG line 7).

        Sample keys are globally unique and deterministic, so equal keys
        always carry equal nodes; the union is a plain dict merge.
        """
        if other is self or not other._nodes:
            return self
        if not self._nodes:
            return other
        nodes = dict(self._nodes)
        nodes.update(other._nodes)
        max_k = tuple(
            max(self._max_k[q], other._max_k[q]) for q in range(self.n)
        )
        return ReferenceDAG(self.n, nodes, max_k)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, key: SampleKey) -> bool:
        return key in self._nodes

    def get(self, key: SampleKey) -> Optional[Sample]:
        return self._nodes.get(key)

    def nodes(self) -> List[Sample]:
        return list(self._nodes.values())

    def max_k(self, pid: int) -> int:
        """Largest sample index of ``pid`` present (0 if none)."""
        return self._max_k[pid]

    @property
    def frontier(self) -> Tuple[int, ...]:
        """Per-process largest sample index present."""
        return self._max_k

    def latest_sample(self, pid: int) -> Optional[Sample]:
        k = self._max_k[pid]
        return self._nodes.get((pid, k)) if k else None

    def samples_of(self, pid: int) -> List[Sample]:
        return sorted(
            (s for s in self._nodes.values() if s.pid == pid),
            key=lambda s: s.k,
        )

    @staticmethod
    def is_ancestor(u: Sample, v: Sample) -> bool:
        """Whether there is an edge/path from ``u`` to ``v`` (``u != v``)."""
        if u.key == v.key:
            return False
        return v.frontier[u.pid] >= u.k

    @staticmethod
    def comparable(u: Sample, v: Sample) -> bool:
        return (
            u.key == v.key
            or ReferenceDAG.is_ancestor(u, v)
            or ReferenceDAG.is_ancestor(v, u)
        )

    def descendants(self, root: Sample, include_root: bool = True) -> List[Sample]:
        """``G | root``: the subgraph induced by the descendants of ``root``.

        Following the paper's usage (Lemma 4.5 et seq.) the root itself
        belongs to ``G | root``; pass ``include_root=False`` to drop it.
        Returned in topological order (by depth, then pid/k for determinism).
        """
        found = [
            s
            for s in self._nodes.values()
            if self.is_ancestor(root, s) or (include_root and s.key == root.key)
        ]
        found.sort(key=lambda s: (s.depth, s.pid, s.k))
        return found

    def ancestors(self, node: Sample, include_node: bool = True) -> List[Sample]:
        found = [
            s
            for s in self._nodes.values()
            if self.is_ancestor(s, node) or (include_node and s.key == node.key)
        ]
        found.sort(key=lambda s: (s.depth, s.pid, s.k))
        return found

    def topological(self, nodes: Optional[Iterable[Sample]] = None) -> List[Sample]:
        """A deterministic linear extension of (a subset of) the DAG."""
        pool = list(nodes) if nodes is not None else list(self._nodes.values())
        pool.sort(key=lambda s: (s.depth, s.pid, s.k))
        return pool

