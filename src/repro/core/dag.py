"""DAGs of failure detector samples (Section 4.1).

``A_DAG`` (Fig. 1) has every process build an ever-growing DAG whose nodes
are *samples* ``(q, d, k)`` — process ``q`` saw detector value ``d`` at its
``k``-th query — with an edge from every existing node to each new node.

Two structural facts make a compact representation possible:

* the DAG each process holds is **ancestor-closed** (nodes arrive only as
  parts of whole DAGs, and new nodes attach below everything present), and
* reachability is **transitive by construction**: ``u`` reaches ``v`` iff
  ``u`` was in the builder's DAG when ``v`` was created.

Hence the ancestors of ``v`` are exactly the samples ``(q, k')`` with
``k' <= frontier_v[q]``, where ``frontier_v[q]`` is the largest ``k'`` of a
``q``-sample present at ``v``'s creation.  Storing that length-``n`` frontier
vector per node represents the (quadratically dense) edge relation in O(n)
space per node:

    ``u`` is an ancestor of ``v``  iff  ``u.k <= v.frontier[u.pid]``.

Paths of the DAG are then chains of this partial order, and Observations
4.1-4.4 and Lemmas 4.5-4.8 become simple order-theoretic facts which the
test suite checks directly.

Ancestor closure and unique keys also make a version O(n): it holds exactly
the samples ``(q, 1..max_k[q])`` (each has its process's previous one below
it), so a :class:`SampleDAG` is its frontier over shared per-process lists.
"""

from __future__ import annotations

from operator import ge
from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro import obs as _obs

SampleKey = Tuple[int, int]  # (pid, k)


class Sample(NamedTuple):
    """A failure-detector sample ``(q, d, k)`` with its ancestry frontier.

    ``t`` records the global time at which the sample was taken — the
    paper's ``tau(v)`` — so that simulated schedules can be paired with
    their time lists (Lemma 4.9) and Observation 4.4 can be checked.
    """

    pid: int
    k: int  # 1-based index of this sample among pid's samples
    d: Any  # the detector value seen
    frontier: Tuple[int, ...]  # frontier[q] = max k' of q-samples below this
    t: int = 0  # tau(v): when the sample was taken

    @property
    def key(self) -> SampleKey:
        return (self.pid, self.k)

    @property
    def depth(self) -> int:
        """Number of samples strictly below this one; a topological rank."""
        return sum(self.frontier)

    def __repr__(self) -> str:
        return f"Sample(p{self.pid}#{self.k}, d={self.d!r})"


class SampleDAG:
    """An immutable DAG of samples: its frontier over shared sample lists.

    ``_lists[q][k - 1]`` is sample ``(q, k)``; a version sees the prefixes
    ``_lists[q][:max_k[q]]``.  A sample is appended in place at its list's
    tip, else onto a copy of the prefix (copy on write, for forks).  So a
    tip sample, a union or a DAG in a message costs O(n), not O(|G|).
    """

    __slots__ = ("n", "_lists", "_max_k")

    def __init__(
        self, n: int, lists: Tuple[List[Sample], ...], max_k: Tuple[int, ...]
    ):
        self.n = n
        self._lists = lists
        self._max_k = max_k

    @classmethod
    def empty(cls, n: int) -> "SampleDAG":
        return cls(n, tuple([] for _ in range(n)), (0,) * n)

    # ------------------------------------------------------------------
    # Construction (the operations of A_DAG lines 7-10)
    # ------------------------------------------------------------------

    def add_local_sample(
        self, pid: int, d: Any, t: int = 0
    ) -> Tuple["SampleDAG", Sample]:
        """Add a new sample of ``pid`` below everything present.

        Returns the new DAG and the created node (A_DAG lines 8-10: the
        frontier encodes 'edges from every other node to the new node').
        """
        max_k = self._max_k
        k = max_k[pid] + 1
        sample = Sample(pid=pid, k=k, d=d, frontier=max_k, t=t)
        lists = self._lists
        own = lists[pid]
        if len(own) != k - 1:  # not at the tip: copy on write
            own = own[: k - 1]
            lists = lists[:pid] + (own,) + lists[pid + 1 :]
        own.append(sample)
        return SampleDAG(self.n, lists, max_k[:pid] + (k,) + max_k[pid + 1 :]), sample

    def union(self, other: "SampleDAG") -> "SampleDAG":
        """``G_p <- G_p ∪ m`` (A_DAG line 7).

        Sample keys are globally unique and deterministic, so equal keys
        always carry equal nodes, and each process's samples in the union
        are the longer of the two prefixes (ties to ``self``).
        """
        mine, theirs = self._max_k, other._max_k
        if all(map(ge, mine, theirs)):
            return self
        if all(map(ge, theirs, mine)):
            return other
        lists = tuple(
            a if i >= j else b
            for a, b, i, j in zip(self._lists, other._lists, mine, theirs)
        )
        return SampleDAG(self.n, lists, tuple(map(max, mine, theirs)))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return sum(self._max_k)

    def __contains__(self, key: SampleKey) -> bool:
        return self.get(key) is not None

    def get(self, key: SampleKey) -> Optional[Sample]:
        pid, k = key
        present = 0 <= pid < self.n and 0 < k <= self._max_k[pid]
        return self._lists[pid][k - 1] if present else None

    def nodes(self) -> List[Sample]:
        """Every sample, process by process, each in ascending ``k``."""
        return [s for lst, k in zip(self._lists, self._max_k) for s in lst[:k]]

    def max_k(self, pid: int) -> int:
        """Largest sample index of ``pid`` present (0 if none)."""
        return self._max_k[pid]

    @property
    def frontier(self) -> Tuple[int, ...]:
        """Per-process largest sample index present."""
        return self._max_k

    def latest_sample(self, pid: int) -> Optional[Sample]:
        k = self._max_k[pid]
        return self._lists[pid][k - 1] if k else None

    def samples_of(self, pid: int) -> List[Sample]:
        return self._lists[pid][: self._max_k[pid]]

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
            or SampleDAG.is_ancestor(u, v)
            or SampleDAG.is_ancestor(v, u)
        )

    def descendants(self, root: Sample, include_root: bool = True) -> List[Sample]:
        """``G | root``: the subgraph induced by the descendants of ``root``.

        Following the paper's usage (Lemma 4.5 et seq.) the root itself
        belongs to ``G | root``; pass ``include_root=False`` to drop it.
        Returned in topological order (by depth, then pid/k for determinism).
        """
        return self.topological(
            s for s in self.nodes()
            if self.is_ancestor(root, s) or (include_root and s.key == root.key)
        )

    def ancestors(self, node: Sample, include_node: bool = True) -> List[Sample]:
        return self.topological(
            s for s in self.nodes()
            if self.is_ancestor(s, node) or (include_node and s.key == node.key)
        )

    def topological(self, nodes: Optional[Iterable[Sample]] = None) -> List[Sample]:
        """A deterministic linear extension of (a subset of) the DAG."""
        pool = list(nodes) if nodes is not None else self.nodes()
        pool.sort(key=lambda s: (s.depth, s.pid, s.k))
        return pool


def greedy_chain(nodes: Sequence[Sample]) -> List[Sample]:
    """A maximal-ish path (chain) through ``nodes``.

    Walks a topological order and keeps each node that is a descendant of the
    last kept node.  Because every path of the DAG is a chain of the ancestry
    order (the DAG is transitively closed), the result is a genuine DAG path.
    Concurrent (incomparable) samples are dropped; callers that need a
    specific process represented should wait for later samples, which are
    descendants of everything older (Lemma 4.7's argument).
    """
    ordered = sorted(nodes, key=lambda s: (s.depth, s.pid, s.k))
    chain: List[Sample] = []
    for node in ordered:
        if not chain or SampleDAG.is_ancestor(chain[-1], node):
            chain.append(node)
    return chain


def chain_over_processes(
    nodes: Sequence[Sample], pids: FrozenSet[int]
) -> List[Sample]:
    """Greedy chain through the samples of the given processes only."""
    return greedy_chain([s for s in nodes if s.pid in pids])


class DagCore:
    """The loop body of A_DAG (Fig. 1 lines 5-12), shared by the
    transformation algorithms that embed it verbatim.

    Holds the current DAG, the sample counter ``k_p`` and the last own
    sample ``v_p``; :meth:`absorb` is line 7 and :meth:`sample` lines 8-10.
    """

    def __init__(self, pid: int, n: int):
        self.pid = pid
        self.n = n
        self.dag = SampleDAG.empty(n)
        self.k = 0
        self.last_sample: Optional[Sample] = None

    def absorb(self, payload: Any) -> None:
        """Union a received DAG into ours (ignores non-DAG payloads)."""
        if isinstance(payload, SampleDAG):
            self.dag = self.dag.union(payload)

    def sample(self, d: Any, t: int = 0) -> Sample:
        """Take the next local sample and attach it below everything."""
        self.dag, sample = self.dag.add_local_sample(self.pid, d, t)
        self.k += 1
        self.last_sample = sample
        return sample


def balanced_chain(nodes: Sequence[Sample]) -> List[Sample]:
    """A chain through ``nodes`` that serves processes as evenly as possible.

    The plain greedy chain can starve a process (its samples keep landing
    incomparable to the greedily-kept ones), which matters when the chain is
    fed to a schedule simulation: the starved process takes too few steps to
    decide.  This variant repeatedly extends the chain with the next
    compatible sample of the *least-served* process, yielding near
    round-robin interleaving whenever the underlying samples permit.

    For callers that rebuild the chain of a *growing* sample set over and
    over (the extraction search), :class:`BalancedChainBuilder` computes the
    identical chain incrementally.
    """
    builder = BalancedChainBuilder()
    builder.extend(nodes)
    return list(builder.chain())


class BalancedChainBuilder:
    """Incrementally maintained :func:`balanced_chain` of a growing set.

    Feed batches of new samples with :meth:`extend`; :meth:`chain` always
    equals ``balanced_chain`` of everything fed so far.  The builder's run
    is deterministic given the per-process sample lists, and appending
    samples (always with larger ``k`` than any fed before, as DAG growth
    guarantees) can first change its behaviour at the earliest iteration
    where some process's list was exhausted — every prior iteration saw
    candidates drawn from unchanged list prefixes.  The builder checkpoints
    its state at that first-exhaustion moment and, on new samples, replays
    only from the checkpoint instead of from scratch.

    So between two reads the chain changes only past the lowest checkpoint
    it rewound to (or entirely, after a new process's first sample resets
    the run).  :meth:`preserved` reports that surviving prefix per reader,
    which lets a consumer of the chain resume its own work there.
    """

    __slots__ = (
        "_lists",
        "_seen_k",
        "_pointers",
        "_counts",
        "_chain",
        "_last",
        "_ckpt",
        "_marks",
    )

    def __init__(self) -> None:
        self._lists: Dict[int, List[Sample]] = {}
        self._seen_k: Dict[int, int] = {}
        self._pointers: Dict[int, int] = {}
        self._counts: Dict[int, int] = {}
        self._chain: List[Sample] = []
        self._last: Optional[Sample] = None
        # State at the first iteration that saw an exhausted list:
        # (pointers, counts, chain length, last).  ``None`` until then.
        self._ckpt: Optional[
            Tuple[Dict[int, int], Dict[int, int], int, Optional[Sample]]
        ] = None
        # reader -> length of the chain prefix unchanged since its last read.
        self._marks: Dict[Hashable, int] = {}

    def extend(self, nodes: Iterable[Sample]) -> None:
        """Feed samples; ones already fed (by ``(pid, k)``) are ignored.

        New samples of a process must have larger ``k`` than its previously
        fed ones — true for any caller feeding snapshots of a growing DAG
        subset (per process, a fresh subgraph's ``k`` values are upward
        closed, so growth only appends).  Order within one batch is free.
        """
        incoming: Dict[int, List[Sample]] = {}
        for node in nodes:
            incoming.setdefault(node.pid, []).append(node)
        fed = False
        new_pid = False
        for pid, batch in incoming.items():
            batch.sort(key=lambda s: s.k)
            seen = self._seen_k.get(pid, 0)
            if batch[-1].k <= seen:
                continue
            bucket = self._lists.get(pid)
            if bucket is None:
                bucket = self._lists[pid] = []
                new_pid = True
            for node in batch:
                if node.k > seen:
                    bucket.append(node)
                    seen = node.k
            self._seen_k[pid] = seen
            fed = True
        self._ingested(fed, new_pid)

    def extend_grouped(self, groups: Mapping[int, Sequence[Sample]]) -> None:
        """Feed per-process sample lists that *extend* previously fed ones.

        Each ``groups[pid]`` must be sorted ascending by ``k`` and have the
        samples fed for ``pid`` so far as a prefix (true of a growing fresh
        subgraph's per-process lists); only the suffix past the fed count is
        ingested, so a call costs O(new samples), not O(all samples).
        """
        fed = False
        new_pid = False
        for pid, lst in groups.items():
            bucket = self._lists.get(pid)
            if bucket is None:
                if not lst:
                    continue
                bucket = self._lists[pid] = []
                new_pid = True
            start = len(bucket)
            if len(lst) <= start:
                continue
            bucket.extend(lst[start:])
            self._seen_k[pid] = bucket[-1].k
            fed = True
        self._ingested(fed, new_pid)

    def _ingested(self, fed: bool, new_pid: bool) -> None:
        if new_pid:
            # A first-ever sample of a process could have entered the run at
            # any iteration — no prior checkpoint is valid.  Start over.
            self._pointers = {}
            self._counts = {}
            self._chain = []
            self._last = None
            self._ckpt = None
            self._marks = dict.fromkeys(self._marks, 0)
        if fed:
            self._rewind_and_run()

    def chain(self) -> Sequence[Sample]:
        """The balanced chain of all samples fed so far (do not mutate)."""
        return self._chain

    def pid_count(self, pid: int) -> int:
        """Number of entries of ``pid`` in the current chain."""
        return self._counts.get(pid, 0)

    def preserved(self, reader: Hashable) -> int:
        """Length of the chain prefix unchanged since ``reader``'s last call.

        0 on a reader's first call.  The call marks the current chain as
        read by ``reader``; each later rewind lowers the mark to the
        checkpoint's length, and a new-process reset lowers it to 0.
        """
        kept = self._marks.get(reader, 0)
        self._marks[reader] = len(self._chain)
        return kept

    def frozen(self) -> int:
        """Length of the chain prefix that feeding more samples keeps.

        The checkpoint's chain length: the next rewind lands there, unless
        a new process's first sample resets the run to 0.
        """
        return self._ckpt[2] if self._ckpt is not None else 0

    def _rewind_and_run(self) -> None:
        if self._ckpt is not None:
            # The checkpoint is spent here, so its dicts are taken, not
            # copied.
            self._pointers, self._counts, chain_len, last = self._ckpt
            del self._chain[chain_len:]
            self._last = last
            self._ckpt = None
            marks = self._marks
            for reader, kept in marks.items():
                if kept > chain_len:
                    marks[reader] = chain_len
        elif self._chain or self._last is not None:
            raise AssertionError("completed run left no checkpoint")
        lists = self._lists
        pointers = self._pointers
        counts = self._counts
        chain = self._chain
        last = self._last
        built0 = len(chain)
        while True:
            # The least-served candidate (from the start: the shallowest),
            # ties to the lowest pid.
            node: Optional[Sample] = None
            best_rank = best_pid = 0
            exhausted = False
            last_pid = last.pid if last is not None else -1
            last_k = last.k if last is not None else 0
            for pid, samples in lists.items():
                i = pointers.get(pid, 0)
                ln = len(samples)
                # Frontiers are monotone in k, so samples skipped against
                # the current chain tip can never become compatible with
                # later (deeper) tips of the same process; advancing is
                # safe.  (``last`` itself cannot reappear: its own list's
                # pointer is already past it, other lists never held it.)
                if last is not None:
                    while i < ln and samples[i].frontier[last_pid] < last_k:
                        i += 1
                pointers[pid] = i
                if i < ln:
                    sample = samples[i]
                    rank = sample.depth if last is None else counts.get(pid, 0)
                    if (
                        node is None
                        or rank < best_rank
                        or (rank == best_rank and pid < best_pid)
                    ):
                        node, best_rank, best_pid = sample, rank, pid
                else:
                    exhausted = True
            if exhausted and self._ckpt is None:
                # First iteration an exhausted list could influence: future
                # samples of that process may re-enter here.  Snapshot the
                # pre-selection state so extend() replays from this point.
                self._ckpt = (dict(pointers), dict(counts), len(chain), last)
            if node is None:
                break
            pid = best_pid
            chain.append(node)
            counts[pid] = counts.get(pid, 0) + 1
            pointers[pid] += 1
            last = node
        self._last = last
        if _obs._ENABLED:
            reg = _obs.metrics()
            reg.inc("dag.chain_builds")
            reg.inc("dag.chain_appends", len(chain) - built0)
            reg.gauge("dag.chain_len", len(chain))
