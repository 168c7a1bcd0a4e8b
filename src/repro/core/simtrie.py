"""Incremental simulation trie: memoized ``Sch(G, I)`` prefixes.

The extraction search (Fig. 2 lines 14-17) re-simulates the subject
algorithm ``A`` along DAG chains over and over: every search tick rebuilds
each candidate subset's balanced chain and replays it from a fresh
:class:`~repro.kernel.runs.PureSystemSimulator`, for both the all-0 and the
all-1 initial configuration.  But the object being recomputed is a *tree of
runs sharing prefixes* — the simulation forest of the CHT-style derivations —
and chains only ever grow as the DAG grows, so almost all of that work is
repeated verbatim.

:class:`SimulationTrie` makes the forest explicit.  Nodes are interned step
prefixes keyed by sample keys ``(pid, k)`` (globally unique and
deterministic, so a key sequence pins down the whole simulation); per
initial configuration each node caches

* the :class:`~repro.kernel.steps.Step` taken to reach it (message receipt
  is deterministic under the oldest-message rule of Lemma 4.10),
* the decision, if any, that the stepping process reached at it, and
* every :data:`SNAPSHOT_STRIDE` levels, a forked simulator snapshot.

:meth:`SimulationTrie.simulate` then returns exactly the
:class:`PathSimulation` a from-scratch simulation of the chain gives — same
schedule, same path truncation, same decisions — while replaying only the
suffix past the longest cached prefix.  So a (node, initial configuration)
step is simulated at most once.  Chains that were already simulated in full are
answered with zero simulator work, which is also how failed searches are
settled: by Sch-monotonicity (Lemmas 4.5/4.11) a chain that did not let the
target decide still does not at any prefix, and the cached decision deltas
witness this directly.

:class:`IncrementalExtractionEngine` is the search of ``T_{D ->
Sigma^nu}`` on top: per candidate subset it keeps an incremental
:class:`~repro.core.dag.BalancedChainBuilder` and simulates the subset's
chain through the trie.  The I_0 and I_1 searches share one trie — the node
structure is common; only the per-configuration caches differ.

Counters (prefix hit-rate, steps simulated vs. replayed for free) surface
through :mod:`repro.analysis.metrics`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.dag import BalancedChainBuilder, Sample, SampleKey
from repro.kernel.automaton import Automaton
from repro.kernel.runs import PureSystemSimulator
from repro.kernel.steps import Schedule, Step


@dataclass
class PathSimulation:
    """Result of simulating A along one DAG path."""

    schedule: Schedule
    path: Tuple[Sample, ...]
    participants: FrozenSet[int]
    decisions: Dict[int, Any]
    target_decided_at: Optional[int]  # schedule length when target decided

    @property
    def target_decided(self) -> bool:
        return self.target_decided_at is not None


def _subsets_containing(
    pool: Sequence[int], anchor: int, max_size: Optional[int] = None
) -> Iterable[FrozenSet[int]]:
    """Subsets of ``pool`` containing ``anchor``, smallest first.

    Every yielded subset has at most ``max_size`` members (the anchor
    included); a cap below 1 cannot admit even the singleton ``{anchor}``
    and is rejected rather than silently yielding nothing.
    """
    if max_size is not None and max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    rest = [p for p in pool if p != anchor]
    limit = len(rest) if max_size is None else min(len(rest), max_size - 1)
    for size in range(0, limit + 1):
        for combo in itertools.combinations(rest, size):
            yield frozenset((anchor,) + combo)


def _capped_subset(
    present: Sequence[int],
    target: int,
    counts: Mapping[int, int],
    max_subset_size: Optional[int],
) -> FrozenSet[int]:
    """The process set for a single (non-minimizing) attempt.

    Respects ``max_subset_size`` by keeping ``target`` plus the
    best-sampled other processes (deterministically: most fresh samples
    first, then lowest pid).
    """
    if max_subset_size is not None and max_subset_size < 1:
        raise ValueError(f"max_subset_size must be >= 1, got {max_subset_size}")
    if max_subset_size is None or len(present) <= max_subset_size:
        return frozenset(present)
    rest = sorted(
        (p for p in present if p != target),
        key=lambda p: (-counts.get(p, 0), p),
    )
    return frozenset([target] + rest[: max_subset_size - 1])


@dataclass
class TrieCounters:
    """Work accounting for the incremental engine.

    ``steps_simulated`` are genuine simulator transitions; ``steps_replayed``
    are cached steps re-applied from the nearest snapshot (no delivery
    search); ``steps_from_cache`` were served without touching a simulator
    at all.  ``known_failure_hits`` are whole queries answered negatively
    from cached decision deltas; ``subsets_tried`` counts the candidate
    subsets whose chain the engine built.
    """

    queries: int = 0
    prefix_hits: int = 0
    cached_results: int = 0
    known_failure_hits: int = 0
    steps_simulated: int = 0
    steps_replayed: int = 0
    steps_from_cache: int = 0
    subsets_tried: int = 0
    snapshots_stored: int = 0
    snapshot_restores: int = 0
    nodes_created: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {k: int(v) for k, v in self.__dict__.items()}

    def add(self, other: Mapping[str, int]) -> None:
        for k, v in other.items():
            if hasattr(self, k):
                setattr(self, k, getattr(self, k) + v)

    @property
    def prefix_hit_rate(self) -> float:
        return self.prefix_hits / self.queries if self.queries else 0.0

    @property
    def free_step_rate(self) -> float:
        """Fraction of all requested steps not simulated from scratch."""
        total = self.steps_simulated + self.steps_replayed + self.steps_from_cache
        if not total:
            return 0.0
        return (self.steps_replayed + self.steps_from_cache) / total


#: Store a forked simulator every this many levels of a fresh chain.
SNAPSHOT_STRIDE = 8
#: Cap on stored snapshots per trie — the trie's memory bound.  Past it,
#: queries replay cached steps from the deepest existing snapshot.
SNAPSHOT_BUDGET = 4096


class _Node:
    """One interned prefix.  Per-configuration caches are keyed by the
    small integers handed out by :meth:`SimulationTrie.config_index`."""

    __slots__ = ("children", "steps", "dstep", "snaps")

    def __init__(self) -> None:
        self.children: Dict[SampleKey, "_Node"] = {}
        self.steps: Dict[int, Step] = {}
        self.dstep: Dict[int, Tuple[int, Any]] = {}
        self.snaps: Dict[int, PureSystemSimulator] = {}


class SimulationTrie:
    """Per-(automaton, n) prefix tree of cached simulations.

    One trie serves every initial configuration of the automaton — register
    each with :meth:`config_index`; the structure (nodes, children) is
    shared, the step/decision/snapshot caches are per configuration.
    """

    def __init__(self, automaton: Automaton, n: int):
        self.automaton = automaton
        self.n = n
        self.root = _Node()
        self.counters = TrieCounters()
        self._configs: Dict[Tuple[Any, ...], int] = {}
        self._root_decided: List[Dict[int, Any]] = []

    def config_index(self, proposals: Mapping[int, Any]) -> int:
        """Intern an initial configuration; returns its small index."""
        key = tuple(proposals.get(p) for p in range(self.n))
        got = self._configs.get(key)
        if got is not None:
            return got
        index = len(self._root_decided)
        self._configs[key] = index
        sim = PureSystemSimulator(self.automaton, self.n, proposals)
        self._root_decided.append(sim.decided_pids())
        return index

    def simulate(
        self,
        proposals: Mapping[int, Any],
        path: Sequence[Sample],
        target: Optional[int] = None,
    ) -> PathSimulation:
        """Simulate ``A`` along ``path`` with oldest-message delivery.

        The schedule of Lemma 4.10, stopping where ``target`` decides.
        Equal field by field to a from-scratch simulation (the oracle tests
        compare them); only the work differs.
        """
        cfg = self.config_index(proposals)
        c = self.counters
        c.queries += 1

        decided = dict(self._root_decided[cfg])
        decided_at: Optional[int] = None
        steps: List[Step] = []
        node = self.root
        snap_sim: Optional[PureSystemSimulator] = None
        snap_depth = 0
        i = 0

        # Phase 1: descend the cached prefix — no simulator needed.
        while i < len(path):
            child = node.children.get(path[i].key)
            if child is None or cfg not in child.steps:
                break
            steps.append(child.steps[cfg])
            delta = child.dstep.get(cfg)
            if delta is not None:
                decided[delta[0]] = delta[1]
            node = child
            i += 1
            snap = child.snaps.get(cfg)
            if snap is not None:
                snap_sim, snap_depth = snap, i
            if target is not None and target in decided:
                decided_at = i
                break

        if decided_at is not None or i == len(path):
            # Served for free.  A whole chain without a target decision is
            # the known-failure fast path (Sch-monotone: no prefix of a
            # non-deciding chain decides either).
            c.cached_results += 1
            c.steps_from_cache += i
            if target is not None and decided_at is None:
                c.known_failure_hits += 1
            return PathSimulation(
                schedule=Schedule(steps),
                path=tuple(path[:i]),
                participants=frozenset(s.pid for s in path[:i]),
                decisions=decided,
                target_decided_at=decided_at,
            )

        # Phase 2: restore the nearest snapshot and replay cached steps.
        if snap_sim is not None:
            sim = snap_sim.fork()
            c.snapshot_restores += 1
        else:
            sim = PureSystemSimulator(self.automaton, self.n, proposals)
        for j in range(snap_depth, i):
            sim.apply_step(steps[j], time=j)
        c.steps_replayed += i - snap_depth
        c.steps_from_cache += snap_depth
        if i > 0:
            c.prefix_hits += 1

        # Phase 3: simulate the new suffix, growing the trie as we go.
        while i < len(path):
            sample = path[i]
            uid = sim.oldest_pending_uid(sample.pid)
            step = Step(pid=sample.pid, msg_uid=uid, detector_value=sample.d)
            sim.apply_step(step, time=i)
            steps.append(step)
            child = node.children.get(sample.key)
            if child is None:
                child = node.children[sample.key] = _Node()
                c.nodes_created += 1
            child.steps[cfg] = step
            if sample.pid not in decided:
                value = sim.decision(sample.pid)
                if value is not None:
                    decided[sample.pid] = value
                    child.dstep[cfg] = (sample.pid, value)
            node = child
            i += 1
            c.steps_simulated += 1
            if target is not None and target in decided:
                decided_at = i
                break
            if (
                i % SNAPSHOT_STRIDE == 0
                and cfg not in child.snaps
                and c.snapshots_stored < SNAPSHOT_BUDGET
            ):
                child.snaps[cfg] = sim.fork()
                c.snapshots_stored += 1

        # Always snapshot an undecided chain's end: chains extend as the DAG
        # grows, so the tip is the likeliest future restore point.  Decided
        # chains end the search (the barrier moves), so skip those.  The
        # simulator is not stepped further, so it is stored without forking.
        if (
            decided_at is None
            and cfg not in node.snaps
            and c.snapshots_stored < SNAPSHOT_BUDGET
        ):
            node.snaps[cfg] = sim
            c.snapshots_stored += 1

        return PathSimulation(
            schedule=Schedule(steps),
            path=tuple(path[:i]),
            participants=frozenset(s.pid for s in path[:i]),
            decisions=decided,
            target_decided_at=decided_at,
        )


class IncrementalExtractionEngine:
    """Incremental deciding-schedule search for ``T_{D -> Sigma^nu}``.

    Wraps one :class:`SimulationTrie` (shared between the I_0 and I_1
    searches) and one :class:`~repro.core.dag.BalancedChainBuilder` per
    candidate subset.  Chains are independent of the initial configuration,
    so I_0 and I_1 share the builders too.  A subset's fresh samples only
    grow under a fixed barrier (the builder's precondition), so moving the
    barrier (Fig. 2 lines 17-19) drops every builder and no schedule is
    ever justified by pre-barrier samples.  The trie itself is
    barrier-agnostic (keyed by full chains), so it needs no invalidation.
    """

    def __init__(self, automaton: Automaton, n: int):
        self.trie = SimulationTrie(automaton, n)
        self._barrier_key: Optional[SampleKey] = None
        self._chains: Dict[FrozenSet[int], BalancedChainBuilder] = {}

    @property
    def counters(self) -> TrieCounters:
        return self.trie.counters

    def find_deciding_schedule(
        self,
        proposals: Mapping[int, Any],
        fresh_nodes: Sequence[Sample],
        target: int,
        barrier: Optional[Sample] = None,
        max_path_len: int = 2000,
        minimize_participants: bool = True,
        max_subset_size: Optional[int] = None,
    ) -> Optional[PathSimulation]:
        """A schedule in ``Sch(G|barrier, I)`` in which ``target`` decides.

        Candidate subsets containing ``target`` are tried smallest first
        (one ``max_subset_size``-capped attempt without
        ``minimize_participants``); ``None`` when none decides yet.  Equal
        to re-simulating every chain from scratch (the oracle tests compare
        them); the chain builders and the trie only skip repeated work.
        """
        barrier_key = barrier.key if barrier is not None else None
        if barrier_key != self._barrier_key:
            self._barrier_key = barrier_key
            self._chains.clear()

        by_pid: Dict[int, List[Sample]] = {}
        for s in fresh_nodes:
            by_pid.setdefault(s.pid, []).append(s)
        if target not in by_pid:
            return None
        for bucket in by_pid.values():
            bucket.sort(key=lambda s: s.k)
        present = sorted(by_pid)
        if minimize_participants:
            subsets = _subsets_containing(present, target, max_subset_size)
        else:
            counts = {pid: len(bucket) for pid, bucket in by_pid.items()}
            subsets = [_capped_subset(present, target, counts, max_subset_size)]

        for subset in subsets:
            self.counters.subsets_tried += 1
            builder = self._chains.get(subset)
            if builder is None:
                builder = self._chains[subset] = BalancedChainBuilder()
            builder.extend_grouped({pid: by_pid[pid] for pid in sorted(subset)})
            chain = builder.chain()
            # The chain may have skipped every target sample (all landed
            # incomparable); without a target step it cannot decide.
            if len(chain) > max_path_len:
                chain = chain[:max_path_len]
                has_target = any(s.pid == target for s in chain)
            else:
                has_target = builder.pid_count(target) > 0
            if not has_target:
                continue
            result = self.trie.simulate(proposals, chain, target)
            if result.target_decided:
                return result
        return None


def merge_counter_dicts(
    dicts: Sequence[Mapping[str, int]]
) -> Optional[Dict[str, int]]:
    """Sum per-process counter dicts; ``None`` when there are none."""
    merged: Dict[str, int] = {}
    found = False
    for d in dicts:
        if not d:
            continue
        found = True
        for k, v in d.items():
            merged[k] = merged.get(k, 0) + int(v)
    return merged if found else None
