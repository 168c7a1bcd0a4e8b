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
  is deterministic under the oldest-message rule of Lemma 4.10), and
* the decision, if any, that the stepping process reached at it.

The trie holds no simulator.  Simulators belong to *walks*: a walk is one
(chain, configuration, target) line of queries, and it keeps at most two
:class:`~repro.kernel.runs.PureSystemSimulator` objects — its *tip*, where
its last descent stopped, and its *base*, at the prefix of the chain that
its next change keeps.  :meth:`SimulationTrie.simulate` returns
exactly the :class:`PathSimulation` a from-scratch simulation of the chain
gives — same schedule, same path truncation, same decisions — while
simulating only the suffix past the longest cached prefix.  So a (node,
initial configuration) step is simulated at most once.  Chains that were
already simulated in full are answered with zero simulator work, which is
also how failed searches are settled: by Sch-monotonicity (Lemmas
4.5/4.11) a chain that did not let the target decide still does not at any
prefix, and the cached decision deltas witness this directly.

:class:`IncrementalExtractionEngine` is the search of ``T_{D ->
Sigma^nu}`` on top: per candidate subset it keeps an incremental
:class:`~repro.core.dag.BalancedChainBuilder` and simulates the subset's
chain through the trie.  The I_0 and I_1 searches share one trie — the node
structure is common; only the per-configuration caches differ.  DAG growth
only changes a subset's chain past the point its builder rewound to, so the
engine keeps one walk per (subset, configuration, target) and starts the
next descent of that chain there: ``simulate`` is the descent from depth 0
with a fresh walk, and an engine query walks only the part of its chain
that changed since the last.  The builder also says where its next rewind
lands (:meth:`~repro.core.dag.BalancedChainBuilder.frozen`); the walk's
base waits there, so a query whose chain was rewound below the tip resumes
from the base instead of the root.

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
    are cached steps a simulator re-applied (no delivery search), moving a
    walk's base included; ``steps_from_cache`` were served without touching
    a simulator at all.  Per query the three sum to the depth the descent
    reached, as if it had started at the root.  ``known_failure_hits`` are
    whole queries answered negatively from cached decision deltas;
    ``subsets_tried`` counts the candidate subsets whose chain the engine
    built.  ``snapshots_stored`` counts simulators forked to become a
    walk's base, ``snapshot_restores`` descents that resumed from a walk's
    tip or base rather than from a fresh simulator.
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


class _Node:
    """One interned prefix.  Per-configuration caches are keyed by the
    small integers handed out by :meth:`SimulationTrie.config_index`."""

    __slots__ = ("children", "steps", "dstep")

    def __init__(self) -> None:
        self.children: Dict[SampleKey, "_Node"] = {}
        self.steps: Dict[int, Step] = {}
        self.dstep: Dict[int, Tuple[int, Any]] = {}


class _Walk:
    """Where one descent (one configuration, one target) stopped.

    ``nodes[i]`` is the trie node at depth ``i`` (the root first), so the
    walk reached depth ``len(nodes) - 1``; ``deltas`` lists the
    ``(depth, pid, value)`` decisions met on the way, by depth.  ``tip``
    and ``base`` are ``(node, simulator)`` pairs or ``None``: the tip
    simulator stands at the node where the last simulating descent
    stopped, the base at the chain's frozen prefix.  A simulator's depth
    is its ``steps_applied``.  They are the only simulators the trie's
    descents keep, so a walk holds at most two.
    """

    __slots__ = ("nodes", "deltas", "tip", "base")

    def __init__(self, root: _Node) -> None:
        self.nodes: List[_Node] = [root]
        self.deltas: List[Tuple[int, int, Any]] = []
        self.tip: Optional[Tuple[_Node, PureSystemSimulator]] = None
        self.base: Optional[Tuple[_Node, PureSystemSimulator]] = None


class SimulationTrie:
    """Per-(automaton, n) prefix tree of cached simulations.

    One trie serves every initial configuration of the automaton — register
    each with :meth:`config_index`; the structure (nodes, children) is
    shared, the step and decision caches are per configuration.
    """

    def __init__(self, automaton: Automaton, n: int):
        self.automaton = automaton
        self.n = n
        self.root = _Node()
        self.counters = TrieCounters()
        self._configs: Dict[Tuple[Any, ...], int] = {}
        self._proposals: List[Dict[int, Any]] = []
        self._root_decided: List[Dict[int, Any]] = []

    def config_index(self, proposals: Mapping[int, Any]) -> int:
        """Intern an initial configuration; returns its small index."""
        key = tuple(proposals.get(p) for p in range(self.n))
        got = self._configs.get(key)
        if got is not None:
            return got
        index = len(self._root_decided)
        self._configs[key] = index
        self._proposals.append(dict(proposals))
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
        walk = _Walk(self.root)
        decided_at = self._descend(cfg, path, target, walk, 0, 0)
        return self._simulation(cfg, path, walk, decided_at)

    def _decided(self, cfg: int, walk: _Walk) -> Dict[int, Any]:
        decided = dict(self._root_decided[cfg])
        for _depth, pid, value in walk.deltas:
            decided[pid] = value
        return decided

    def _simulation(
        self,
        cfg: int,
        path: Sequence[Sample],
        walk: _Walk,
        decided_at: Optional[int],
    ) -> PathSimulation:
        """The :class:`PathSimulation` of ``path`` as far as ``walk`` got."""
        depth = len(walk.nodes) - 1
        return PathSimulation(
            schedule=Schedule([node.steps[cfg] for node in walk.nodes[1:]]),
            path=tuple(path[:depth]),
            participants=frozenset(s.pid for s in path[:depth]),
            decisions=self._decided(cfg, walk),
            target_decided_at=decided_at,
        )

    def _descend(
        self,
        cfg: int,
        path: Sequence[Sample],
        target: Optional[int],
        walk: _Walk,
        start: int,
        frozen: int,
    ) -> Optional[int]:
        """The one descent: walk ``path`` until it ends or ``target`` decides.

        ``walk`` must hold this configuration's last walk toward ``target``
        along a path whose first ``start`` samples equal ``path``'s (so it
        stopped at or past depth ``start``, and at the target's decision at
        the latest).  The descent keeps those nodes, resumes at depth
        ``start`` and leaves ``walk`` where it stops.  ``frozen`` is the
        depth of the prefix the path keeps through its next change; the
        walk's base moves there when a simulator passes it (0: no base).
        Returns the depth at which ``target`` decided, or ``None``.  The
        counters read as if the descent had started at the root.
        """
        c = self.counters
        c.queries += 1
        nodes = walk.nodes
        deltas = walk.deltas
        del nodes[start + 1 :]
        while deltas and deltas[-1][0] > start:
            deltas.pop()
        decided = self._decided(cfg, walk)
        decided_at: Optional[int] = None
        node = nodes[start]
        i = start

        # Phase 1: descend the cached prefix — no simulator needed.
        while True:
            if i > 0 and target is not None and target in decided:
                decided_at = i
                break
            if i == len(path):
                break
            child = node.children.get(path[i].key)
            if child is None or cfg not in child.steps:
                break
            i += 1
            nodes.append(child)
            node = child
            delta = child.dstep.get(cfg)
            if delta is not None:
                decided[delta[0]] = delta[1]
                deltas.append((i, delta[0], delta[1]))

        if decided_at is not None or i == len(path):
            # Served for free.  A whole chain without a target decision is
            # the known-failure fast path (Sch-monotone: no prefix of a
            # non-deciding chain decides either).
            c.cached_results += 1
            c.steps_from_cache += i
            if target is not None and decided_at is None:
                c.known_failure_hits += 1
            return decided_at

        # Phase 2: restore a simulator on the walked path — the walk's tip,
        # in place; else a fork of its base, first brought up to the frozen
        # prefix; else a fresh one at the root — and replay cached steps.
        tip, base = walk.tip, walk.base
        replayed = 0
        if tip is not None and _on_path(nodes, i, tip):
            sim = tip[1]
            c.snapshot_restores += 1
        elif base is not None and _on_path(nodes, i, base):
            held = base[1]
            for j in range(held.steps_applied, min(frozen, i)):
                held.apply_step(nodes[j + 1].steps[cfg], time=j)
                replayed += 1
            walk.base = (nodes[held.steps_applied], held)
            sim = held.fork()
            c.snapshot_restores += 1
        else:
            sim = PureSystemSimulator(self.automaton, self.n, self._proposals[cfg])
        for j in range(sim.steps_applied, i):
            sim.apply_step(nodes[j + 1].steps[cfg], time=j)
            replayed += 1
            if j + 1 == frozen:
                walk.base = (nodes[frozen], sim.fork())
                c.snapshots_stored += 1
        c.steps_replayed += replayed
        c.steps_from_cache += i - replayed
        if i > 0:
            c.prefix_hits += 1

        # Phase 3: simulate the new suffix, growing the trie as we go.
        while i < len(path):
            sample = path[i]
            uid = sim.oldest_pending_uid(sample.pid)
            step = Step(pid=sample.pid, msg_uid=uid, detector_value=sample.d)
            sim.apply_step(step, time=i)
            child = node.children.get(sample.key)
            if child is None:
                child = node.children[sample.key] = _Node()
                c.nodes_created += 1
            child.steps[cfg] = step
            i += 1
            if sample.pid not in decided:
                value = sim.decision(sample.pid)
                if value is not None:
                    decided[sample.pid] = value
                    child.dstep[cfg] = (sample.pid, value)
                    deltas.append((i, sample.pid, value))
            nodes.append(child)
            node = child
            c.steps_simulated += 1
            if target is not None and target in decided:
                decided_at = i
                break
            if i == frozen:
                walk.base = (child, sim.fork())
                c.snapshots_stored += 1

        # The stepping simulator is the walk's new tip, un-forked: nothing
        # steps it until the walk's next descent takes it back.
        walk.tip = (node, sim)
        return decided_at


def _on_path(
    nodes: Sequence[_Node],
    depth: int,
    held: Tuple[_Node, PureSystemSimulator],
) -> bool:
    """Whether ``held`` stands on ``nodes`` at or above ``depth``."""
    at = held[1].steps_applied
    return at <= depth and nodes[at] is held[0]


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

    Per (subset, configuration, target) the engine also keeps a walk: the
    trie nodes its last query walked and its two simulators.  Between two
    queries the chain changes only past the prefix its builder reports as
    preserved, so the next query resumes the descent there instead of at
    the root: a query walks only the part of the chain that changed since
    the last one.  The walk's base waits at the builder's frozen prefix,
    where that change will start.
    """

    def __init__(self, automaton: Automaton, n: int):
        self.trie = SimulationTrie(automaton, n)
        self._barrier_key: Optional[SampleKey] = None
        self._chains: Dict[FrozenSet[int], BalancedChainBuilder] = {}
        self._walks: Dict[Tuple[FrozenSet[int], Tuple[int, int]], _Walk] = {}
        # The fresh samples fed so far under this barrier, per pid by k.
        self._by_pid: Dict[int, List[Sample]] = {}
        self._fed = 0

    @property
    def counters(self) -> TrieCounters:
        return self.trie.counters

    def _ingest(
        self, fresh_nodes: Sequence[Sample], barrier_key: Optional[SampleKey]
    ) -> Dict[int, List[Sample]]:
        if barrier_key != self._barrier_key:
            self._barrier_key = barrier_key
            self._chains.clear()
            self._walks.clear()
            self._by_pid = {}
            self._fed = 0
        if len(fresh_nodes) < self._fed:
            raise ValueError("fresh samples shrank under a fixed barrier")
        by_pid = self._by_pid
        for s in fresh_nodes[self._fed :]:
            bucket = by_pid.get(s.pid)
            if bucket is None:
                by_pid[s.pid] = [s]
            elif s.k > bucket[-1].k:
                bucket.append(s)
            else:
                raise ValueError(f"sample {s.key} arrived out of k order")
        self._fed = len(fresh_nodes)
        return by_pid

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

        Under a fixed ``barrier``, ``fresh_nodes`` must extend the list of
        the previous call, each process's samples in ascending ``k`` (as
        a growing DAG appends them).
        """
        by_pid = self._ingest(
            fresh_nodes, barrier.key if barrier is not None else None
        )
        if target not in by_pid:
            return None
        present = sorted(by_pid)
        if minimize_participants:
            subsets = _subsets_containing(present, target, max_subset_size)
        else:
            counts = {pid: len(bucket) for pid, bucket in by_pid.items()}
            subsets = [_capped_subset(present, target, counts, max_subset_size)]

        trie = self.trie
        cfg = trie.config_index(proposals)
        reader = (cfg, target)
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
            walk = self._walks.get((subset, reader))
            if walk is None:
                walk = self._walks[(subset, reader)] = _Walk(trie.root)
            start = min(builder.preserved(reader), len(walk.nodes) - 1, len(chain))
            frozen = min(builder.frozen(), len(chain))
            decided_at = trie._descend(cfg, chain, target, walk, start, frozen)
            if decided_at is not None:
                return trie._simulation(cfg, chain, walk, decided_at)
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
