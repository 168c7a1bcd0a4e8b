"""The incremental simulation trie is an *optimization*, not a semantics
change: every result must be bit-identical to the from-scratch search.

The tests here are oracle tests — trie-backed simulation against
:func:`canonical_schedule`, the incremental engine against
:func:`find_deciding_schedule` (both from-scratch references live in
``tests/core/reference_search.py``), full extraction runs against a
test-local extractor that searches from scratch — plus the soundness property behind
cache invalidation: after a barrier refresh (Fig. 2 lines 17-19), every
output quorum is justified by post-barrier samples only (no stale cached
schedule leaks).
"""

import gc
import random

import pytest

from repro.consensus.quorum_mr import QuorumMR
from repro.core.dag import BalancedChainBuilder, Sample, SampleDAG, balanced_chain
from repro.core.extraction import SigmaNuExtractor
from repro.core import simtrie
from repro.core.simtrie import IncrementalExtractionEngine, SimulationTrie, _Walk
from repro.detectors import Omega, PairedDetector, Sigma
from repro.detectors.base import sample_run_history
from repro.harness.runner import random_pattern, run_extraction
from repro.kernel.failures import FailurePattern
from repro.kernel.messages import CoalescingDelivery
from repro.kernel.runs import PureSystemSimulator
from repro.kernel.system import System
from tests.core.reference_search import canonical_schedule, find_deciding_schedule


def random_dag_samples(rng, n, total, quorum=None):
    """Samples in creation order with ancestor-closed frontiers."""
    counts = [0] * n
    out = []
    for t in range(total):
        pid = rng.randrange(n)
        counts[pid] += 1
        if quorum is None:
            d = rng.randrange(3)
        else:
            d = (pid % n, frozenset(quorum))
        out.append(
            Sample(
                pid=pid,
                k=counts[pid],
                d=d,
                frontier=tuple(
                    counts[q] if q != pid else counts[q] - 1 for q in range(n)
                ),
                t=t,
            )
        )
    return out


def assert_each_step_simulated_once(counters):
    """The trie's guarantee: a (node, initial configuration) step is
    simulated at most once, and the engine searches two configurations."""
    assert counters.steps_simulated <= 2 * counters.nodes_created, counters


def sims_equal(a, b):
    if (a is None) != (b is None):
        return False
    if a is None:
        return True
    return (
        a.schedule.steps == b.schedule.steps
        and a.path == b.path
        and a.participants == b.participants
        and a.decisions == b.decisions
        and a.target_decided_at == b.target_decided_at
    )


class TestBalancedChainBuilder:
    def test_matches_balanced_chain_under_incremental_feeding(self):
        for trial in range(120):
            rng = random.Random(trial)
            n = rng.randint(2, 5)
            samples = random_dag_samples(rng, n, rng.randint(5, 50))
            builder = BalancedChainBuilder()
            fed = []
            i = 0
            while i < len(samples):
                batch = samples[i : i + rng.randint(1, 7)]
                i += len(batch)
                fed.extend(batch)
                if rng.random() < 0.5:
                    builder.extend(batch)
                else:
                    groups = {}
                    for s in fed:
                        groups.setdefault(s.pid, []).append(s)
                    for lst in groups.values():
                        lst.sort(key=lambda s: s.k)
                    builder.extend_grouped(groups)
                assert list(builder.chain()) == balanced_chain(fed), (
                    trial,
                    i,
                )

    def test_preserved_prefix_is_unchanged_since_each_read(self):
        """``preserved(reader)`` never overstates: the prefix it reports is
        the one that reader saw, through rewinds and new-pid resets."""
        rewound_below_tip = resumed = 0
        for trial in range(60):
            rng = random.Random(trial)
            n = rng.randint(2, 5)
            samples = random_dag_samples(rng, n, rng.randint(10, 60))
            builder = BalancedChainBuilder()
            seen = {"a": [], "b": []}
            i = 0
            while i < len(samples):
                batch = samples[i : i + rng.randint(1, 6)]
                i += len(batch)
                builder.extend(batch)
                for reader in seen:
                    if rng.random() < 0.3:
                        continue  # this reader skips a read
                    kept = builder.preserved(reader)
                    chain = list(builder.chain())
                    before = seen[reader]
                    assert kept <= min(len(before), len(chain)), trial
                    assert chain[:kept] == before[:kept], (trial, reader)
                    resumed += kept > 0
                    rewound_below_tip += 0 < kept < len(before)
                    seen[reader] = chain
        assert resumed and rewound_below_tip

    def test_new_pid_resets_preserved_prefix(self):
        rng = random.Random(5)
        samples = [s for s in random_dag_samples(rng, 3, 30)]
        builder = BalancedChainBuilder()
        builder.extend([s for s in samples[:20] if s.pid != 2])
        assert builder.preserved("r") == 0  # first read
        assert builder.preserved("r") == len(builder.chain())  # nothing fed
        builder.extend([s for s in samples if s.pid == 2])
        assert builder.pid_count(2) > 0
        assert builder.preserved("r") == 0

    def test_pid_count_tracks_chain(self):
        rng = random.Random(3)
        samples = random_dag_samples(rng, 4, 40)
        builder = BalancedChainBuilder()
        builder.extend(samples)
        chain = list(builder.chain())
        for pid in range(4):
            assert builder.pid_count(pid) == sum(
                1 for s in chain if s.pid == pid
            )


class TestSimulationTrieOracle:
    def test_simulate_equals_canonical_schedule(self):
        """Field-by-field equality on prefixes, re-queries and extensions —
        cached replays must reproduce Lemma 4.10's schedule exactly."""
        for trial in range(25):
            rng = random.Random(trial)
            n = rng.randint(3, 5)
            quorum = sorted(rng.sample(range(n), rng.randint(2, n)))
            samples = random_dag_samples(rng, n, 60, quorum)
            chain = balanced_chain(samples)
            trie = SimulationTrie(QuorumMR(), n)
            proposals = {p: trial % 2 for p in range(n)}
            target = rng.randrange(n)
            for length in (
                len(chain) // 3,
                len(chain) // 3,  # exact re-query: fully cached path
                2 * len(chain) // 3,
                len(chain),
            ):
                want = canonical_schedule(
                    QuorumMR(), n, proposals, chain[:length], target
                )
                got = trie.simulate(proposals, chain[:length], target)
                assert sims_equal(want, got), (trial, length)
        assert trie.counters.steps_from_cache > 0

    def test_shared_trie_across_configurations(self):
        rng = random.Random(11)
        n = 4
        samples = random_dag_samples(rng, n, 50, quorum=[0, 1, 2, 3])
        chain = balanced_chain(samples)
        trie = SimulationTrie(QuorumMR(), n)
        for value in (0, 1):
            proposals = {p: value for p in range(n)}
            want = canonical_schedule(QuorumMR(), n, proposals, chain, 0)
            got = trie.simulate(proposals, chain, 0)
            assert sims_equal(want, got)
        # The second configuration walked the same interned nodes.
        assert trie.counters.nodes_created <= len(chain)


class TestIncrementalEngineOracle:
    @pytest.mark.parametrize("trial", range(12))
    def test_engine_equals_from_scratch_search(self, trial):
        rng = random.Random(trial)
        n = rng.randint(3, 5)
        quorum = sorted(rng.sample(range(n), rng.randint(2, n)))
        samples = random_dag_samples(rng, n, 100, quorum)
        target = rng.randrange(n)
        engine = IncrementalExtractionEngine(QuorumMR(), n)
        barrier = samples[0]
        fresh = []
        i = 0
        tick = 0
        while i < len(samples):
            step = rng.randint(3, 15)
            fresh.extend(samples[i : i + step])
            i += step
            tick += 1
            if tick % 5 == 4 and i < len(samples):
                barrier = samples[min(i, len(samples) - 1)]
                fresh = []
                continue
            for value in (0, 1):
                proposals = {p: value for p in range(n)}
                minimize = rng.random() < 0.8
                cap = rng.choice([None, None, 2, 3])
                got = engine.find_deciding_schedule(
                    proposals,
                    fresh,
                    target,
                    barrier=barrier,
                    max_path_len=200,
                    minimize_participants=minimize,
                    max_subset_size=cap,
                )
                want = find_deciding_schedule(
                    QuorumMR(),
                    n,
                    proposals,
                    fresh,
                    target=target,
                    max_path_len=200,
                    minimize_participants=minimize,
                    max_subset_size=cap,
                )
                assert sims_equal(got, want), (tick, minimize, cap)
        assert_each_step_simulated_once(engine.counters)


class _CountingChildren(dict):
    """A ``_Node.children`` map that counts the descent's lookups."""

    gets = 0

    def get(self, key, default=None):
        _CountingChildren.gets += 1
        return super().get(key, default)


class _CountingNode(simtrie._Node):
    def __init__(self):
        super().__init__()
        self.children = _CountingChildren()


class TestDescentResumesAtPreservedPrefix:
    """A query walks the trie only past the prefix of its chain that the
    builder kept since the last query — not again from the root."""

    def test_each_query_starts_at_the_rewind_point(self, monkeypatch):
        monkeypatch.setattr(simtrie, "_Node", _CountingNode)
        n, target = 3, 0
        rng = random.Random(7)
        samples = random_dag_samples(rng, n, 120, quorum=[0, 1, 2])
        proposals = {p: 0 for p in range(n)}
        engine = IncrementalExtractionEngine(QuorumMR(), n)
        # The engine's one subset is every process present, so its chain is
        # the balanced chain of all fresh samples; a second builder fed the
        # same samples says where that chain was rewound to.
        mirror = BalancedChainBuilder()
        barrier, fresh = samples[0], []
        depth = 0  # where the last query's descent stopped
        starts = []
        i = 0
        for tick in range(40):
            if i >= len(samples):
                break
            if tick == 25:  # barrier move: every chain starts over
                barrier, fresh = samples[i], []
                mirror, depth = BalancedChainBuilder(), 0
            batch = samples[i : i + rng.randint(2, 5)]
            i += len(batch)
            fresh.extend(batch)
            mirror.extend(batch)
            chain = mirror.chain()
            start = min(mirror.preserved("I0"), depth, len(chain))
            _CountingChildren.gets = 0
            got = engine.find_deciding_schedule(
                proposals, fresh, target, barrier=barrier,
                minimize_participants=False,
            )
            want = find_deciding_schedule(
                QuorumMR(), n, proposals, fresh, target=target,
                minimize_participants=False,
            )
            assert sims_equal(got, want), tick
            depth = got.target_decided_at if got is not None else len(chain)
            # One lookup per level walked, plus one for a cache miss.
            assert max(0, depth - start) <= _CountingChildren.gets, tick
            assert _CountingChildren.gets <= depth - start + 1, tick
            starts.append((tick, start, len(chain)))
        resumed = [t for t, start, _ in starts if start > 0]
        assert resumed and min(resumed) < 25 < max(resumed)
        # Some query resumed strictly inside the last chain (a rewind below
        # its tip), and the first query after the barrier moved started at
        # the root.
        assert any(0 < start < prev for (_, start, _), (_, _, prev)
                   in zip(starts[1:], starts))
        assert dict((t, start) for t, start, _ in starts)[25] == 0


class _OneSubset:
    """One subset's chain, queried the way the engine queries it: one
    builder and one walk; each descent resumes at ``min(preserved,
    walked, len(chain))`` and keeps the walk's base at the builder's
    frozen prefix."""

    def __init__(self, trie, proposals, target):
        self.trie = trie
        self.proposals = proposals
        self.cfg = trie.config_index(proposals)
        self.target = target
        self.builder = BalancedChainBuilder()
        self.walk = _Walk(trie.root)

    def query(self, batch):
        """Feed ``batch``, descend the chain; returns how the descent got
        its simulator and whether it equals the from-scratch simulation."""
        builder, walk, trie = self.builder, self.walk, self.trie
        builder.extend(batch)
        chain = list(builder.chain())
        start = min(builder.preserved("r"), len(walk.nodes) - 1, len(chain))
        frozen = min(builder.frozen(), len(chain))
        tip = walk.tip[1] if walk.tip is not None else None
        before = trie.counters.as_dict()
        at = trie._descend(self.cfg, chain, self.target, walk, start, frozen)
        after = trie.counters.as_dict()
        if after["cached_results"] > before["cached_results"]:
            how = "cache"
        elif walk.tip[1] is tip:
            how = "tip"
        elif after["snapshot_restores"] > before["snapshot_restores"]:
            how = "base"
        else:
            how = "root"
        want = canonical_schedule(
            trie.automaton, trie.n, self.proposals, chain, self.target
        )
        got = trie._simulation(self.cfg, chain, walk, at)
        return how, sims_equal(got, want)


def _sample(pid, k, *frontier):
    # Leader 2 and a quorum of everyone: nobody decides before p2 steps.
    return Sample(pid=pid, k=k, d=(2, frozenset({0, 1, 2})), frontier=frontier)


class TestWalkRestorePaths:
    """A descent takes the walk's tip in place while its chain still passes
    the tip's node, else forks the walk's base, else starts at the root."""

    def test_extend_rewind_extend_reset_barrier_move(self):
        trie = SimulationTrie(QuorumMR(), 3)
        proposals = {p: 0 for p in range(3)}
        subset = _OneSubset(trie, proposals, target=0)
        first = [
            _sample(0, 1, 0, 0, 0), _sample(1, 1, 1, 0, 0),
            _sample(0, 2, 1, 1, 0), _sample(0, 3, 2, 1, 0),
        ]
        extend = [_sample(0, 4, 3, 1, 0)]
        # p1's next sample takes depth 4 from p0#3, below the tip at 5.
        rewind = [
            _sample(1, 2, 2, 1, 0), _sample(0, 5, 4, 2, 0),
            _sample(1, 3, 5, 2, 0), _sample(0, 6, 5, 3, 0),
            _sample(1, 4, 6, 3, 0),
        ]
        # p1 runs out after its first sample: the builder freezes the
        # chain's first two samples, where the base waits.
        assert subset.query(first) == ("root", True)
        assert subset.query(extend) == ("tip", True)
        # Another walk caches the rewound chain to depth 6, past the tip's
        # depth, so only node identity tells the tip is off the path.
        other = _OneSubset(trie, proposals, target=0)
        assert other.query(first + extend + rewind[:3]) == ("root", True)
        assert subset.query(rewind) == ("base", True)
        assert subset.query(
            [_sample(0, 7, 7, 4, 0), _sample(1, 5, 8, 4, 0)]
        ) == ("tip", True)
        # p2's first sample fits at depth 3: the builder starts over.
        assert subset.query([_sample(2, 1, 1, 1, 0)]) == ("root", True)
        assert subset.walk.base[1].steps_applied == subset.builder.frozen()
        # A barrier move drops builders and walks; the first query of the
        # fresh subset starts at the root.
        subset = _OneSubset(trie, proposals, target=0)
        assert subset.query(
            [_sample(0, 2, 1, 1, 0), _sample(1, 2, 2, 1, 0)]
        ) == ("root", True)

    @pytest.mark.parametrize("trial", range(4))
    def test_crashed_pid_pins_the_base(self, trial):
        """p2 stops sampling: the builder's checkpoint, so the walk's base,
        stays where p2's last sample entered the chain, and every later
        rewind resumes from the tip or that base."""
        rng = random.Random(trial)
        n, crash = 3, 10
        samples = [
            s for s in random_dag_samples(rng, n, 120, quorum=[0, 1])
            if s.pid != 2 or s.t < crash
        ]
        trie = SimulationTrie(QuorumMR(), n)
        subset = _OneSubset(trie, {p: trial % 2 for p in range(n)}, target=0)
        seen, frozen = [], []
        i = 0
        while i < len(samples):
            batch = samples[i : i + rng.randint(2, 5)]
            i += len(batch)
            how, equal = subset.query(batch)
            assert equal, i
            seen.append(how)
            if all(s.t >= crash for s in batch):
                frozen.append(subset.builder.frozen())
        assert len(set(frozen)) == 1, frozen
        assert {"tip", "base"} <= set(seen), seen


def live_simulators():
    gc.collect()
    return sum(isinstance(obj, PureSystemSimulator) for obj in gc.get_objects())


class TestPinnedEngineWork:
    def test_ledger_trial_3_counters(self):
        """The engine's full work ledger on the extract_trie benchmark's
        trial-3 case (one output per process).  Resuming descents changes
        what a query walks, never what it counts."""
        pattern = random_pattern(5, random.Random(3), max_faulty=2)
        outcome = run_extraction(
            QuorumMR(),
            PairedDetector(Omega(), Sigma("pivot")),
            pattern,
            seed=3,
            max_steps=2500,
            min_outputs=1,
            trace="metrics",
        )
        counters = outcome.search_counters
        assert counters == {
            "queries": 1246,
            "prefix_hits": 1106,
            "cached_results": 130,
            "known_failure_hits": 130,
            "steps_simulated": 3346,
            "steps_replayed": 694,
            "steps_from_cache": 7660,
            "subsets_tried": 1246,
            "snapshots_stored": 672,
            "snapshot_restores": 956,
            "nodes_created": 1673,
        }
        # Every step a query asks for is simulated, replayed by a simulator
        # (moving a base included) or served from the cache — exactly one.
        assert (
            counters["steps_simulated"]
            + counters["steps_replayed"]
            + counters["steps_from_cache"]
        ) == 11700

    def test_simulators_live_in_walks_only(self, monkeypatch):
        """The memory bound is structural: after the trial-3 case no trie
        node holds a simulator, no walk holds more than two, and those are
        all the simulators left alive."""
        engines = []
        init = IncrementalExtractionEngine.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            engines.append(self)

        monkeypatch.setattr(IncrementalExtractionEngine, "__init__", recording_init)
        before = live_simulators()
        pattern = random_pattern(5, random.Random(3), max_faulty=2)
        run_extraction(
            QuorumMR(),
            PairedDetector(Omega(), Sigma("pivot")),
            pattern,
            seed=3,
            max_steps=2500,
            min_outputs=1,
            trace="metrics",
        )
        assert len(engines) == 5
        walks = held = 0
        for engine in engines:
            stack = [engine.trie.root]
            while stack:
                node = stack.pop()
                for slot in simtrie._Node.__slots__:
                    value = getattr(node, slot)
                    assert not any(
                        isinstance(v, PureSystemSimulator) for v in value.values()
                    ), slot
                stack.extend(node.children.values())
            for walk in engine._walks.values():
                sims = [
                    pair[1]
                    for pair in (walk.tip, walk.base)
                    if pair is not None
                ]
                assert all(isinstance(s, PureSystemSimulator) for s in sims)
                walks += 1
                held += len(sims)
        assert walks and held
        assert live_simulators() - before == held <= 2 * walks


class TestEngineAcrossTargets:
    @pytest.mark.parametrize("trial", range(4))
    def test_one_engine_many_targets(self, trial):
        """Walks kept for one target never answer another's query."""
        rng = random.Random(100 + trial)
        n = 3
        # A common leader, so processes decide and their walks stop there.
        samples = [
            s._replace(d=(0, frozenset({0, 1})))
            for s in random_dag_samples(rng, n, 120)
        ]
        engine = IncrementalExtractionEngine(QuorumMR(), n)
        proposals = {p: trial % 2 for p in range(n)}
        fresh = []
        decided = 0
        for i in range(0, len(samples), 4):
            fresh.extend(samples[i : i + 4])
            for target in range(n):
                # One chain (every process) and one configuration, so the
                # targets' searches meet on the same trie path.
                got = engine.find_deciding_schedule(
                    proposals, fresh, target, barrier=samples[0],
                    minimize_participants=False,
                )
                want = find_deciding_schedule(
                    QuorumMR(), n, proposals, fresh, target=target,
                    minimize_participants=False,
                )
                assert sims_equal(got, want), (i, target)
                decided += got is not None
        assert decided

class ScratchExtractor(SigmaNuExtractor):
    """The oracle side: every search from scratch, the trie never asked."""

    def _find_impl(self, proposals, fresh, target, barrier):
        search = self.search
        return find_deciding_schedule(
            self.subject,
            self.n,
            proposals,
            fresh,
            target=target,
            max_path_len=search.max_path_len,
            minimize_participants=search.minimize_participants,
            max_subset_size=search.max_subset_size,
        )


def run_extractors(pattern, seed, extractor=SigmaNuExtractor, max_steps=1200):
    detector = PairedDetector(Omega(), Sigma("pivot"))
    history = sample_run_history(detector, pattern, seed)
    processes = {
        p: extractor(QuorumMR(), pattern.n) for p in range(pattern.n)
    }
    system = System(
        processes,
        pattern,
        history,
        seed=seed,
        delivery=CoalescingDelivery(),
        trace="metrics",
    )
    result = system.run(
        max_steps=max_steps,
        stop_when=lambda s: s.correct_output_count(2),
        extra_steps=100,
    )
    return result, processes


def evidence_key(processes):
    out = []
    for p in sorted(processes):
        for e in processes[p].evidence:
            out.append(
                (
                    p,
                    e.quorum,
                    e.barrier.key,
                    tuple(s.key for s in e.sim0.path),
                    tuple(s.key for s in e.sim1.path),
                    tuple(e.sim0.schedule.steps),
                    tuple(e.sim1.schedule.steps),
                )
            )
    return out


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_outputs_and_evidence_with_and_without_trie(self, seed):
        rng = random.Random(seed)
        n = 4
        crashed = rng.sample(range(n), rng.randint(0, 2))
        pattern = FailurePattern(
            n, {p: rng.randint(0, 40) for p in crashed}
        )
        result_a, procs_a = run_extractors(pattern, seed, ScratchExtractor)
        result_b, procs_b = run_extractors(pattern, seed)
        assert result_a.outputs == result_b.outputs
        assert evidence_key(procs_a) == evidence_key(procs_b)
        for proc in procs_b.values():
            assert_each_step_simulated_once(proc.engine.counters)

    def test_counters_report_cache_work(self):
        pattern = FailurePattern(4, {})
        _, procs = run_extractors(pattern, seed=5)
        counters = procs[0].search_counters()
        assert counters is not None
        assert counters["queries"] > 0
        # The engine must have served at least some work from its caches.
        assert (
            counters["steps_from_cache"]
            + counters["steps_replayed"]
            + counters["known_failure_hits"]
        ) > 0

    def test_from_scratch_path_reports_no_counters(self):
        # Guards the oracle itself: its scratch side never touched the trie.
        pattern = FailurePattern(3, {})
        _, procs = run_extractors(pattern, 5, ScratchExtractor)
        assert not any(procs[0].search_counters().values())


class TestBarrierRefreshInvalidation:
    """Satellite: Fig. 2 lines 17-19 must not serve stale schedules.

    Every quorum output after a barrier refresh is backed by two deciding
    simulations whose paths consist solely of samples at-or-above the
    barrier recorded in the evidence — i.e. the cached trie state never
    leaks a pre-refresh schedule into a post-refresh output.
    """

    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_every_evidence_path_is_post_barrier(self, seed):
        rng = random.Random(seed * 13 + 1)
        n = 4
        crashed = rng.sample(range(n), rng.randint(0, 2))
        pattern = FailurePattern(
            n, {p: rng.randint(0, 40) for p in crashed}
        )
        _, procs = run_extractors(pattern, seed, max_steps=2000)
        refreshed = 0
        for p, proc in procs.items():
            for idx, e in enumerate(proc.evidence):
                if idx > 0:
                    refreshed += 1
                for sim in (e.sim0, e.sim1):
                    for s in sim.path:
                        assert s.key == e.barrier.key or SampleDAG.is_ancestor(
                            e.barrier, s
                        ), (p, idx, s)
        # At least one process must have output twice for the check to bite
        # (the run asks for 2 outputs per correct process).
        assert refreshed > 0
