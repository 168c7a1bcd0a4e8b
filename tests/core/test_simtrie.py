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

import random

import pytest

from repro.consensus.quorum_mr import QuorumMR
from repro.core.dag import BalancedChainBuilder, Sample, SampleDAG, balanced_chain
from repro.core.extraction import SigmaNuExtractor
from repro.core.simtrie import IncrementalExtractionEngine, SimulationTrie
from repro.detectors import Omega, PairedDetector, Sigma
from repro.detectors.base import sample_history_cached
from repro.kernel.failures import FailurePattern
from repro.kernel.messages import CoalescingDelivery
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
    history = sample_history_cached(detector, pattern, seed)
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
