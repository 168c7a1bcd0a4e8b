"""A_nuc (Figs. 4-5, Theorem 6.27): sweeps + the hardening mechanisms."""

import random

import pytest

from repro.consensus import check_nonuniform_consensus, consensus_outcome
from repro.core.nuc import AnucAutomaton, distrusts, snapshot_history
from repro.detectors import Omega, PairedDetector, SigmaNuPlus
from repro.kernel.automaton import AutomatonProcess
from repro.kernel.failures import FailurePattern
from repro.kernel.scheduler import WeightedScheduler
from repro.kernel.system import System
from tests.core.reference_nuc import considers_faulty


def anuc_processes(proposals):
    automaton = AnucAutomaton()
    return {p: AutomatonProcess(automaton, v) for p, v in proposals.items()}


def run_anuc(pattern, proposals, seed=0, max_steps=30000, **kwargs):
    detector = PairedDetector(Omega(), SigmaNuPlus())
    history = detector.sample_history(pattern, random.Random(seed + 999))
    processes = anuc_processes(proposals)
    system = System(processes, pattern, history, seed=seed, **kwargs)
    result = system.run(
        max_steps=max_steps, stop_when=lambda s: s.all_correct_decided()
    )
    return result, processes


class TestDistrustFunction:
    def test_empty_histories_distrust_nobody(self):
        history = {p: set() for p in range(3)}
        assert not distrusts(history, 0, 1, 3)

    def test_disjoint_from_own_quorum_means_considered_faulty(self):
        history = {
            0: {frozenset({0, 1})},
            1: set(),
            2: {frozenset({2})},
        }
        assert considers_faulty(history, 0) == {2}

    def test_self_never_considered_faulty_with_self_inclusive_quorums(self):
        """Lemma 6.20 under self-inclusion."""
        history = {0: {frozenset({0}), frozenset({0, 1})}, 1: set(), 2: set()}
        assert 0 not in considers_faulty(history, 0)

    def test_distrust_via_third_party(self):
        """p distrusts q when a *non-faulty-looking* r has a quorum disjoint
        from q's — even if p's own quorums intersect q's."""
        history = {
            0: {frozenset({0, 1, 2})},
            1: {frozenset({0, 1})},
            2: {frozenset({2})},  # intersects 0's quorum, misses 1's
        }
        assert not considers_faulty(history, 0)
        assert distrusts(history, 0, 2, 3)

    def test_no_distrust_when_witness_considered_faulty(self):
        """If the only disjointness witness is itself considered faulty,
        q is not distrusted (the F_p filter of line 53)."""
        history = {
            0: {frozenset({0, 1})},
            1: {frozenset({0, 1})},
            2: {frozenset({2})},  # considered faulty by 0
            3: {frozenset({2, 3})},  # disjoint only from 2's quorums? no:
        }
        # {2,3} vs {0,1} is disjoint, and 3 is not in F_0... build carefully:
        history = {
            0: {frozenset({0, 1})},
            1: set(),
            2: {frozenset({2})},       # 2 in F_0 ({2} misses {0,1})
            3: {frozenset({2, 3})},    # {2,3} misses {0,1} => 3 in F_0 too
        }
        faulty = considers_faulty(history, 0)
        assert faulty == {2, 3}
        # q=2's quorums are disjoint from 3's? {2} vs {2,3} intersect; the
        # only disjointness witnesses for q=2 are 0 itself (not faulty) via
        # {0,1}: so 2 IS distrusted.
        assert distrusts(history, 0, 2, 4)
        # but if we drop 0's own quorums nobody is distrusted:
        history[0] = set()
        assert not distrusts(history, 0, 2, 4)

    def test_snapshot_history_immutable_copy(self):
        history = {0: {frozenset({0})}, 1: set()}
        snap = snapshot_history(history)
        history[0].add(frozenset({0, 1}))
        assert snap[0] == frozenset({frozenset({0})})
        assert 1 not in snap  # empty entries dropped


@pytest.mark.parametrize("seed", range(6))
class TestAnucSweep:
    def test_nonuniform_consensus_any_environment(self, seed):
        rng = random.Random(f"nuc/{seed}")
        n = rng.randint(2, 6)
        crashed = rng.sample(range(n), rng.randint(0, n - 1))
        pattern = FailurePattern(n, {p: rng.randint(0, 60) for p in crashed})
        proposals = {p: rng.choice(["A", "B"]) for p in range(n)}
        result, _ = run_anuc(pattern, proposals, seed=seed)
        assert result.stop_reason == "stop_condition", pattern
        report = check_nonuniform_consensus(consensus_outcome(result, proposals))
        assert report.ok, (pattern, report.violations)


class TestAnucMechanisms:
    def test_decides_only_after_quorum_awareness(self):
        """The seen/ack gate: nobody decides in round 1 (seen[Q] < k needs a
        completed SAW/ACK exchange from an earlier round)."""
        pattern = FailurePattern(3, {})
        proposals = {p: "v" for p in range(3)}
        result, processes = run_anuc(pattern, proposals, seed=2)
        for p in range(3):
            if processes[p].state.decided_round is not None:
                assert processes[p].state.decided_round >= 2

    def test_unanimous_proposals_decide_same_value(self):
        pattern = FailurePattern(4, {1: 12})
        proposals = {p: "only" for p in range(4)}
        result, _ = run_anuc(pattern, proposals, seed=3)
        assert set(result.decided_correct().values()) == {"only"}

    def test_quorum_histories_propagate(self):
        """After a run, correct processes know each other's used quorums."""
        pattern = FailurePattern(3, {})
        proposals = {p: p for p in range(3)}
        result, processes = run_anuc(pattern, proposals, seed=4)
        for p in pattern.correct:
            history = processes[p].state.history
            for q in pattern.correct:
                used = processes[q].state.sent_saw  # the quorums q used
                assert used & history[q] or not used

    def test_minority_correct_decides(self):
        """The headline strength: decisions with half or more faulty."""
        pattern = FailurePattern(4, {0: 20, 1: 25, 2: 30})
        proposals = {0: "a", 1: "b", 2: "c", 3: "d"}
        result, _ = run_anuc(pattern, proposals, seed=5)
        assert 3 in result.decisions

    def test_two_processes_one_faulty(self):
        pattern = FailurePattern(2, {0: 8})
        proposals = {0: "x", 1: "y"}
        result, _ = run_anuc(pattern, proposals, seed=6)
        assert result.decisions.get(1) in {"x", "y"}

    def test_skewed_scheduler(self):
        pattern = FailurePattern(3, {2: 30})
        proposals = {p: str(p) for p in range(3)}
        result, _ = run_anuc(
            pattern,
            proposals,
            seed=7,
            scheduler=WeightedScheduler({0: 20.0}),
        )
        report = check_nonuniform_consensus(consensus_outcome(result, proposals))
        assert report.ok

    def test_trace_records_rounds_and_quorums(self):
        pattern = FailurePattern(3, {})
        proposals = {p: "v" for p in range(3)}
        _, processes = run_anuc(pattern, proposals, seed=8)
        for p in range(3):
            state = processes[p].state
            assert state.k >= 1
            assert state.sent_saw, "phase 3 must complete at least once"
            for quorum in state.sent_saw:
                assert p in quorum  # self-inclusion of Sigma^nu+ quorums


class TestLateStabilizationStress:
    """Liveness under pathologically late detector stabilization."""

    def test_anuc_decides_with_very_late_omega(self):
        pattern = FailurePattern(3, {2: 10})
        proposals = {p: "s" for p in range(3)}
        detector = PairedDetector(
            Omega(stabilization_slack=400, noise_changes=12),
            SigmaNuPlus(stabilization_slack=300),
        )
        history = detector.sample_history(pattern, random.Random(77))
        processes = anuc_processes(proposals)
        system = System(processes, pattern, history, seed=77)
        result = system.run(
            max_steps=80000, stop_when=lambda s: s.all_correct_decided()
        )
        assert result.stop_reason == "stop_condition"
        from repro.consensus import check_nonuniform_consensus, consensus_outcome

        assert check_nonuniform_consensus(
            consensus_outcome(result, proposals)
        ).ok

    def test_quorum_mr_decides_with_shrinking_sigma(self):
        from repro.consensus import (
            QuorumMR,
            check_uniform_consensus,
            consensus_outcome,
        )
        from repro.detectors import Sigma
        from repro.kernel.automaton import AutomatonProcess

        pattern = FailurePattern(4, {0: 20})
        proposals = {p: p % 2 for p in range(4)}
        detector = PairedDetector(Omega(), Sigma("shrinking"))
        history = detector.sample_history(pattern, random.Random(5))
        processes = {
            p: AutomatonProcess(QuorumMR(), proposals[p]) for p in range(4)
        }
        system = System(processes, pattern, history, seed=5)
        result = system.run(
            max_steps=30000, stop_when=lambda s: s.all_correct_decided()
        )
        assert result.stop_reason == "stop_condition"
        assert check_uniform_consensus(
            consensus_outcome(result, proposals)
        ).ok
