"""Bounded exhaustive exploration of tiny systems.

These tests prove safety over *every* schedule prefix up to a step bound —
a different kind of evidence than the sampled sweeps: agreement and
validity cannot be broken by any interleaving or delivery choice the bound
reaches.
"""

import pytest

from repro.analysis.modelcheck import (
    agreement_invariant,
    conjoin,
    explore,
    validity_invariant,
)
from repro.consensus.quorum_mr import QuorumMR
from repro.kernel.automaton import Automaton, TransitionOutcome
from repro.kernel.failures import FailurePattern


def constant_history(leader, quorum):
    return lambda p, t: (leader, quorum)


class TestExploreMachinery:
    def test_counts_configurations(self):
        pattern = FailurePattern(2, {})
        report = explore(
            QuorumMR(),
            pattern,
            {0: "a", 1: "a"},
            constant_history(0, frozenset({0, 1})),
            invariant=lambda d, v: None,
            max_depth=4,
        )
        assert report.ok
        assert report.configurations > 4
        assert report.transitions >= report.configurations - 1

    def test_depth_bound_respected(self):
        pattern = FailurePattern(2, {})
        shallow = explore(
            QuorumMR(),
            pattern,
            {0: "a", 1: "b"},
            constant_history(0, frozenset({0, 1})),
            invariant=lambda d, v: None,
            max_depth=3,
        )
        deep = explore(
            QuorumMR(),
            pattern,
            {0: "a", 1: "b"},
            constant_history(0, frozenset({0, 1})),
            invariant=lambda d, v: None,
            max_depth=5,
        )
        assert deep.configurations > shallow.configurations

    def test_crashed_processes_never_step(self):
        pattern = FailurePattern(2, {1: 0})

        class Stepper(Automaton):
            def initial_state(self, pid, n, proposal):
                return {"pid": pid, "steps": 0}

            def transition(self, state, pid, msg, d):
                state["steps"] += 1
                assert pid == 0, "crashed process stepped!"
                return TransitionOutcome(state=state, sends=[])

            def snapshot(self, state):
                return (state["pid"], state["steps"])

        report = explore(
            Stepper(),
            pattern,
            {0: None, 1: None},
            lambda p, t: None,
            invariant=lambda d, v: None,
            max_depth=4,
        )
        assert report.ok

    def test_violation_reported_with_trace(self):
        class DecideOwn(Automaton):
            """Every process instantly decides its own proposal: agreement
            violations are reachable immediately."""

            def initial_state(self, pid, n, proposal):
                return {"decided": None, "x": proposal, "steps": 0}

            def transition(self, state, pid, msg, d):
                state["steps"] += 1
                state["decided"] = state["x"]
                return TransitionOutcome(state=state, sends=[])

            def decision(self, state):
                return state["decided"]

            def snapshot(self, state):
                return (state["x"], state["decided"], state["steps"])

        pattern = FailurePattern(2, {})
        report = explore(
            DecideOwn(),
            pattern,
            {0: "a", 1: "b"},
            lambda p, t: None,
            invariant=agreement_invariant(pattern.correct),
            max_depth=4,
        )
        assert not report.ok
        # DFS order may find a deep witness first; the trace matches depth.
        assert len(report.violation.trace) == report.violation.depth
        assert "disagree" in report.violation.detail


class TestQuorumMRSafetyExhaustive:
    """Every schedule prefix of quorum-MR under a fixed Sigma history keeps
    uniform agreement and validity (n=2, bounded depth)."""

    @pytest.mark.parametrize(
        "proposals", [{0: 0, 1: 1}, {0: 1, 1: 1}]
    )
    def test_failure_free(self, proposals):
        pattern = FailurePattern(2, {})
        invariant = conjoin(
            agreement_invariant(pattern.correct, uniform=True),
            validity_invariant(frozenset(proposals.values())),
        )
        report = explore(
            QuorumMR(),
            pattern,
            proposals,
            constant_history(0, frozenset({0, 1})),
            invariant=invariant,
            max_depth=9,
            max_configs=150_000,
        )
        assert report.ok, report.violation
        assert report.configurations > 100

    def test_one_crash(self):
        pattern = FailurePattern(2, {1: 3})
        invariant = conjoin(
            agreement_invariant(pattern.correct, uniform=True),
            validity_invariant(frozenset({0, 1})),
        )
        report = explore(
            QuorumMR(),
            pattern,
            {0: 0, 1: 1},
            constant_history(0, frozenset({0})),
            invariant=invariant,
            max_depth=9,
        )
        assert report.ok, report.violation


class TestNaiveAlgorithmBoundedCounterexample:
    def test_split_quorums_reach_disagreement(self):
        """Under a Sigma^nu history with disjoint singleton quorums and
        per-process self-leaders, the naive algorithm reaches a uniform
        disagreement within a few steps — found exhaustively, not crafted."""
        from repro.consensus.quorum_mr import NaiveSigmaNuConsensus

        pattern = FailurePattern(2, {1: 10**6})  # 1 is faulty, far future

        def history(p, t):
            return (p, frozenset({p}))  # everyone leads and quorums itself

        report = explore(
            NaiveSigmaNuConsensus(),
            pattern,
            {0: "a", 1: "b"},
            history,
            invariant=agreement_invariant(frozenset({0, 1}), uniform=True),
            max_depth=8,
        )
        assert not report.ok
        assert "disagree" in report.violation.detail
        # nonuniform agreement over the *correct* set alone is untouched:
        report2 = explore(
            NaiveSigmaNuConsensus(),
            pattern,
            {0: "a", 1: "b"},
            history,
            invariant=agreement_invariant(pattern.correct),
            max_depth=8,
        )
        assert report2.ok


class TestAnucBoundedExploration:
    def test_anuc_nonuniform_agreement_over_all_prefixes(self):
        """Every schedule prefix of native A_nuc under a split-quorum
        Sigma^nu+ history keeps nonuniform agreement and validity (n=2,
        process 1 faulty-by-declaration, bounded depth)."""
        from repro.core.nuc import AnucAutomaton

        pattern = FailurePattern(2, {1: 10**6})

        def history(p, t):
            return (p, frozenset({p}))  # both lead & quorum themselves

        invariant = conjoin(
            agreement_invariant(pattern.correct),
            validity_invariant(frozenset({"a", "b"})),
        )
        report = explore(
            AnucAutomaton(),
            pattern,
            {0: "a", 1: "b"},
            history,
            invariant=invariant,
            max_depth=8,
            max_configs=120_000,
        )
        assert report.ok, report.violation
        assert report.configurations > 50

    def test_anuc_uniform_gap_visible_to_explorer(self):
        """With the awareness gate off, the explorer can reach a uniform
        disagreement (faulty process deciding its own value) while
        nonuniform agreement still holds on every prefix."""
        from repro.core.nuc import AnucAutomaton

        pattern = FailurePattern(2, {1: 10**6})

        def history(p, t):
            return (p, frozenset({p}))

        uniform = explore(
            AnucAutomaton(enable_quorum_awareness=False),
            pattern,
            {0: "a", 1: "b"},
            history,
            invariant=agreement_invariant(frozenset({0, 1}), uniform=True),
            max_depth=8,
            max_configs=120_000,
        )
        assert not uniform.ok
        nonuniform = explore(
            AnucAutomaton(enable_quorum_awareness=False),
            pattern,
            {0: "a", 1: "b"},
            history,
            invariant=agreement_invariant(pattern.correct),
            max_depth=8,
            max_configs=120_000,
        )
        assert nonuniform.ok
