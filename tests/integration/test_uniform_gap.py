"""The nonuniform/uniform gap, exhibited on A_nuc itself.

A_nuc solves *nonuniform* consensus — and only that: under Sigma^nu+, a
faulty process with a private all-faulty quorum may legally decide a value
the correct processes never adopt.  This test constructs such a run (the
Section 6.3 cast without the contamination attempt): process 2 is faulty
with quorum {2} and trusts itself; processes 0, 1 run normally.  A_nuc
must let 2 decide its own proposal while 0 and 1 agree on theirs —
violating uniform agreement while satisfying nonuniform agreement, which is
precisely why (Omega, Sigma^nu) can be weaker than (Omega, Sigma).
"""

import pytest

from repro.consensus import (
    check_nonuniform_consensus,
    check_uniform_consensus,
    consensus_outcome,
)
from repro.core.nuc import AnucAutomaton
from repro.detectors import AdaptiveHistory, check_omega, check_sigma_nu_plus
from repro.detectors.checkers import project_history
from repro.kernel.automaton import AutomatonProcess
from repro.kernel.failures import FailurePattern
from repro.kernel.system import System

PROPOSALS = {0: "v", 1: "v", 2: "w"}


def build_run(seed=0, max_steps=40000):
    processes = {
        p: AutomatonProcess(AnucAutomaton(), PROPOSALS[p]) for p in range(3)
    }

    def value(p, t):
        if p == 2:
            return (2, frozenset({2}))
        return (0, frozenset({0, 1}))

    history = AdaptiveHistory(3, value)
    system = System(processes, FailurePattern(3), history, seed=seed)
    for _ in range(max_steps):
        if all(system.contexts[p].decision is not None for p in range(3)):
            break
        if system.step() is None:
            break
    horizon = max(0, system.time - 1)
    # 2 is faulty: it crashes right past the run.
    return system, system.pattern.crashing([2], horizon + 1), history, horizon


@pytest.fixture(scope="module")
def gap_run():
    return build_run(seed=0)


class TestUniformGap:
    def test_everyone_decides(self, gap_run):
        system, _, _, _ = gap_run
        decisions = {p: system.contexts[p].decision for p in range(3)}
        assert None not in decisions.values(), decisions

    def test_faulty_decides_its_own_value(self, gap_run):
        system, _, _, _ = gap_run
        assert system.contexts[2].decision == "w"

    def test_correct_processes_agree_on_v(self, gap_run):
        system, _, _, _ = gap_run
        assert system.contexts[0].decision == "v"
        assert system.contexts[1].decision == "v"

    def test_nonuniform_holds_uniform_fails(self, gap_run):
        system, frozen, _, _ = gap_run
        result = system.result()
        result = result.__class__(**{**result.__dict__, "pattern": frozen})
        outcome = consensus_outcome(result, PROPOSALS)
        assert check_nonuniform_consensus(outcome).ok
        assert not check_uniform_consensus(outcome).ok

    def test_history_was_legal(self, gap_run):
        """The run is no cheat: the recorded history is valid
        (Omega, Sigma^nu+) for the exhibited pattern."""
        _, frozen, history, horizon = gap_run
        recorded = history.recorded(horizon)
        omega = check_omega(project_history(recorded, 0), frozen, horizon)
        sigma = check_sigma_nu_plus(project_history(recorded, 1), frozen, horizon)
        assert omega.ok, omega.violations
        assert sigma.ok, sigma.violations

    def test_full_sigma_would_reject_this_history(self, gap_run):
        """Under Sigma (uniform intersection) the {2} quorum is illegal —
        the gap in detector strength mirrors the gap in problem strength."""
        from repro.detectors import check_sigma

        _, frozen, history, horizon = gap_run
        recorded = history.recorded(horizon)
        assert not check_sigma(project_history(recorded, 1), frozen, horizon).ok
