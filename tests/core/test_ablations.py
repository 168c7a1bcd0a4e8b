"""Ablation study: A_nuc's hardening mechanisms are load-bearing.

DESIGN.md calls out two ablations:

* disabling *distrust* reduces A_nuc to (morally) the naive quorum
  algorithm — the Section 6.3 contamination scenario must now break it;
* disabling the *quorum-awareness* decide gate lets decisions land in
  round 1; the specific Section 6.3 scenario does not exploit that hole
  (its distrust evidence travels on LEAD/PROP histories), but the decide
  round observably drops, showing the gate really delays decisions.
"""

import random

import pytest

from repro.consensus import check_nonuniform_consensus, consensus_outcome
from repro.core.nuc import AnucAutomaton
from repro.detectors import AdaptiveHistory, Omega, PairedDetector, SigmaNuPlus
from repro.kernel.automaton import AutomatonProcess
from repro.kernel.failures import DeferredCrashPattern, FailurePattern
from repro.kernel.system import System
from repro.separation.contamination import PROPOSALS, _ScenarioDriver


def anuc_processes(proposals, **flags):
    automaton = AnucAutomaton(**flags)
    return {p: AutomatonProcess(automaton, v) for p, v in proposals.items()}


def run_scenario_with(processes, seed=0, max_steps=30000):
    """Drive the Section 6.3 scenario against given A_nuc-family processes."""
    pattern = DeferredCrashPattern(3, doomed=[2])
    driver = _ScenarioDriver("anuc", processes, pattern)
    history = AdaptiveHistory(3, driver.detector_value)
    system = System(processes, pattern, history, seed=seed)

    crash_time = None
    for _ in range(max_steps):
        if crash_time is None and driver.should_crash_two():
            crash_time = system.time
            pattern.trigger([2], crash_time)
        if (
            system.contexts[0].decision is not None
            and system.contexts[1].decision is not None
        ):
            break
        if system.step() is None:
            break
    return system, crash_time


class TestDistrustAblation:
    def test_no_distrust_contaminated_by_scenario(self):
        """Without distrust the contamination window is driven causally:
        the Omega noise points correct processes at faulty process 2 exactly
        while '0 has decided v and 1 has not yet decided'.  Process 0 can
        only have decided v (its lone quorum is {0} and its leader until
        then is 0); 1 cannot decide earlier because 2's 'w' reports keep its
        {0,1,2} quorum from unanimity.  Once the window opens, 1 adopts 'w'
        from 2 and decides 'w' — a nonuniform-agreement violation that real
        A_nuc's distrust provably prevents (previous test family)."""
        processes = anuc_processes(PROPOSALS, enable_distrust=False)
        pattern = DeferredCrashPattern(3, doomed=[2])
        system_box = {}

        class Driver(_ScenarioDriver):
            def _leader(self, p):
                if p == 2:
                    return 2
                sys = system_box.get("system")
                if sys is None:
                    return 0
                window = (
                    sys.contexts[0].decision is not None
                    and sys.contexts[1].decision is None
                )
                return 2 if window else 0

        driver = Driver("anuc", processes, pattern)
        history = AdaptiveHistory(3, driver.detector_value)
        system = System(processes, pattern, history, seed=0)
        system_box["system"] = system
        for _ in range(60000):
            if (
                system.contexts[0].decision is not None
                and system.contexts[1].decision is not None
            ):
                break
            if system.step() is None:
                break
        decisions = {
            p: system.contexts[p].decision
            for p in (0, 1)
            if system.contexts[p].decision is not None
        }
        # Correct processes decide differently: contamination.
        assert decisions == {0: "v", 1: "w"}, decisions

    def test_with_distrust_same_driver_is_safe(self):
        processes = anuc_processes(PROPOSALS)
        system, _ = run_scenario_with(processes)
        assert system.contexts[0].decision == "v"
        assert system.contexts[1].decision == "v"


class TestQuorumAwarenessAblation:
    def test_gate_delays_decisions(self):
        """With the gate, nobody decides in round 1; without it, the same
        benign run decides in round 1."""
        pattern = FailurePattern(3, {})
        proposals = {p: "v" for p in range(3)}
        detector = PairedDetector(Omega(), SigmaNuPlus())

        def run(enable_gate):
            history = detector.sample_history(pattern, random.Random(123))
            processes = anuc_processes(
                proposals, enable_quorum_awareness=enable_gate
            )
            system = System(processes, pattern, history, seed=7)
            system.run(
                max_steps=20000, stop_when=lambda s: s.all_correct_decided()
            )
            return [processes[p].state.decided_round for p in range(3)]

        gated = run(True)
        ungated = run(False)
        assert all(r is None or r >= 2 for r in gated)
        assert any(r == 1 for r in ungated)

    def test_ungated_still_decides_on_benign_runs(self):
        pattern = FailurePattern(4, {3: 15})
        proposals = {p: p % 2 for p in range(4)}
        detector = PairedDetector(Omega(), SigmaNuPlus())
        history = detector.sample_history(pattern, random.Random(5))
        processes = anuc_processes(proposals, enable_quorum_awareness=False)
        system = System(processes, pattern, history, seed=5)
        result = system.run(
            max_steps=30000, stop_when=lambda s: s.all_correct_decided()
        )
        report = check_nonuniform_consensus(consensus_outcome(result, proposals))
        assert report.ok
