"""Determinism and trace-mode equivalence regressions.

The kernel promises that a ``(configuration, seed)`` pair fully determines a
run, and that ``trace="metrics"`` changes *what is recorded*, never *what is
executed*.  Both properties underpin the sweep driver: parallel sweeps are
only reproducible because every run is a pure function of its arguments, and
sweeps are only cheap because metrics mode is a faithful stand-in.
"""

import random

from repro.consensus.quorum_mr import QuorumMR
from repro.detectors import Omega, PairedDetector, Sigma
from repro.harness.runner import run_nuc, run_stack
from repro.kernel.automaton import AutomatonProcess
from repro.kernel.failures import FailurePattern
from repro.kernel.system import System


def _fresh_system(trace: str) -> System:
    pattern = FailurePattern(4, {3: 40})
    detector = PairedDetector(Omega(), Sigma("pivot"))
    history = detector.sample_history(pattern, random.Random(5))
    processes = {p: AutomatonProcess(QuorumMR(), p % 2) for p in range(4)}
    return System(processes, pattern, history, seed=5, trace=trace)


class TestByteIdenticalReruns:
    def test_identical_inputs_identical_step_sequence(self):
        results = []
        for _ in range(2):
            system = _fresh_system("full")
            results.append(system.run(max_steps=600))
        first, second = results
        assert first.steps == second.steps
        assert repr(first.steps) == repr(second.steps)
        assert first.queried == second.queried
        assert first.decisions == second.decisions
        assert first.decision_times == second.decision_times

    def test_runner_reruns_identical(self):
        pattern = FailurePattern(3, {2: 10})
        proposals = {0: 0, 1: 1, 2: 1}
        a = run_nuc(pattern, proposals, seed=7)
        b = run_nuc(pattern, proposals, seed=7)
        assert a.result.steps == b.result.steps
        assert a.result.decisions == b.result.decisions


class TestTraceModeEquivalence:
    def test_metrics_mode_executes_the_same_run(self):
        full = _fresh_system("full").run(max_steps=600)
        metrics = _fresh_system("metrics").run(max_steps=600)
        assert metrics.steps == []
        assert metrics.queried == {}
        assert metrics.total_steps == full.total_steps
        assert metrics.step_count == full.step_count
        assert metrics.decisions == full.decisions
        assert metrics.decision_times == full.decision_times
        assert metrics.outputs == full.outputs
        assert metrics.initial_outputs == full.initial_outputs
        assert metrics.final_time == full.final_time
        assert metrics.messages_sent == full.messages_sent
        assert metrics.messages_delivered == full.messages_delivered

    def test_runner_outcomes_agree_across_trace_modes(self):
        pattern = FailurePattern(4, {0: 15})
        proposals = {p: p % 2 for p in range(4)}
        for runner in (run_nuc, run_stack):
            full = runner(pattern, proposals, seed=11, trace="full")
            metrics = runner(pattern, proposals, seed=11, trace="metrics")
            assert metrics.result.decisions == full.result.decisions
            assert metrics.result.total_steps == full.result.total_steps
            assert bool(metrics.nonuniform) == bool(full.nonuniform)
            assert metrics.metrics.steps == full.metrics.steps
            assert (
                metrics.metrics.messages_sent == full.metrics.messages_sent
            )

    def test_step_sentinel_is_truthy_and_dataless(self):
        system = _fresh_system("metrics")
        record = system.step()
        assert record  # run loops test records for progress
        assert record.pid == -1 and record.sends == ()

    def test_unknown_trace_mode_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            _ = System(
                {0: AutomatonProcess(QuorumMR(), 0)},
                FailurePattern(1, {}),
                history=lambda p, t: None,
                trace="everything",
            )
