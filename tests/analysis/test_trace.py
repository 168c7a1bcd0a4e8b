"""Run transcripts (presentation helpers)."""

import random

import pytest

from repro.analysis.trace import (
    decision_summary,
    format_step,
    summarize_detector,
    summarize_payload,
    transcript,
)
from repro.consensus import QuorumMR
from repro.core.dag import DagCore
from repro.detectors import Omega, PairedDetector, Sigma
from repro.harness.runner import run_nuc
from repro.kernel.automaton import AutomatonProcess
from repro.kernel.failures import FailurePattern
from repro.kernel.system import System


@pytest.fixture(scope="module")
def sample_run():
    pattern = FailurePattern(3, {2: 15})
    detector = PairedDetector(Omega(), Sigma("pivot"))
    history = detector.sample_history(pattern, random.Random(1))
    proposals = {p: f"v{p}" for p in range(3)}
    processes = {p: AutomatonProcess(QuorumMR(), proposals[p]) for p in range(3)}
    system = System(processes, pattern, history, seed=1)
    return system.run(max_steps=4000, stop_when=lambda s: s.all_correct_decided())


class TestPayloadSummaries:
    def test_dag_payload_compact(self):
        core = DagCore(0, 2)
        for i in range(5):
            core.sample(i)
        assert summarize_payload(core.dag) == "DAG[5]"

    def test_channel_wrapped_dag(self):
        core = DagCore(0, 2)
        core.sample(0)
        assert summarize_payload(("B", core.dag)) == "(B, DAG[1])"

    def test_tagged_tuple(self):
        text = summarize_payload(("REP", 3, "v"))
        assert text.startswith("(REP, 3,")

    def test_frozensets_sorted(self):
        assert summarize_payload(("LEAD", frozenset({2, 0}))) == "(LEAD, {0,2})"

    def test_long_payloads_truncated(self):
        text = summarize_payload(("TAG", "x" * 500))
        assert len(text) <= 60

    def test_detector_pair(self):
        assert summarize_detector((1, frozenset({0, 1}))) == "(1, {0,1})"


class TestTranscript:
    def test_every_step_rendered(self, sample_run):
        text = transcript(sample_run)
        assert text.count("t=") == len(sample_run.steps)

    def test_decision_markers_present(self, sample_run):
        text = transcript(sample_run)
        for p, v in sample_run.decisions.items():
            assert f"process {p} DECIDES {v!r}" in text

    def test_crash_marker_present(self, sample_run):
        text = transcript(sample_run)
        assert "process 2 crashes" in text

    def test_simultaneous_crashes_each_marked_once(self):
        """Two processes crashing at the same time each get one marker."""
        outcome = run_nuc(
            FailurePattern(5, {1: 5, 2: 5}), {p: p % 2 for p in range(5)}, seed=3
        )
        lines = transcript(outcome.result, limit=12).splitlines()
        markers = [line for line in lines if "crashes" in line]
        assert markers == [
            "--- process 1 crashes ---",
            "--- process 2 crashes ---",
        ]

    def test_limit_truncates(self, sample_run):
        text = transcript(sample_run, limit=5)
        assert text.count("t=") == 5
        assert "steps total" in text

    def test_pid_filter(self, sample_run):
        text = transcript(sample_run, pids=[0])
        for line in text.splitlines():
            if line.startswith("t="):
                assert " p0 " in line

    def test_window_start(self, sample_run):
        text = transcript(sample_run, start=10)
        first = next(l for l in text.splitlines() if l.startswith("t="))
        assert int(first.split()[0][2:]) >= 10


class TestDecisionSummary:
    def test_lists_all_processes(self, sample_run):
        text = decision_summary(sample_run)
        assert text.count("p") >= 3
        assert "correct" in text and "faulty" in text

    def test_undecided_marked(self):
        pattern = FailurePattern(2, {})
        from repro.detectors.base import FunctionalHistory
        from repro.kernel.automaton import Process

        class Idle(Process):
            def program(self, ctx):
                while True:
                    yield from ctx.take_step()

        system = System(
            {0: Idle(), 1: Idle()},
            pattern,
            FunctionalHistory(lambda p, t: None),
            seed=0,
        )
        result = system.run(max_steps=10)
        assert decision_summary(result).count("undecided") == 2
