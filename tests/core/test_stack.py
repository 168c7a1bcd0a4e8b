"""The full (Omega, Sigma^nu) stack (Theorem 6.28)."""

import random

import pytest

from repro.consensus import check_nonuniform_consensus, consensus_outcome
from repro.core.stack import StackedNucProcess
from repro.detectors import (
    Omega,
    PairedDetector,
    SigmaNu,
    check_sigma_nu_plus,
    recorded_output_history,
)
from repro.harness.runner import run_stack
from repro.kernel.failures import FailurePattern
from repro.kernel.messages import CoalescingDelivery
from repro.kernel.system import System


@pytest.mark.parametrize("seed", range(5))
class TestStackSweep:
    def test_solves_nonuniform_consensus_from_sigma_nu(self, seed):
        rng = random.Random(f"stack/{seed}")
        n = rng.randint(2, 5)
        crashed = rng.sample(range(n), rng.randint(0, n - 1))
        pattern = FailurePattern(n, {p: rng.randint(0, 50) for p in crashed})
        proposals = {p: rng.choice([0, 1]) for p in range(n)}
        outcome = run_stack(pattern, proposals, seed=seed)
        assert outcome.result.stop_reason == "stop_condition", pattern
        assert outcome.nonuniform.ok, (pattern, outcome.nonuniform.violations)

    def test_emulated_sigma_nu_plus_is_valid(self, seed):
        rng = random.Random(f"stackchk/{seed}")
        n = rng.randint(2, 4)
        crashed = rng.sample(range(n), rng.randint(0, n - 1))
        pattern = FailurePattern(n, {p: rng.randint(0, 40) for p in crashed})
        proposals = {p: "z" for p in range(n)}
        outcome = run_stack(pattern, proposals, seed=seed)
        assert outcome.boosted_check.ok, outcome.boosted_check.violations[:2]


class TestStackWiring:
    def test_channels_do_not_leak_between_subprograms(self):
        """Booster messages must never reach A_nuc and vice versa; if they
        did, payload shapes would not match and the run would crash."""
        pattern = FailurePattern(3, {})
        proposals = {p: p for p in range(3)}
        outcome = run_stack(pattern, proposals, seed=1, max_steps=20000)
        assert outcome.result.decisions

    def test_all_stack_messages_are_channel_tagged(self):
        pattern = FailurePattern(2, {})
        detector = PairedDetector(Omega(), SigmaNu())
        history = detector.sample_history(pattern, random.Random(0))
        processes = {p: StackedNucProcess(p, 2) for p in range(2)}
        system = System(
            processes, pattern, history, seed=0, delivery=CoalescingDelivery()
        )
        system.run(max_steps=200)
        for record in system.steps:
            for message in record.sends:
                channel, _payload = message.payload
                assert channel in ("B", "C")

    def test_nuc_sees_boosted_quorums_not_raw_sigma_nu(self):
        """A_nuc's used quorums must all contain the user (self-inclusion),
        which raw Sigma^nu does not guarantee — evidence the booster sits in
        between."""
        pattern = FailurePattern(3, {0: 25})
        proposals = {p: "w" for p in range(3)}
        detector = PairedDetector(Omega(), SigmaNu("junk"))
        history = detector.sample_history(pattern, random.Random(2))
        processes = {p: StackedNucProcess(proposals[p], 3) for p in range(3)}
        system = System(
            processes, pattern, history, seed=2, delivery=CoalescingDelivery()
        )
        system.run(max_steps=40000, stop_when=lambda s: s.all_correct_decided())
        for p in range(3):
            # sent_saw is exactly the set of quorums phase 3 went through
            for quorum in processes[p].nuc.state.sent_saw:
                assert p in quorum

    def test_initial_output_is_pi(self):
        process = StackedNucProcess("v", 4)
        assert process.initial_output() == frozenset(range(4))
