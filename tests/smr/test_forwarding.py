"""Client-to-leader forwarding: the noop-contention regression.

Before forwarding, a command submitted at a non-leader replica was never
proposed by the leader, so the leader padded every slot with noops while
the laggard's command starved — the liveness gap the layer's docstring
documented.  These tests pin the fixed decided-log shape (commands from
every origin get chosen) against a test-local replica that never forwards,
the degraded regression baseline.
"""

import random

import pytest

from repro.detectors import Omega, PairedDetector, SigmaNuPlus
from repro.kernel.failures import FailurePattern
from repro.kernel.system import System
from repro.smr import check_service_log, check_smr, run_replicated_log
from repro.smr.replicated_log import NOOP, ReplicatedLogProcess


def _non_noop(log):
    return [e for e in log if e is not None and e[0] != "noop"]


class _NonForwardingReplica(ReplicatedLogProcess):
    """The pre-forwarding replica: commands pending at a non-leader are
    never sent to the leader, so the leader pads slots with noops."""

    def _maybe_forward(self, pid, d, sends):
        pass


def _run_without_forwarding(pattern, commands, slots, seed, max_steps):
    """``run_replicated_log`` with every replica a ``_NonForwardingReplica``."""
    detector = PairedDetector(Omega(), SigmaNuPlus())
    history = detector.sample_history(pattern, random.Random(seed + 777))
    processes = {
        p: _NonForwardingReplica(commands.get(p, ()), slots)
        for p in range(pattern.n)
    }
    system = System(processes, pattern, history, seed=seed)
    system.run(
        max_steps=max_steps,
        stop_when=lambda _: all(
            len(processes[p].log) >= slots for p in pattern.correct
        ),
    )
    return processes


class TestForwarding:
    def test_non_leader_commands_get_decided(self):
        """Commands pending only at non-leader replicas reach the log."""
        pattern = FailurePattern(3, {})
        commands = {p: [("append", p, k) for k in range(2)] for p in range(3)}
        result, procs = run_replicated_log(
            pattern, commands, slots=8, seed=11, max_steps=200000
        )
        assert result.stop_reason == "stop_condition"
        report = check_smr(pattern, procs, commands)
        assert report.ok, report.violations
        decided = _non_noop(procs[0].log)
        submitted = {c for cmds in commands.values() for c in cmds}
        # Every submitted command was chosen: no origin starves.
        assert set(decided) == submitted

    def test_decided_log_shape_pinned(self):
        """The fixed shape for one seeded run: all six commands, no starved
        origin, and strictly fewer noop slots than the degraded baseline."""
        pattern = FailurePattern(3, {})
        commands = {p: [("append", p, k) for k in range(2)] for p in range(3)}

        _, fixed = run_replicated_log(
            pattern, commands, slots=8, seed=3, max_steps=200000
        )
        degraded = _run_without_forwarding(
            pattern, commands, slots=8, seed=3, max_steps=200000
        )
        fixed_cmds = _non_noop(fixed[0].log)
        degraded_cmds = _non_noop(degraded[0].log)
        assert len(fixed_cmds) == 6
        # The degraded baseline starves at least one non-leader origin
        # within the same slot budget (this is the documented gap).
        assert len(degraded_cmds) < len(fixed_cmds)
        origins_fixed = {c[1] for c in fixed_cmds}
        assert origins_fixed == {0, 1, 2}

    def test_forwarding_under_crashes(self):
        """Forwarded commands survive leader-irrelevant crashes."""
        pattern = FailurePattern(4, {3: 5})
        commands = {p: [("append", p, 0)] for p in range(4)}
        _, procs = run_replicated_log(
            pattern, commands, slots=6, seed=7, max_steps=250000
        )
        report = check_smr(pattern, procs, commands)
        assert report.ok, report.violations
        decided = set(_non_noop(procs[0].log))
        # Correct origins' commands all commit; the early-crashed origin's
        # command may or may not make it (it might crash pre-forward).
        for p in pattern.correct:
            assert ("append", p, 0) in decided

    def test_forwarding_is_rate_limited(self):
        """One FWD per (command, leader): a stable leader sees each pending
        command forwarded exactly once."""
        proc = ReplicatedLogProcess([("append", 1, 0)], slots=4)

        sent = []
        proc._maybe_forward(1, (0, frozenset({0, 1})), sent)
        proc._maybe_forward(1, (0, frozenset({0, 1})), sent)
        assert len(sent) == 1
        assert sent[0] == (0, ("FWD", ("append", 1, 0)))
        # A leader change re-forwards once to the new leader.
        proc._maybe_forward(1, (2, frozenset({1, 2})), sent)
        assert len(sent) == 2
        assert sent[1][0] == 2


class TestFeedAndBatches:
    def test_feed_dedups(self):
        proc = ReplicatedLogProcess([], slots=None)
        assert proc.feed(("append", 0, 0))
        assert not proc.feed(("append", 0, 0))
        assert proc.pending_commands() == [("append", 0, 0)]

    def test_batch_proposals_follow_seq_order(self):
        proc = ReplicatedLogProcess([], slots=None)
        b0 = ("batch", "svc", 0, ((0, 0, "x"),))
        b1 = ("batch", "svc", 1, ((0, 1, "y"),))
        proc.feed(b1)
        proc.feed(b0)
        # Out-of-order feed: seq 1 is ineligible until seq 0 is in the log.
        assert proc._next_proposal() == b0
        proc.log.append(b0)
        proc._purge_chosen(b0)
        assert proc._next_proposal() == b1
        proc.log.append(b1)
        proc._purge_chosen(b1)
        assert proc._next_proposal() == NOOP

    def test_check_service_log_flags_bad_shapes(self):
        good = [
            ("batch", "svc", 0, (("s1", 0, "a"), ("s1", 1, "b"))),
            ("noop", -1),
            ("batch", "svc", 1, (("s2", 0, "c"),)),
        ]
        assert check_service_log(good).ok
        dup = good + [("batch", "svc", 2, (("s1", 0, "a"),))]
        report = check_service_log(dup)
        assert not report.ok
        assert any("duplication" in v for v in report.violations)
        skipped = [("batch", "svc", 1, (("s1", 0, "a"),))]
        report = check_service_log(skipped)
        assert not report.ok
        assert any("batch-order" in v for v in report.violations)

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_sweep_with_forwarding(self, seed):
        rng = random.Random(f"fwd/{seed}")
        n = rng.choice([3, 4, 5])
        crashed = rng.sample(range(n), rng.randrange(0, (n - 1) // 2 + 1))
        pattern = FailurePattern(n, {p: rng.randrange(0, 40) for p in crashed})
        commands = {
            p: [("append", p, k) for k in range(rng.randrange(0, 3))]
            for p in range(n)
        }
        _, procs = run_replicated_log(
            pattern, commands, slots=6, seed=seed, max_steps=250000
        )
        report = check_smr(pattern, procs, commands)
        assert report.ok, report.violations
