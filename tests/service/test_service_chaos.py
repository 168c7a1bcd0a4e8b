"""Chaos cross-checks: lying detectors cannot make the service lie.

Certification counts actual majority log matches, never detector output,
so an injector can stall the service (liveness) but a read under lease
must never expose an uncertified — nonuniform-unsafe — value.
"""

import pytest

from repro.chaos.injectors import CrashedLeaderOmega, SplitQuorums
from repro.detectors import Omega, PairedDetector, SigmaNuPlus
from repro.service.clock import TickClock
from repro.service.service import ConsensusService, ServiceConfig
from repro.smr.properties import (
    certified_log,
    certified_prefix_length,
    check_certified_reads,
)

from tests.service.conftest import run_logical, run_service_scenario


def chaos_traffic(commands: int = 12, run_ticks: int = 60, reads_every: int = 5):
    """Open-loop traffic + periodic reads, bounded by run_ticks."""

    async def scenario(service, clock):
        from repro.service.service import Backpressure, Unavailable

        sent = 0
        for tick in range(run_ticks):
            if sent < commands:
                try:
                    service.try_submit(f"c{sent % 3}", sent // 3, ("op", sent))
                    sent += 1
                except Backpressure:
                    pass
            if tick % reads_every == 0:
                try:
                    await service.read()
                except Unavailable:
                    pass
            await clock.sleep_ticks(1)
        return sent

    return scenario


class TestCrashedLeaderOmega:
    def config(self):
        return ServiceConfig(
            n=3,
            seed=2,
            batch_size=2,
            queue_depth=4,
            crash_times={0: 0},  # the liar's eternal leader, dead at t=0
            detector=PairedDetector(CrashedLeaderOmega(), SigmaNuPlus()),
        )

    def test_stalls_but_never_exposes_uncertified(self):
        summary = run_service_scenario(self.config(), chaos_traffic())
        # Nothing can decide under a permanently crashed leader...
        assert summary["stats"]["committed"] == 0
        assert summary["certified_log"] == ()
        # ...and every read honestly served the empty certified prefix.
        assert summary["read_log"], "reads should still be answered"
        for prefix, view in summary["read_log"]:
            assert prefix == 0
            assert view == ()
        assert summary["invariant_violations"] == ()

    def test_backpressure_engages_while_stalled(self):
        # The intake queue is bounded; with nothing draining, the open
        # loop must shed rather than buffer without bound.
        summary = run_service_scenario(
            self.config(), chaos_traffic(commands=12, run_ticks=60)
        )
        stats = summary["stats"]
        assert stats["shed"] > 0
        assert stats["submitted"] <= self.config().queue_depth + stats["batches"] * 2

    def test_honest_twin_stays_live(self):
        # Same crash pattern, honest detector: the service commits.
        config = ServiceConfig(
            n=3, seed=2, batch_size=2, queue_depth=4, crash_times={0: 0}
        )
        summary = run_service_scenario(config, chaos_traffic())
        assert summary["stats"]["committed"] > 0
        assert summary["invariant_violations"] == ()


class TestSplitQuorums:
    @pytest.mark.parametrize("seed", range(4))
    def test_reads_stay_certified_under_split(self, seed):
        config = ServiceConfig(
            n=4,
            seed=seed,
            batch_size=2,
            detector=PairedDetector(Omega(), SplitQuorums()),
        )
        summary = run_service_scenario(config, chaos_traffic())
        logs = {p: list(log) for p, log in summary["logs"].items()}
        report = check_certified_reads(
            summary["read_log"], logs, quorum=3
        )
        assert report.ok, report.violations
        # If the halves diverged anywhere, certification stopped short.
        lengths = {len(log) for log in logs.values()}
        for slot in range(min(lengths, default=0)):
            values = {tuple(log)[slot] for log in logs.values()}
            if len(values) > 1:
                certified = certified_prefix_length(logs, 3)
                assert certified <= slot
                break


class TestCertificationRule:
    """The mechanism itself, on crafted divergent logs."""

    A = ("batch", "svc", 0, (("alice", 0, "safe"),))
    B = ("batch", "svc", 0, (("mallory", 0, "divergent"),))

    def test_majority_blocks_divergence(self):
        logs = {0: [self.A], 1: [self.A], 2: [self.B], 3: [self.B]}
        assert certified_prefix_length(logs, quorum=3) == 0
        # With a real 3-of-4 majority the slot certifies.
        logs[2] = [self.A]
        assert certified_prefix_length(logs, quorum=3) == 1

    # A faulty replica's log can be the *longest* while diverging inside
    # the certified range; the quorum value, not the longest log, decides.
    B2 = ("batch", "svc", 1, (("mallory", 1, "more"),))

    def test_certified_log_ignores_divergent_longest_log(self):
        logs = {0: [self.B, self.B2], 1: [self.A], 2: [self.A]}
        assert certified_log(logs, quorum=2) == [self.A]
        assert certified_prefix_length(logs, quorum=2) == 1

    def test_checker_reference_is_quorum_backed(self):
        # The divergent log iterates first; it must not become the
        # checker's reference for what a certified read should contain.
        logs = {0: [self.B], 1: [self.A], 2: [self.A]}
        good = check_certified_reads(
            [(1, (("alice", 0, "safe"),))], logs, quorum=2
        )
        assert good.ok, good.violations
        bad = check_certified_reads(
            [(1, (("mallory", 0, "divergent"),))], logs, quorum=2
        )
        assert not bad.ok
        assert any("diverge" in v for v in bad.violations)

    def test_apply_uses_quorum_value_not_longest_log(self):
        async def main(loop):
            clock = TickClock(loop)
            service = ConsensusService(ServiceConfig(n=3, seed=0), clock)
            # Faulty replica 0 holds the longest log but diverged at 0.
            service.core.replicas[0].log.extend([self.B, self.B2])
            for p in (1, 2):
                service.core.replicas[p].log.append(self.A)
            service._apply_certified(tick=0)
            return list(service.applied_commands), await service.read()

        applied, view = run_logical(main)
        assert applied == [("alice", 0, "safe")]
        assert view == (("alice", 0, "safe"),)

    def test_uncertified_read_is_blocked_and_checker_rejects_one(self):
        logs = {0: [self.A], 1: [self.A], 2: [self.B], 3: [self.B]}

        async def main(loop):
            clock = TickClock(loop)
            service = ConsensusService(ServiceConfig(n=4, seed=0), clock)
            # Hand the replicas a 2-2 split log (never started: the
            # state is exactly what we write here).
            for p, log in logs.items():
                service.core.replicas[p].log.extend(log)
            view = await service.read()
            return view, service.read_log

        safe_view, safe_reads = run_logical(main)
        assert safe_view == ()  # nothing certified, nothing exposed
        assert check_certified_reads(safe_reads, logs, quorum=3).ok

        # A read that served replica 0's decided-but-uncertified slot.
        unsafe_reads = [(1, (("alice", 0, "safe"),))]
        report = check_certified_reads(unsafe_reads, logs, quorum=3)
        assert not report.ok
        assert any("beyond certified" in v for v in report.violations)
