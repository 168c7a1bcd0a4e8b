"""Golden digests: the service's execution, pinned across bookkeeping changes.

The retained certified prefix and the replica-side indexes (PR 14) are
bookkeeping only — no decision, message, schedule or applied sequence may
move.  These SHA-256 digests were computed at the commit *before* that
change and must stay byte-identical: each covers the applied command
sequence, the certified log, every replica's decided log, the read audit
and the exact kernel-step and tick counts of one run on
``LogicalTimeLoop``.
"""

import hashlib

import pytest

from repro.detectors import PairedHistory, ScheduleHistory, SigmaNuPlus
from repro.harness.load import LoadSpec, run_service_load
from repro.service.service import ServiceConfig


class LaggingOmega:
    """(Omega, Sigma^nu+) whose Omega trusts p0 until ``switch_at``, then
    p1 — a valid history that keeps trusting p0 after it crashed."""

    def __init__(self, switch_at: int):
        self.switch_at = switch_at

    def sample_history(self, pattern, rng):
        omega = ScheduleHistory(
            {p: [(0, 0), (self.switch_at, 1)] for p in pattern.processes}
        )
        return PairedHistory(
            [omega, SigmaNuPlus().sample_history(pattern, rng)]
        )


def run_digest(config: ServiceConfig, spec: LoadSpec, read_every: int = 0):
    report, service = run_service_load(config, spec, read_every=read_every)
    h = hashlib.sha256()
    for part in (
        tuple(service.applied_commands),
        tuple(service.core.certified_log()),
        sorted((p, tuple(log)) for p, log in service.core.logs().items()),
        [(prefix, len(view)) for prefix, view in service.read_log],
        service.stats["kernel_steps"],
        service.stats["ticks"],
        service.stats["batches"],
        service.stats["refeeds"],
        tuple(report.latencies),
    ):
        h.update(repr(part).encode())
        h.update(b"\n")
    assert service.invariants.ok
    assert report.committed == report.submitted == spec.commands
    for prefix, view in service.read_log:
        assert tuple(view) == tuple(service.applied_commands[: len(view)])
    return h.hexdigest()


BURST = LoadSpec(mode="open", clients=8, commands=320, arrival_every=0,
                 seed=42, deadline_ticks=20000)

GOLDEN_BURST = {
    1: "c2c07dc48fb3833aecc35bcbd2ba72a4a6c04a207b2a04402f526ffdc854359c",
    4: "895f91689671abe651909273cdeeb5f3b53a289c1bd6a294df4c594426e6da30",
    16: "065bc609a32804f5ab6c7d781feb4e4a01bba75b0027bcccd6e3d1a34a5cc30f",
}
GOLDEN_CLOSED_RW = (
    "8e4d5168a7cf4058e1d886e3901244966b8f2946a7ca67e1a2282bcbb9fe62c7"
)
GOLDEN_FAILOVER_N5 = (
    "9f8514e439b000b5f6745831910492bddf39cc3e32fdd5ad77c95f1e58a329fb"
)


@pytest.mark.parametrize("batch", sorted(GOLDEN_BURST))
def test_burst_digest_is_pinned(batch):
    config = ServiceConfig(n=3, seed=42, batch_size=batch, queue_depth=320)
    assert run_digest(config, BURST) == GOLDEN_BURST[batch]


def test_closed_read_write_digest_is_pinned():
    config = ServiceConfig(n=3, seed=7, batch_size=4, queue_depth=64)
    spec = LoadSpec(mode="closed", clients=16, commands=240, think_ticks=1,
                    seed=7, deadline_ticks=20000)
    assert run_digest(config, spec, read_every=3) == GOLDEN_CLOSED_RW


def test_failover_n5_digest_is_pinned():
    # p0 leads, crashes at kernel time 6 000; Omega keeps naming it until
    # 9 000.  Refeed, leader routing and FWD all run during the outage.
    config = ServiceConfig(
        n=5, seed=11, batch_size=4, queue_depth=512,
        crash_times={0: 6000}, detector=LaggingOmega(9000),
    )
    spec = LoadSpec(mode="open", clients=8, commands=160, arrival_every=1,
                    seed=11, deadline_ticks=20000)
    assert run_digest(config, spec) == GOLDEN_FAILOVER_N5
