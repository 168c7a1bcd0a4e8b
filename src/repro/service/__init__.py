"""Consensus as a service: an asyncio front-end over :mod:`repro.smr`.

The replicated log decides *values*; this package serves *clients*.  A
:class:`ConsensusService` accepts command submissions over sessions,
batches them into pipelined consensus instances (one (Omega, Sigma^nu+)
round amortized across a whole batch, Multi-Paxos style), applies
bounded-queue backpressure, and serves reads from quorum-*certified*
state under leases.

Certification is where the paper's nonuniform/uniform gap becomes an
operational rule: a decided slot is *nonuniformly* safe (correct replicas
agree) but a faulty replica may have applied a divergent value before
crashing, so a reply exposed to a client — which outlives any single
replica — must wait until a majority of replica logs hold the value.
:meth:`ConsensusService.read` enforces this: it serves the certified
prefix only, never a single replica's decided state.

Determinism: under :class:`repro.service.clock.LogicalTimeLoop` the whole
service — asyncio scheduling included — is a pure function of (config,
seed).  The test harness exploits this to assert byte-identical decided
logs across runs and across batch sizes.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.service.clock": "TICK_SECONDS LogicalTimeLoop TickClock logical_event_loop",
    "repro.service.core": "ServiceCore",
    "repro.service.service": "Backpressure ConsensusService ServiceConfig Unavailable",
})
