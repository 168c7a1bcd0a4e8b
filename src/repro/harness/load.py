"""Seeded load generation against the consensus service.

Simulates fleets of lightweight clients without one task per client: the
arrival *schedule* — ``(tick, session, seq, op)`` rows — is precomputed
from the spec's seed, and a single submitter coroutine plays it back in
order.  Two consequences the test harness leans on:

* the schedule (hence the service's intake order, hence — via per-origin
  batch-seq ordering — the applied command sequence) depends only on
  ``(spec, seed)``, never on batching or host timing, and
* open- vs closed-loop is a property of *when* the submitter advances:
  open loop fires at scheduled ticks regardless of commits (shedding on
  backpressure), closed loop waits for each client's previous commit
  before its next command (think time in ticks).

Latency is measured in ticks from scheduled submission to commit; the
report carries p50/p99/max plus commands per kernel step — the
deterministic throughput measure (its inverse is the perf ledger's
``ksteps_per_cmd``, ``benchmarks/ledger/run.py``; wall-time commands/sec
is reported too, but only the logical numbers are exact).
"""

from __future__ import annotations

import asyncio
import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.service.clock import TickClock, logical_event_loop
from repro.service.service import (
    Backpressure,
    ConsensusService,
    ServiceConfig,
)


@dataclass
class LoadSpec:
    """One seeded workload (independent of service batching config)."""

    mode: str = "open"  # "open" (rate-driven) | "closed" (commit-driven)
    clients: int = 8
    commands: int = 64  # total across all clients
    arrival_every: int = 2  # open loop: mean ticks between arrivals
    think_ticks: int = 1  # closed loop: ticks between commit and next send
    key_space: int = 16
    seed: int = 0
    deadline_ticks: int = 4000  # give up on stragglers (stalled detectors)

    def __post_init__(self) -> None:
        if self.mode not in ("open", "closed"):
            raise ValueError(f"unknown load mode {self.mode!r}")
        if self.clients < 1 or self.commands < 0:
            raise ValueError("clients >= 1 and commands >= 0 required")


@dataclass
class LoadReport:
    """What one load run observed (all logical; wall time informational)."""

    spec_mode: str
    batch_size: int
    submitted: int = 0
    committed: int = 0
    shed: int = 0
    timed_out: int = 0
    ticks: int = 0
    kernel_steps: int = 0
    batches: int = 0
    latencies: List[int] = field(default_factory=list)  # ticks, commit order
    applied_digest: str = ""
    wall_seconds: float = 0.0

    @property
    def commands_per_kstep(self) -> float:
        return self.committed / self.kernel_steps if self.kernel_steps else 0.0

    def latency_percentile(self, q: float) -> int:
        if not self.latencies:
            return 0
        ordered = sorted(self.latencies)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def to_row(self) -> Dict[str, Any]:
        return {
            "mode": self.spec_mode,
            "batch_size": self.batch_size,
            "submitted": self.submitted,
            "committed": self.committed,
            "shed": self.shed,
            "timed_out": self.timed_out,
            "ticks": self.ticks,
            "kernel_steps": self.kernel_steps,
            "batches": self.batches,
            "commands_per_kstep": round(self.commands_per_kstep, 6),
            "latency_p50_ticks": self.latency_percentile(0.50),
            "latency_p99_ticks": self.latency_percentile(0.99),
            "latency_max_ticks": self.latency_percentile(1.0),
            "applied_digest": self.applied_digest,
            "wall_seconds": round(self.wall_seconds, 4),
        }


def build_schedule(spec: LoadSpec) -> List[Tuple[int, str, int, Tuple]]:
    """The seeded arrival schedule: ``(tick, session, seq, op)`` rows.

    Deterministic in ``spec`` alone; sorted by (tick, session).  Session
    seqs are consecutive per session — the FIFO the checkers verify.
    """
    rng = random.Random(f"load/{spec.seed}")
    next_seq = {c: 0 for c in range(spec.clients)}
    rows: List[Tuple[int, str, int, Tuple]] = []
    tick = 1
    for i in range(spec.commands):
        client = rng.randrange(spec.clients)
        session = f"c{client}"
        seq = next_seq[client]
        next_seq[client] += 1
        op = ("set", rng.randrange(spec.key_space), i)
        rows.append((tick, session, seq, op))
        tick += rng.randrange(0, 2 * spec.arrival_every + 1)
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return rows


def applied_digest(service: ConsensusService) -> str:
    """SHA-256 over the applied command sequence (byte-identity probe)."""
    h = hashlib.sha256()
    for command in service.applied_commands:
        h.update(repr(command).encode())
    return h.hexdigest()


async def run_load(
    service: ConsensusService, spec: LoadSpec, clock: TickClock
) -> LoadReport:
    """Play ``spec`` against a started service; returns the report."""
    schedule = build_schedule(spec)
    report = LoadReport(
        spec_mode=spec.mode, batch_size=service.config.batch_size
    )
    start_tick = clock.now_ticks()
    deadline = start_tick + spec.deadline_ticks
    pending: List[Tuple[int, asyncio.Future]] = []

    if spec.mode == "open":
        for tick, session, seq, op in schedule:
            while clock.now_ticks() < tick:
                await clock.sleep_ticks(1)
            sent = clock.now_ticks()
            try:
                future = service.try_submit(session, seq, op)
            except Backpressure:
                report.shed += 1
                continue
            report.submitted += 1

            def note_commit(f: asyncio.Future, sent: int = sent) -> None:
                # Fires on the tick the commit resolves: true commit latency.
                if not f.cancelled():
                    report.latencies.append(clock.now_ticks() - sent)

            future.add_done_callback(note_commit)
            pending.append((sent, future))
    else:  # closed loop: per-session chains, driven by commits
        by_session: Dict[str, List[Tuple[str, int, Tuple]]] = {}
        for _tick, session, seq, op in schedule:
            by_session.setdefault(session, []).append((session, seq, op))

        async def drive(commands: List[Tuple[str, int, Tuple]]) -> None:
            for i, (session, seq, op) in enumerate(commands):
                sent = clock.now_ticks()
                if sent >= deadline:
                    report.timed_out += len(commands) - i
                    return
                report.submitted += 1
                try:
                    await asyncio.wait_for(
                        service.submit(session, seq, op),
                        timeout=(deadline - sent) * clock.tick_seconds,
                    )
                except asyncio.TimeoutError:
                    report.timed_out += len(commands) - i
                    return
                report.latencies.append(clock.now_ticks() - sent)
                await clock.sleep_ticks(spec.think_ticks)

        await asyncio.gather(
            *[drive(cmds) for _s, cmds in sorted(by_session.items())]
        )

    # Open loop: wait for outstanding commits (latency recorded by the
    # done callbacks at commit time), up to the deadline.
    settled = 0  # every future in pending[:settled] is done
    while settled < len(pending):
        if pending[settled][1].done():
            settled += 1
            continue
        if clock.now_ticks() >= deadline:
            for _sent, future in pending[settled:]:
                if not future.done():
                    future.cancel()
                    report.timed_out += 1
            break
        await clock.sleep_ticks(1)
    await asyncio.sleep(0)  # let final done callbacks run

    report.committed = len(report.latencies)
    report.ticks = clock.now_ticks() - start_tick
    report.kernel_steps = service.stats["kernel_steps"]
    report.batches = service.stats["batches"]
    report.applied_digest = applied_digest(service)
    if obs._ENABLED:
        obs.metrics().inc("load.committed", report.committed)
        obs.metrics().inc("load.shed", report.shed)
    return report


def run_service_load(
    config: ServiceConfig,
    spec: LoadSpec,
    read_every: int = 0,
) -> Tuple[LoadReport, ConsensusService]:
    """Sync entry: fresh logical loop, one service, one load run.

    ``read_every`` > 0 issues a certified read every that-many commits
    (exercises the lease path under load).  Returns (report, service);
    the service is stopped and the loop closed before returning.
    """
    import time as _time

    loop = logical_event_loop()
    wall_start = _time.perf_counter()

    async def main() -> Tuple[LoadReport, ConsensusService]:
        clock = TickClock(loop)
        service = ConsensusService(config, clock)
        service.start()
        reader_task: Optional[asyncio.Task] = None
        if read_every > 0:

            async def reader() -> None:
                last = 0
                while True:
                    if service.stats["committed"] >= last + read_every:
                        last = service.stats["committed"]
                        await service.read()
                    await clock.sleep_ticks(1)

            reader_task = loop.create_task(reader())
        try:
            report = await run_load(service, spec, clock)
        finally:
            if reader_task is not None:
                reader_task.cancel()
                try:
                    await reader_task
                except asyncio.CancelledError:
                    pass
            await service.stop()
        return report, service

    try:
        asyncio.set_event_loop(loop)
        report, service = loop.run_until_complete(main())
    finally:
        asyncio.set_event_loop(None)
        loop.close()
    report.wall_seconds = _time.perf_counter() - wall_start
    return report, service
