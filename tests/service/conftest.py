"""Helpers for the deterministic service test harness.

Every test here runs the *full* asyncio service — tasks, queues, futures
— on :class:`repro.service.clock.LogicalTimeLoop`.  No sleeps are real,
no timing is host-dependent: a test that passes once passes always, and
two runs of the same scenario are byte-identical.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable

from repro.service.clock import TickClock, logical_event_loop
from repro.service.service import ConsensusService, ServiceConfig


def run_logical(main_factory: Callable[[Any], Awaitable]) -> Any:
    """Run ``main_factory(loop)`` on a fresh logical loop; return result."""
    loop = logical_event_loop()
    try:
        asyncio.set_event_loop(loop)
        return loop.run_until_complete(main_factory(loop))
    finally:
        asyncio.set_event_loop(None)
        loop.close()


def run_service_scenario(config: ServiceConfig, scenario) -> dict:
    """Start a service, run ``await scenario(service, clock)``, stop it.

    Returns a canonical summary dict the determinism tests compare for
    byte identity: certified log, applied commands, decided logs, stats.
    """

    async def main(loop):
        clock = TickClock(loop)
        service = ConsensusService(config, clock)
        service.start()
        try:
            extra = await scenario(service, clock)
        finally:
            await service.stop()
        return {
            "certified_log": tuple(service.core.certified_log()),
            "applied": tuple(service.applied_commands),
            "logs": {
                p: tuple(log) for p, log in sorted(service.core.logs().items())
            },
            "stats": dict(service.stats),
            "read_log": tuple(
                (prefix, tuple(view)) for prefix, view in service.read_log
            ),
            "invariant_violations": tuple(service.invariants.violations),
            "extra": extra,
        }

    return run_logical(main)


async def drain(service: ConsensusService, clock: TickClock,
                deadline_ticks: int = 2000) -> bool:
    """Wait until nothing is in flight (or deadline); True when drained."""
    start = clock.now_ticks()
    while clock.now_ticks() - start < deadline_ticks:
        if (
            service.inflight() == 0
            and service._intake.empty()
            and not service.core.has_work()
        ):
            return True
        await clock.sleep_ticks(1)
    return False
