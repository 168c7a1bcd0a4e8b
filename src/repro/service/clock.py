"""A deterministic asyncio event loop driven by logical time.

Production mode runs the service on a stock event loop against wall
clocks.  Under test we want the *same* asyncio machinery — tasks, queues,
futures, timeouts — but with no real sleeping and no timing jitter:
:class:`LogicalTimeLoop` replaces the selector's blocking wait with a
logical-clock jump.  Whenever the loop would block for ``timeout``
seconds (no ready callbacks, nearest timer ``timeout`` away), the
selector polls real I/O without blocking and, finding none, advances the
logical clock by exactly ``timeout``.  ``loop.time()`` reads that logical
clock, so timers fire in a deterministic order that depends only on the
program — runs are bit-identical regardless of host load.

A would-block-forever wait (no ready callbacks, no timers, no I/O) is a
deadlock under logical time; the loop surfaces it as a ``RuntimeError``
instead of hanging the test suite.

:class:`TickClock` quantizes loop time into integer *ticks* (the
service's scheduling unit and the tick source for ``repro.obs`` spans, so
traces line up with service time, not wall time).
"""

from __future__ import annotations

import asyncio
import selectors
from typing import Callable, List, Optional, Tuple

#: One service tick in loop-time seconds.  Coarse enough that float
#: accumulation never splits a tick, fine enough for thousands of ticks.
TICK_SECONDS = 1 / 1024.0


class _FastForwardSelector(selectors.DefaultSelector):
    """A selector that fast-forwards a logical clock instead of blocking."""

    def __init__(self) -> None:
        super().__init__()
        #: Installed by the owning loop: called with the timeout the
        #: selector would otherwise have blocked for.
        self.on_idle: Optional[Callable[[float], None]] = None

    def select(self, timeout: Optional[float] = None) -> List[Tuple]:
        events = super().select(0)
        if events or timeout == 0:
            return events
        if timeout is None:
            raise RuntimeError(
                "logical event loop deadlock: no ready callbacks, no "
                "timers, no I/O — an await can never complete"
            )
        if self.on_idle is not None:
            self.on_idle(timeout)
        return events


class LogicalTimeLoop(asyncio.SelectorEventLoop):
    """A selector event loop whose clock is logical and jump-forward.

    ``time()`` starts at 0.0 and advances only when every runnable
    callback has run and the loop would otherwise block — by exactly the
    blocking duration.  All asyncio timing (``asyncio.sleep``,
    ``wait_for``, ``call_later``) therefore executes deterministically.
    """

    def __init__(self) -> None:
        self._logical_now = 0.0
        selector = _FastForwardSelector()
        super().__init__(selector)
        selector.on_idle = self._advance

    def _advance(self, timeout: float) -> None:
        self._logical_now += timeout

    def time(self) -> float:
        return self._logical_now


class TickClock:
    """Integer-tick view of a loop's clock; the service's time source."""

    def __init__(self, loop: asyncio.AbstractEventLoop,
                 tick_seconds: float = TICK_SECONDS):
        self._loop = loop
        self._tick = tick_seconds

    @property
    def tick_seconds(self) -> float:
        return self._tick

    def now_ticks(self) -> int:
        # round() tolerates float accumulation drift well below a tick.
        return int(round(self._loop.time() / self._tick))

    async def sleep_ticks(self, ticks: float) -> None:
        await asyncio.sleep(ticks * self._tick)


def logical_event_loop() -> LogicalTimeLoop:
    """A fresh deterministic loop (callers own closing it)."""
    return LogicalTimeLoop()
