"""The asyncio consensus service: sessions, batching, leases, backpressure.

Pipeline (each stage traced when ``repro.obs`` is enabled)::

    submit -> [intake queue] -> batch -> propose (feed leader)
           -> kernel steps -> decide -> certify -> apply -> reply

Clients talk to :meth:`ConsensusService.submit` with ``(session, seq,
op)`` commands; session sequence numbers give exactly-once apply (the
apply loop skips duplicates) and FIFO order (checked online by
:class:`repro.smr.properties.ServiceInvariants`).  The *batcher* drains
the bounded intake queue into ``("batch", "svc", n, cmds)`` log entries —
one consensus instance certifies a whole batch, which is where the
batch-16-vs-1 throughput win comes from — and the *pump* advances the
kernel a bounded burst of steps per tick, applies newly certified slots,
and resolves client futures.

Backpressure: the intake queue is bounded; ``submit`` awaits space
(closed-loop clients slow down) while ``try_submit`` raises
:class:`Backpressure` (open-loop clients shed).  Pipelining is bounded by
``max_inflight`` undecided batches.

Reads: a reply may only expose *certified* state (see
:mod:`repro.service.core`).  Reads are served under a *lease* — a
believed-leader identity cached for ``lease_ticks`` — so steady-state
reads cost no detector query.  The lease optimizes nothing about safety:
a read serves the certified prefix regardless of who holds the lease.
"""

from __future__ import annotations

import asyncio
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import obs
from repro.service.clock import TickClock
from repro.service.core import ServiceCore
from repro.smr.properties import ServiceInvariants


class Backpressure(Exception):
    """The bounded intake queue is full; the command was shed."""


class Unavailable(Exception):
    """No alive replica can serve (all crashed or no lease obtainable)."""


class PrefixView(Sequence):
    """The first ``length`` items of an append-only list, read-only and
    fixed in length: what one read served, recorded without a copy."""

    __slots__ = ("_items", "_length")

    def __init__(self, items: List, length: int):
        self._items = items
        self._length = length

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self._items[slice(*index.indices(self._length))])
        return self._items[range(self._length)[index]]

    def __iter__(self) -> Iterator:
        return islice(self._items, self._length)


@dataclass
class ServiceConfig:
    """Everything that determines a service run (with the seed)."""

    n: int = 3
    seed: int = 0
    batch_size: int = 4
    max_inflight: int = 4
    queue_depth: int = 64
    steps_per_tick: int = 256
    lease_ticks: int = 64
    crash_times: Dict[int, int] = field(default_factory=dict)
    detector: Any = None

    def __post_init__(self) -> None:
        if self.batch_size < 1 or self.max_inflight < 1:
            raise ValueError("batch_size and max_inflight must be >= 1")


class ConsensusService:
    """One deployment: a core, a batcher task and a pump task.

    Lifecycle::

        service = ConsensusService(config, clock)
        service.start()          # spawns batcher + pump on the running loop
        await service.submit(session, seq, op)   # -> ("ok", slot, index)
        await service.read()                     # -> certified commands
        await service.stop()
    """

    def __init__(self, config: ServiceConfig, clock: TickClock):
        self.config = config
        self.clock = clock
        self.core = ServiceCore(
            config.n,
            crash_times=config.crash_times,
            seed=config.seed,
            detector=config.detector,
        )
        self._intake: asyncio.Queue = asyncio.Queue(maxsize=config.queue_depth)
        self._batch_seq = 0
        self._inflight: Dict[int, Tuple] = {}  # batch seq -> log entry
        self._waiters: Dict[Tuple, List[asyncio.Future]] = {}
        self._applied: Dict[Tuple, Tuple] = {}  # (session, seq) -> reply
        self._applied_slots = 0
        self._lease: Optional[Tuple[int, int]] = None  # (holder, expiry tick)
        self.applied_commands: List[Tuple] = []
        self.invariants = ServiceInvariants()
        # audit: (certified slots, what the read served)
        self.read_log: List[Tuple[int, PrefixView]] = []
        self._read_view: Optional[Tuple[Tuple, PrefixView]] = None  # per apply
        self.stats: Dict[str, int] = {
            "submitted": 0,
            "shed": 0,
            "batches": 0,
            "committed": 0,
            "duplicates": 0,
            "reads": 0,
            "kernel_steps": 0,
            "ticks": 0,
            "refeeds": 0,
        }
        self._tasks: List[asyncio.Task] = []
        self._stopping = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._tasks = [
            loop.create_task(self._batcher()),
            loop.create_task(self._pump()),
        ]

    async def stop(self) -> None:
        self._stopping = True
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._tasks = []
        # Nothing will resolve waiters once the pump is gone; cancel them
        # so clients blocked in submit() don't hang forever.
        for futures in self._waiters.values():
            for future in futures:
                if not future.done():
                    future.cancel()
        self._waiters.clear()

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------

    async def submit(self, session, seq: int, op) -> Tuple:
        """Submit and await commit; blocks on a full queue (closed loop)."""
        key = (session, seq)
        if key in self._applied:  # exactly-once resubmit fast path
            self.stats["duplicates"] += 1
            return self._applied[key]
        if key in self._waiters:  # already in flight: piggyback, don't re-log
            self.stats["duplicates"] += 1
            return await self._register_waiter(key)
        future = self._register_waiter(key)
        try:
            await self._intake.put((session, seq, op))
        except asyncio.CancelledError:  # client timeout, dropped connection
            self._withdraw(key, future)
            raise
        self._note_submit(session, seq)
        return await future

    def try_submit(self, session, seq: int, op) -> asyncio.Future:
        """Non-blocking submit; raises :class:`Backpressure` when full
        (open loop).  Returns a future resolving at commit."""
        key = (session, seq)
        if key in self._applied:
            self.stats["duplicates"] += 1
            future = asyncio.get_running_loop().create_future()
            future.set_result(self._applied[key])
            return future
        if key in self._waiters:  # already in flight: piggyback, don't re-log
            self.stats["duplicates"] += 1
            return self._register_waiter(key)
        future = self._register_waiter(key)
        try:
            self._intake.put_nowait((session, seq, op))
        except asyncio.QueueFull:
            self.stats["shed"] += 1
            if obs._ENABLED:
                obs.metrics().inc("service.shed")
            self._withdraw(key, future)
            raise Backpressure(f"intake queue full ({self.config.queue_depth})")
        self._note_submit(session, seq)
        return future

    async def read(self) -> Tuple:
        """The certified command sequence, served under a lease."""
        self._acquire_lease()
        self.stats["reads"] += 1
        if obs._ENABLED:
            obs.metrics().inc("service.reads")
        cached = self._read_view
        if cached is None:
            commands = self.applied_commands
            cached = self._read_view = (
                tuple(commands),
                PrefixView(commands, len(commands)),
            )
        view, served = cached
        self.read_log.append((self._applied_slots, served))
        return view

    # ------------------------------------------------------------------

    def _register_waiter(self, key: Tuple) -> asyncio.Future:
        future = asyncio.get_running_loop().create_future()
        self._waiters.setdefault(key, []).append(future)
        return future

    def _withdraw(self, key: Tuple, future: asyncio.Future) -> None:
        """``future``'s command never entered the queue, so nothing would
        ever resolve the waiters of ``key``: drop them, or a retry would
        piggyback on them forever.  Submissions that piggybacked on this
        one while it waited for queue space are refused like a shed one.
        """
        for waiter in self._waiters.pop(key):
            if waiter is future:
                waiter.cancel()
            elif not waiter.done():
                waiter.set_exception(
                    Backpressure("the submission this one joined was withdrawn")
                )

    def _note_submit(self, session, seq: int) -> None:
        self.stats["submitted"] += 1
        if obs._ENABLED:
            obs.metrics().inc("service.submitted")
            obs.tracer().event(
                "service.submit",
                tick=self.clock.now_ticks(),
                session=str(session),
                seq=seq,
            )

    def _acquire_lease(self) -> None:
        tick = self.clock.now_ticks()
        if self._lease is not None:
            holder, expiry = self._lease
            if tick < expiry and self.core.pattern.is_alive(
                holder, self.core.time
            ):
                return
        holder = self.core.leader_hint()
        if holder is None:
            raise Unavailable("no alive replica to lease from")
        self._lease = (holder, tick + self.config.lease_ticks)
        if obs._ENABLED:
            obs.metrics().inc("service.leases")
            obs.tracer().event("service.lease", tick=tick, holder=holder)

    # ------------------------------------------------------------------
    # Background tasks
    # ------------------------------------------------------------------

    async def _batcher(self) -> None:
        while True:
            # Wait for an inflight slot before taking anything off the
            # queue: a submitted command is then always in the queue or in
            # flight, and queue_depth alone bounds intake.
            while len(self._inflight) >= self.config.max_inflight:
                await self.clock.sleep_ticks(1)  # pipelining bound
            first = await self._intake.get()
            batch = [first]
            while len(batch) < self.config.batch_size:
                try:
                    batch.append(self._intake.get_nowait())
                except asyncio.QueueEmpty:
                    break
            seq = self._batch_seq
            self._batch_seq += 1
            entry = ("batch", "svc", seq, tuple(batch))
            self._inflight[seq] = entry
            fed = self.core.feed_batch(entry)
            self.stats["batches"] += 1
            if obs._ENABLED:
                tick = self.clock.now_ticks()
                with obs.tracer().span(
                    "service.batch", tick=tick, seq=seq, size=len(batch)
                ):
                    obs.tracer().event(
                        "service.propose",
                        tick=tick,
                        seq=seq,
                        size=len(batch),
                        replica=-1 if fed is None else fed,
                    )
                obs.metrics().inc("service.batches")
                obs.metrics().inc("service.batched_commands", len(batch))

    async def _pump(self) -> None:
        clock = self.clock
        loop = asyncio.get_running_loop()
        steps_per_tick = self.config.steps_per_tick
        while True:
            started = loop.time()
            tick = clock.now_ticks()
            self.stats["ticks"] += 1
            if self._inflight:
                self.stats["refeeds"] += self.core.refeed_pending(
                    list(self._inflight.values())
                )
            # An inflight batch needs time to move even when no alive
            # replica holds it: a crash or a leader change still to come
            # refeeds it.
            if self._inflight or self.core.has_work():
                if obs._ENABLED:
                    with obs.tracer().span(
                        "service.kernel", tick=tick
                    ) as span:
                        taken = self.core.step(steps_per_tick)
                        span.set(steps=taken)
                else:
                    taken = self.core.step(steps_per_tick)
                self.stats["kernel_steps"] += taken
                if obs._ENABLED:
                    obs.metrics().inc("service.kernel_steps", taken)
            self._apply_certified(tick)
            elapsed = (loop.time() - started) / clock.tick_seconds
            await clock.sleep_ticks(max(0.0, 1 - elapsed))  # the tick's rest

    def _apply_certified(self, tick: int) -> None:
        # Apply from the per-slot quorum-majority log, never from any
        # single replica: the longest local log may be a faulty replica's
        # and hold a divergent value inside the certified range.
        if self.core.certified_length() <= self._applied_slots:
            return
        fresh = self.core.certified_since(self._applied_slots)
        applied = 0
        with (
            obs.tracer().span(
                "service.apply", tick=tick, from_slot=self._applied_slots
            )
            if obs._ENABLED
            else nullcontext()
        ):
            for entry in fresh:
                slot = self._applied_slots
                self._applied_slots += 1
                if entry is None or entry[0] != "batch":
                    continue
                _, _origin, bseq, commands = entry
                self._inflight.pop(bseq, None)
                self.core.forget_batch(entry)
                if obs._ENABLED:
                    obs.tracer().event(
                        "service.decide", tick=tick, slot=slot, seq=bseq
                    )
                for session, seq, op in commands:
                    if not self.invariants.observe(session, seq, op, slot=slot):
                        self.stats["duplicates"] += 1
                        continue
                    self.applied_commands.append((session, seq, op))
                    reply = ("ok", slot, len(self.applied_commands) - 1)
                    self._applied[(session, seq)] = reply
                    self.stats["committed"] += 1
                    applied += 1
                    for future in self._waiters.pop((session, seq), ()):
                        if not future.done():
                            future.set_result(reply)
                    if obs._ENABLED:
                        obs.tracer().event(
                            "service.reply",
                            tick=tick,
                            session=str(session),
                            seq=seq,
                            slot=slot,
                        )
        if applied:
            self._read_view = None
            if obs._ENABLED:
                obs.metrics().inc("service.committed", applied)

    # ------------------------------------------------------------------
    # Introspection (harness + bench)
    # ------------------------------------------------------------------

    @property
    def certified_slots(self) -> int:
        return self._applied_slots

    def inflight(self) -> int:
        return len(self._inflight)
