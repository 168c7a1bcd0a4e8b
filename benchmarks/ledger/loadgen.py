"""The ledger's own load generator: seeded schedules and three drivers.

Everything a client sends is derived from the ``random.Random`` handed in,
which the workloads seed from ``--seed``.  The drivers talk to the program
only through ``ConsensusService.submit`` / ``try_submit`` / ``read`` and a
TCP socket; they run as coroutines on the service's loop — one process, no
threads.

Latency is timed from when a command was *due*: in the open loop the due
tick comes from the schedule, so a stall is charged to every command that
arrived during it; in the closed loops a command is due the moment its
session is ready to send it.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

Row = Tuple[int, str, int, Any]  # due tick, session, seq, op


def open_schedule(
    rng, commands: int, sessions: int, arrival_every: int, key_space: int = 16
) -> List[Row]:
    """``commands`` rows over ``sessions`` sessions, seqs consecutive per
    session.  ``arrival_every=0`` is a burst (all due at tick 1); otherwise
    one command falls due every ``arrival_every`` ticks."""
    next_seq = [0] * sessions
    rows: List[Row] = []
    tick = 1
    for i in range(commands):
        client = rng.randrange(sessions)
        rows.append(
            (
                tick,
                f"c{client}",
                next_seq[client],
                ("set", rng.randrange(key_space), i),
            )
        )
        next_seq[client] += 1
        tick += arrival_every
    return rows


def session_scripts(
    rng, sessions: int, per_session: int, text: bool, key_space: int = 16
) -> List[List[Row]]:
    """One command list per session for the closed loops (due tick unused).
    ``text`` gives the string commands the TCP front accepts."""
    scripts: List[List[Row]] = []
    for s in range(sessions):
        rows: List[Row] = []
        for seq in range(per_session):
            key, value = rng.randrange(key_space), rng.randrange(1 << 16)
            op = f"set {key} {value}" if text else ("set", key, value)
            rows.append((0, f"c{s}", seq, op))
        scripts.append(rows)
    return scripts


@dataclass
class LoadResult:
    """What the generator saw in one measured section."""

    scheduled: int = 0
    submitted: int = 0
    shed: int = 0
    timed_out: int = 0
    errors: int = 0  # error replies (TCP) or failed reads
    reads: int = 0
    start: float = 0.0  # wall: first operation issued
    end: float = 0.0  # wall: last reply received
    latency_s: List[float] = field(default_factory=list)  # due -> reply
    latency_ticks: List[int] = field(default_factory=list)
    commit_ticks: List[int] = field(default_factory=list)
    late_ticks_max: int = 0  # how far behind its schedule the generator ran
    bytes_moved: int = 0  # TCP: request + reply bytes
    rtt_by_command: Dict[Tuple[str, int], float] = field(default_factory=dict)

    @property
    def committed(self) -> int:
        return len(self.latency_s)

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def failed(self) -> int:
        return self.shed + self.timed_out + self.errors


async def open_loop(
    service, clock, schedule: Sequence[Row], deadline_ticks: int
) -> LoadResult:
    """Fire every row at its due tick whether or not earlier ones
    committed; a full intake queue sheds."""
    from repro.service import Backpressure

    now = time.perf_counter
    result = LoadResult(scheduled=len(schedule))
    futures: List[asyncio.Future] = []
    result.start = now()
    for due, session, seq, op in schedule:
        while clock.now_ticks() < due:
            await clock.sleep_ticks(1)
        due_wall = now()
        late = clock.now_ticks() - due
        if late > result.late_ticks_max:
            result.late_ticks_max = late
        try:
            future = service.try_submit(session, seq, op)
        except Backpressure:
            result.shed += 1
            continue
        result.submitted += 1

        def on_reply(f: asyncio.Future, due=due, due_wall=due_wall) -> None:
            if f.cancelled() or f.exception() is not None:
                return
            result.end = now()
            result.latency_s.append(result.end - due_wall)
            tick = clock.now_ticks()
            result.latency_ticks.append(tick - due)
            result.commit_ticks.append(tick)

        future.add_done_callback(on_reply)
        futures.append(future)
    if futures:
        _done, pending = await asyncio.wait(
            futures, timeout=deadline_ticks * clock.tick_seconds
        )
        for future in pending:
            future.cancel()
        result.timed_out = len(pending)
        await asyncio.sleep(0)  # let the last done-callbacks run
    return result


async def closed_read_write(
    service,
    clock,
    scripts: Sequence[Sequence[Row]],
    think_ticks: int,
    deadline_ticks: int,
) -> LoadResult:
    """Each session: write, await its commit, read the certified state,
    think, repeat.  ``submit`` blocks while the intake queue is full."""
    from repro.service import Unavailable

    now = time.perf_counter
    result = LoadResult(scheduled=sum(len(s) for s in scripts))

    async def session(rows: Sequence[Row]) -> None:
        for _due, name, seq, op in rows:
            due_wall, due_tick = now(), clock.now_ticks()
            result.submitted += 1
            await service.submit(name, seq, op)
            result.end = now()
            result.latency_s.append(result.end - due_wall)
            tick = clock.now_ticks()
            result.latency_ticks.append(tick - due_tick)
            result.commit_ticks.append(tick)
            result.reads += 1
            try:
                await service.read()
            except Unavailable:
                result.errors += 1
            await clock.sleep_ticks(think_ticks)

    result.start = now()
    tasks = [asyncio.ensure_future(session(rows)) for rows in scripts]
    _done, pending = await asyncio.wait(
        tasks, timeout=deadline_ticks * clock.tick_seconds
    )
    for task in pending:
        task.cancel()
    for task in tasks:
        try:
            await task
        except asyncio.CancelledError:
            pass
    result.timed_out = result.scheduled - result.committed
    return result


async def tcp_closed(
    host: str, port: int, scripts: Sequence[Sequence[Row]], timeout_s: float
) -> LoadResult:
    """One connection per session; newline-JSON submit, wait for the
    reply, send the next.  Connections are opened before the clock
    starts."""
    now = time.perf_counter
    result = LoadResult(scheduled=sum(len(s) for s in scripts))
    streams = [await asyncio.open_connection(host, port) for _ in scripts]

    async def connection(rows: Sequence[Row], reader, writer) -> None:
        for _due, name, seq, op in rows:
            line = (
                json.dumps(
                    {"op": "submit", "session": name, "seq": seq, "cmd": op}
                ).encode()
                + b"\n"
            )
            sent = now()
            result.submitted += 1
            writer.write(line)
            await writer.drain()
            reply = await reader.readline()
            result.end = now()
            result.bytes_moved += len(line) + len(reply)
            if not reply or not json.loads(reply).get("ok"):
                result.errors += 1
                continue
            result.latency_s.append(result.end - sent)
            result.rtt_by_command[(name, seq)] = result.end - sent

    result.start = now()
    tasks = [
        asyncio.ensure_future(connection(rows, reader, writer))
        for rows, (reader, writer) in zip(scripts, streams)
    ]
    try:
        _done, pending = await asyncio.wait(tasks, timeout=timeout_s)
        for task in pending:
            task.cancel()
        for task in tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
    finally:
        for _reader, writer in streams:
            writer.close()
        for _reader, writer in streams:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
    result.timed_out = result.scheduled - result.committed - result.errors
    return result
