"""Client-visible semantics: sessions, dedup, backpressure, leases, TCP."""

import asyncio
import json

import pytest

from repro.service.clock import TickClock
from repro.service.service import (
    Backpressure,
    ConsensusService,
    ServiceConfig,
    Unavailable,
)

from tests.service.conftest import drain, run_logical


class TestSessions:
    def test_exactly_once_resubmit(self):
        async def main(loop):
            service = ConsensusService(ServiceConfig(n=3, seed=4), TickClock(loop))
            service.start()
            first = await service.submit("s", 0, ("x",))
            again = await service.submit("s", 0, ("x",))  # client retry
            await service.stop()
            return first, again, service.stats, list(service.applied_commands)

        first, again, stats, applied = run_logical(main)
        assert first == again
        assert stats["duplicates"] == 1
        assert applied.count(("s", 0, ("x",))) == 1

    def test_duplicate_in_flight_is_applied_once(self):
        # Two concurrent submissions of the same (session, seq) — e.g. a
        # client retrying before the first commit lands — both resolve,
        # one apply.
        async def main(loop):
            service = ConsensusService(
                ServiceConfig(n=3, seed=4, batch_size=1), TickClock(loop)
            )
            service.start()
            a = service.try_submit("s", 0, ("x",))
            b = service.try_submit("s", 0, ("x",))
            replies = await asyncio.gather(a, b)
            await service.stop()
            return replies, list(service.applied_commands)

        replies, applied = run_logical(main)
        assert replies[0] == replies[1]
        assert applied == [("s", 0, ("x",))]

    def test_session_fifo_checked_online(self):
        async def main(loop):
            service = ConsensusService(ServiceConfig(n=3, seed=6), TickClock(loop))
            service.start()
            for seq in range(5):
                await service.submit("fifo", seq, ("op", seq))
            await service.stop()
            return service.invariants.ok, list(service.applied_commands)

        ok, applied = run_logical(main)
        assert ok
        assert [c[1] for c in applied] == [0, 1, 2, 3, 4]


class TestBackpressure:
    def test_try_submit_sheds_when_queue_full(self):
        async def main(loop):
            # Never started: the intake queue can only fill.
            service = ConsensusService(
                ServiceConfig(n=3, seed=0, queue_depth=3), TickClock(loop)
            )
            futures = [service.try_submit("s", i, ("x", i)) for i in range(3)]
            with pytest.raises(Backpressure):
                service.try_submit("s", 3, ("x", 3))
            for f in futures:
                f.cancel()
            return service.stats

        stats = run_logical(main)
        assert stats["shed"] == 1
        assert stats["submitted"] == 3

    def test_blocking_submit_resumes_after_drain(self):
        async def main(loop):
            service = ConsensusService(
                ServiceConfig(n=3, seed=0, queue_depth=2, batch_size=2),
                TickClock(loop),
            )
            service.start()
            # More submitters than queue depth: the extras block on put()
            # until the batcher drains, then everything commits.
            replies = await asyncio.gather(
                *[service.submit("s", i, ("x", i)) for i in range(8)]
            )
            await service.stop()
            return replies, service.stats

        replies, stats = run_logical(main)
        assert len(replies) == 8
        assert stats["committed"] == 8
        assert stats["shed"] == 0

    def test_submit_cancelled_while_queue_is_full_can_be_retried(self):
        # A client timeout cancels submit() inside `await intake.put()`:
        # the command never entered the queue, so its waiter must go too,
        # or the retry piggybacks on it and hangs forever.
        async def main(loop):
            service = ConsensusService(
                ServiceConfig(n=3, seed=0, queue_depth=1, batch_size=1),
                TickClock(loop),
            )
            first = service.try_submit("s", 0, ("x", 0))  # fills the queue
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(service.submit("s", 1, ("x", 1)), 0.01)
            withdrawn = ("s", 1) not in service._waiters
            # A submission that joined the blocked one is refused with it.
            blocked = loop.create_task(service.submit("s", 2, ("x", 2)))
            await asyncio.sleep(0)
            joined = service.try_submit("s", 2, ("x", 2))
            blocked.cancel()
            with pytest.raises(Backpressure):
                await joined
            service.start()
            await first
            retried = await service.submit("s", 1, ("x", 1))
            await service.stop()
            return (
                withdrawn, retried, list(service.applied_commands),
                dict(service._waiters), service.stats,
            )

        withdrawn, retried, applied, waiters, stats = run_logical(main)
        assert withdrawn
        assert retried[0] == "ok"
        assert applied == [("s", 0, ("x", 0)), ("s", 1, ("x", 1))]
        assert waiters == {}
        assert stats["submitted"] == 2 and stats["duplicates"] == 1


class TestReadsAndLeases:
    def test_read_serves_certified_prefix(self):
        async def main(loop):
            clock = TickClock(loop)
            service = ConsensusService(ServiceConfig(n=3, seed=8), clock)
            service.start()
            empty = await service.read()
            await service.submit("r", 0, ("v", 1))
            after = await service.read()
            await service.stop()
            return empty, after, service.certified_slots

        empty, after, certified = run_logical(main)
        assert empty == ()
        assert after == (("r", 0, ("v", 1)),)
        assert certified >= 1

    def test_lease_is_cached_between_reads(self):
        async def main(loop):
            clock = TickClock(loop)
            service = ConsensusService(
                ServiceConfig(n=3, seed=8, lease_ticks=100), clock
            )
            service.start()
            await service.submit("r", 0, ("v", 1))
            for _ in range(10):
                await service.read()
            holder, expiry = service._lease
            await service.stop()
            return holder, expiry, service.stats["reads"]

        holder, expiry, reads = run_logical(main)
        assert reads == 10
        assert 0 <= holder < 3

    def test_lease_expires_and_renews(self):
        async def main(loop):
            clock = TickClock(loop)
            service = ConsensusService(
                ServiceConfig(n=3, seed=8, lease_ticks=2), clock
            )
            service.start()
            await service.read()
            first = service._lease
            await clock.sleep_ticks(5)
            await service.read()
            second = service._lease
            await service.stop()
            return first, second

        first, second = run_logical(main)
        assert second[1] > first[1]  # renewed with a later expiry

    def test_unavailable_when_everyone_crashes(self):
        async def main(loop):
            clock = TickClock(loop)
            service = ConsensusService(
                ServiceConfig(
                    n=3, seed=8, crash_times={0: 0, 1: 0, 2: 0}
                ),
                clock,
            )
            service.start()
            # One kernel advance so system time passes the crash times.
            await clock.sleep_ticks(2)
            try:
                with pytest.raises(Unavailable):
                    await service.read()
            finally:
                await service.stop()
            return True

        assert run_logical(main)


class TestTcpFront:
    # Wall loop: the TCP front is production surface; semantics only
    # (determinism is asserted on the logical-loop paths above).

    @staticmethod
    def serve(body):
        """Run ``body(connect)`` against a served service, then shut down.

        ``connect()`` opens a connection and returns its ``rpc(payload)``.
        """
        from repro.service.net import serve_tcp

        async def main():
            loop = asyncio.get_running_loop()
            service = ConsensusService(
                ServiceConfig(n=3, seed=12), TickClock(loop)
            )
            service.start()
            server = await serve_tcp(service, host="127.0.0.1", port=0)
            port = server.sockets[0].getsockname()[1]
            writers = []

            async def connect():
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writers.append(writer)

                async def rpc(payload):
                    writer.write(json.dumps(payload).encode() + b"\n")
                    await writer.drain()
                    return json.loads(
                        await asyncio.wait_for(reader.readline(), 30)
                    )

                return rpc

            try:
                return await body(connect)
            finally:
                for writer in writers:
                    writer.close()
                    await writer.wait_closed()
                server.close()
                await server.wait_closed()
                await service.stop()

        return asyncio.run(main())

    def test_submit_read_stats_round_trip(self):
        async def body(connect):
            rpc = await connect()
            submit = await rpc(
                {"op": "submit", "session": "tcp", "seq": 0, "cmd": "set"}
            )
            read = await rpc({"op": "read"})
            stats = await rpc({"op": "stats"})
            bad = await rpc({"op": "nope"})
            return submit, read, stats, bad

        submit, read, stats, bad = self.serve(body)
        assert submit["ok"] and submit["status"] == "ok"
        assert read["ok"] and read["commands"] == [["tcp", 0, "set"]]
        assert stats["ok"] and stats["stats"]["committed"] == 1
        assert not bad["ok"]

    def test_unhashable_fields_are_rejected_and_service_survives(self):
        # A JSON array as cmd used to reach the batcher, which died on it
        # (then the pump, then every later client hung, and stop() raised).
        def submit(session, cmd):
            return {"op": "submit", "session": session, "seq": 0, "cmd": cmd}

        async def body(connect):
            rpc = await connect()
            rejected = [
                await rpc(submit("s", ["set", "x", 1])),
                await rpc(submit("s", {"set": "x"})),
                await rpc(submit(["s"], "set")),
            ]
            same = await rpc(submit("s", "set x 1"))
            other = await (await connect())(submit("t", "set y 2"))
            return rejected, same, other

        rejected, same, other = self.serve(body)
        for reply in rejected:
            assert not reply["ok"] and reply["error"] == "bad request"
        assert same["ok"] and same["status"] == "ok"
        assert other["ok"] and other["status"] == "ok"


class TestConfigValidation:
    def test_bad_batching_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(batch_size=0)
        with pytest.raises(ValueError):
            ServiceConfig(max_inflight=0)


def test_drain_helper_reports_quiescence():
    async def main(loop):
        clock = TickClock(loop)
        service = ConsensusService(ServiceConfig(n=3, seed=2), clock)
        service.start()
        await service.submit("d", 0, ("x",))
        drained = await drain(service, clock)
        await service.stop()
        return drained

    assert run_logical(main)


def eight_submits(config, settle):
    """Eight ``try_submit`` on session ``s0``, then ``await settle(service,
    clock)``; returns what it returned, how many futures resolved, and the
    tick at which it returned."""

    async def main(loop):
        clock = TickClock(loop)
        service = ConsensusService(config, clock)
        service.start()
        futures = [service.try_submit("s0", i, ("set", "k", i)) for i in range(8)]
        start = clock.now_ticks()
        settled = await settle(service, clock, futures)
        resolved = sum(f.done() and not f.cancelled() for f in futures)
        ticks = clock.now_ticks() - start
        await service.stop()
        return settled, resolved, ticks

    return run_logical(main)


class TestLiveness:
    def test_pump_steps_while_a_batch_is_in_flight(self):
        # Faulty p0 decides batch 1 at slot 1, p1 and p2 decide noop there;
        # slot 1 is certified noop and no alive replica holds batch 1, so
        # the core has no work.  The pump must keep time moving so that p0
        # crashes at t=538 and the batch is refed to the new leader.
        async def settle(service, clock, futures):
            for _ in range(2000):
                if all(f.done() for f in futures):
                    return True
                await clock.sleep_ticks(1)
            return False

        config = ServiceConfig(n=3, seed=5933, batch_size=4, crash_times={0: 538})
        settled, resolved, _ = eight_submits(config, settle)
        assert settled and resolved == 8

    @pytest.mark.parametrize(
        "seed,crash_times",
        [(865, {2: 431}), (66, {1: 300}), (359, {0: 253}), (7881, {2: 301})],
    )
    def test_drained_means_every_submit_resolved(self, seed, crash_times):
        # The batcher takes a command off the queue only once it has an
        # inflight slot for it, so a command is always in the queue or in
        # flight and drain() cannot miss it.
        async def settle(service, clock, futures):
            return await drain(service, clock)

        config = ServiceConfig(
            n=3, seed=seed, batch_size=1, crash_times=crash_times
        )
        drained, resolved, _ = eight_submits(config, settle)
        assert drained and resolved == 8


def test_pump_sleeps_only_the_rest_of_an_overrun_tick():
    # A burst that takes longer than its tick (here: two ticks, on the
    # logical clock) must be followed at once by the next iteration, not
    # by a further tick of sleep: the tick is a period, not a pause.
    async def main(loop):
        clock = TickClock(loop)
        config = ServiceConfig(n=3, seed=2, batch_size=1)
        service = ConsensusService(config, clock)
        real_step, real_apply = service.core.step, service._apply_certified
        ends = []  # loop time at the end of each pump iteration

        def overrunning_step(steps):
            taken = real_step(steps)
            if not ends:
                loop._advance(2 * clock.tick_seconds)
            return taken

        def apply_certified(tick):
            real_apply(tick)
            ends.append(loop.time())

        service.core.step = overrunning_step
        service._apply_certified = apply_certified
        service.start()
        await service.submit("s", 0, ("set", "x", 0))
        await clock.sleep_ticks(3)
        await service.stop()
        return [round(t / clock.tick_seconds, 9) for t in ends[:4]]

    # The first iteration ends two ticks in; the second starts then and
    # takes no time; from there the pump is back on a one-tick period.
    assert run_logical(main) == [2, 2, 3, 4]
