"""The read audit records what each read served without copying it.

Every read appends ``(certified slots, served)`` to ``read_log``, and
``served`` is a fixed-length view of the append-only ``applied_commands``.
An audit that copied the served prefix on every read would hold
references growing with reads times log length, so the bytes it keeps per
read would grow as the log does; here they stay put from one stretch of
the run to the next, twice as long a log later.
"""

import asyncio
import tracemalloc

import pytest

from repro.service.clock import TickClock
from repro.service.service import ConsensusService, PrefixView, ServiceConfig
from repro.smr.properties import check_certified_reads
from tests.service.conftest import run_logical

CLIENTS = 4
WRITES_PER_STRETCH = 40  # per client: 160 writes and 160 reads a stretch


def audit_bytes_per_read(stretches: int = 2):
    """Closed-loop clients, each read following a write; per stretch, the
    traced bytes the audit frees when it is emptied, per read it held."""

    async def main(loop):
        clock = TickClock(loop)
        service = ConsensusService(ServiceConfig(n=3, seed=0), clock)
        service.start()
        next_seq = [0] * CLIENTS

        async def client(c):
            for _ in range(WRITES_PER_STRETCH):
                seq = next_seq[c]
                next_seq[c] += 1
                await service.submit(f"c{c}", seq, ("put", c, seq))
                await service.read()

        def empty_audit():
            held = tracemalloc.get_traced_memory()[0]
            reads = len(service.read_log)
            service.read_log.clear()
            return (held - tracemalloc.get_traced_memory()[0]) / reads

        per_read = []
        try:
            await asyncio.gather(*(client(c) for c in range(CLIENTS)))
            service.read_log.clear()  # warm-up, allocated before tracing
            tracemalloc.start()
            for _ in range(stretches):
                await asyncio.gather(*(client(c) for c in range(CLIENTS)))
                per_read.append(empty_audit())
        finally:
            tracemalloc.stop()
            await service.stop()
        return per_read

    return run_logical(main)


def test_audit_bytes_per_read_do_not_grow_with_the_log():
    # 23 and 30 bytes a read on CPython 3.11: the entry and its share of
    # one view per apply.  Copying each view held about 1.9 KiB a read in
    # the first stretch and 3.2 KiB in the second.
    first, second = audit_bytes_per_read()
    assert second - first < 64, (first, second)
    assert second < 256, (first, second)


def test_audit_still_names_what_each_read_served():
    async def main(loop):
        clock = TickClock(loop)
        service = ConsensusService(ServiceConfig(n=3, seed=0), clock)
        service.start()
        served = []
        try:
            for seq in range(6):
                await service.submit("s", seq, ("put", seq))
                served.append(await service.read())
        finally:
            await service.stop()
        return service, served

    service, served = run_logical(main)
    assert len(service.read_log) == len(served)
    for (_slots, view), reply in zip(service.read_log, served):
        assert isinstance(view, PrefixView)
        assert tuple(view) == reply
        assert len(view) == len(reply)
        assert list(view) == [view[i] for i in range(len(view))]
        assert view[-1] == reply[-1] and view[1:3] == reply[1:3]
        with pytest.raises(IndexError):
            view[len(view)]
    # The log grew after every view was taken; no view grew with it.
    assert len(service.applied_commands) > len(service.read_log[0][1])
    report = check_certified_reads(
        service.read_log, service.core.logs(), service.core.quorum
    )
    assert report.ok, report.violations


class CountingView(PrefixView):
    """A view that counts how often it is materialized."""

    __slots__ = ("iterated",)

    def __init__(self, items, length):
        super().__init__(items, length)
        self.iterated = 0

    def __iter__(self):
        self.iterated += 1
        return super().__iter__()


def test_audit_materializes_each_distinct_view_once():
    # 3 distinct views served by 30 reads; the 3-command view diverges.
    good = [("s", seq, "put") for seq in range(3)]
    logs = {
        p: [("batch", "svc", seq, (command,)) for seq, command in enumerate(good)]
        for p in range(3)
    }
    views = [
        CountingView(good, 1),
        CountingView(good, 2),
        CountingView(good[:2] + [("s", 2, "forged")], 3),
    ]
    read_log = [(len(views[i % 3]), views[i % 3]) for i in range(30)]
    report = check_certified_reads(read_log, logs, quorum=2)
    assert [view.iterated for view in views] == [1, 1, 1]
    assert not report.ok
    # Every one of the ten reads of the diverging view is reported.
    assert report.violations == [
        "read: served commands diverge from the certified log at prefix 3"
    ] * 10
