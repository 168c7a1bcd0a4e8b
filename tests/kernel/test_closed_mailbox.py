"""A crashed process's mailbox is closed.

A crashed process takes no more steps, so nothing addressed to it can be
received.  The buffer drops what is pending for it when it crashes and
queues nothing sent to it later, so the buffer of a long run holds only
what correct processes have still to receive.  The replicated log with no
commands decides ``noop`` slots without end and broadcasts every decision,
a steady stream of traffic to the crashed replica; a buffer that kept that
traffic would hold over 5 000 messages for it at the first horizon here
and twice that at the second.
"""

import random
import tracemalloc

import pytest

from repro.detectors import Omega, PairedDetector, SigmaNuPlus
from repro.kernel.failures import FailurePattern
from repro.kernel.system import System
from repro.smr.replicated_log import ReplicatedLogProcess

N, CRASHED, CRASH_AT = 3, 2, 100
HORIZONS = (20_000, 40_000)
IN_FLIGHT_BOUND = 64  # at most 10 seen at either horizon


def replicated_log(live_crash=False):
    """n=3 replicas, p2 crashing at t=100: fixed in the pattern, or made
    mid-run with :meth:`System.crash` if ``live_crash``."""
    crashes = {CRASHED: CRASH_AT}
    history = PairedDetector(Omega(), SigmaNuPlus()).sample_history(
        FailurePattern(N, crashes), random.Random(0)
    )
    pattern = FailurePattern(N, {} if live_crash else crashes)
    processes = {p: ReplicatedLogProcess((), slots=None) for p in range(N)}
    system = System(processes, pattern, history, seed=0, trace="metrics")
    if live_crash:
        system.advance(CRASH_AT)
        system.crash([CRASHED])
    return system


def advance_to(system, horizon):
    steps = horizon - system.time
    assert system.advance(steps) == steps


@pytest.mark.parametrize(
    "live_crash", [False, True], ids=["crash-in-pattern", "crash-mid-run"]
)
def test_no_mail_is_kept_for_the_crashed_replica(live_crash):
    system = replicated_log(live_crash)
    buffer = system.buffer
    discarded = []
    for horizon in HORIZONS:
        advance_to(system, horizon)
        assert not buffer.has_pending(CRASHED)
        assert buffer.in_flight <= IN_FLIGHT_BOUND
        assert buffer.sent_count == (
            buffer.delivered_count
            + buffer.superseded_count
            + buffer.discarded_count
            + buffer.in_flight
        )
        discarded.append(buffer.discarded_count)
    # The crashed replica kept being sent to between the horizons.
    assert discarded[1] - discarded[0] > 1000


def test_retained_bytes_do_not_grow_with_the_run():
    # What the second half of the run allocates and still holds at its
    # end: about 34 KiB on CPython 3.11, the replicas' logs and decision
    # notices.  A buffer that kept the crashed replica's mail held about
    # 4 MiB more.
    system = replicated_log()
    advance_to(system, HORIZONS[0])
    tracemalloc.start()
    try:
        advance_to(system, HORIZONS[1])
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 256 * 1024
