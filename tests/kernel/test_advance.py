"""The burst step loop: ``advance(k)`` is ``k`` times ``step()``.

``System.advance`` keeps the step's working set in locals across a burst,
so what could go wrong is state carried across burst boundaries: the
crash-epoch cursor, the clock, the RNG streams, the buffer.  Two systems
built alike, one advanced in uneven bursts and one stepped one at a time,
must agree on all of it after every burst, also when a driver crashes
processes (:meth:`System.crash`) or opens blocked links between steps.
A crash made mid-run must equal the same crash fixed in the pattern from
the start.  ``run()`` is pinned against fingerprints taken from the
per-step loop it replaced.
"""

import hashlib
import random

import pytest

from repro.consensus.quorum_mr import QuorumMR
from repro.detectors import Omega, PairedDetector, Sigma
from repro.kernel.automaton import AutomatonProcess
from repro.kernel.failures import FailurePattern
from repro.kernel.messages import BlockingPolicy, FairRandomDelivery
from repro.kernel.system import STEP_TAKEN, System, all_correct_decided
from tests.core.reference_nuc import AnucProcess

BURSTS = [1, 7, 0, 33, 2, 100, 5, 1, 64, 300]


def build(
    crashes, trace="full", n=4, seed=5, live=None, blocking=False,
    coroutine=False,
):
    """A QuorumMR system (the coroutine reference A_nuc if ``coroutine``).

    The history is sampled for ``crashes``.  The crashes named in ``live``
    are left out of the system's pattern, for the driver to make with
    :meth:`System.crash`.
    """
    frozen = FailurePattern(n, crashes)
    detector = PairedDetector(Omega(), Sigma("pivot"))
    history = detector.sample_history(frozen, random.Random(seed))
    pattern = FailurePattern(
        n, {p: t for p, t in crashes.items() if p not in (live or ())}
    )
    delivery = None
    if blocking:
        delivery = BlockingPolicy(
            FairRandomDelivery(), blocked=lambda m: m.sender == 0 and m.dest != 0
        )
    if coroutine:
        processes = {p: AnucProcess(p % 2) for p in range(n)}
    else:
        processes = {p: AutomatonProcess(QuorumMR(), p % 2) for p in range(n)}
    return System(
        processes, pattern, history, delivery=delivery, seed=seed, trace=trace
    )


def events_of(crashes, live=None, release_at=None):
    """``{time: action}``: the live crashes, and the release of the links."""
    events = {}
    for p in live or ():
        events.setdefault(crashes[p], []).append(lambda s, p=p: s.crash([p]))
    if release_at is not None:
        events.setdefault(release_at, []).append(lambda s: s.delivery.release())
    return events


def fire(system, events):
    for action in events.get(system.time, ()):
        action(system)


def advance(system, size, events):
    """``advance(size)``, split only where an event falls due."""
    taken = 0
    while True:
        fire(system, events)
        due = [t for t in events if system.time < t < system.time + size - taken]
        burst = (min(due) - system.time) if due else size - taken
        got = system.advance(burst)
        taken += got
        if got < burst or not due:
            return taken


def step(system, events):
    fire(system, events)
    return system.step()


def observable_state(system):
    result = system.result()
    return {
        "time": system.time,
        "steps": list(result.steps),
        "queried": {p: list(q) for p, q in result.queried.items()},
        "decisions": (result.decisions, result.decision_times),
        "outputs": result.outputs,
        "counts": (
            result.total_steps,
            result.final_time,
            result.messages_sent,
            result.messages_delivered,
            system.buffer.discarded_count,
        ),
        "sched_rng": system._sched_rng.getstate(),
        "dest_rngs": {p: r.getstate() for p, r in system._dest_rngs.items()},
        "buffer": {
            p: [
                (entry.message, entry.age_in_dest_steps)
                for entry in system.buffer.entries_for(p)
            ]
            for p in range(system.n)
        },
    }


CONFIGS = {
    "full": dict(crashes={3: 40}),
    "metrics": dict(crashes={3: 40}, trace="metrics"),
    "crash-epochs-inside-bursts": dict(crashes={1: 9, 4: 23, 2: 23}, n=5),
    "blocking-policy": dict(crashes={3: 40}, blocking=True, release_at=90),
    "blocking-policy-metrics": dict(
        crashes={3: 40}, blocking=True, release_at=90, trace="metrics"
    ),
    "deferred-pattern": dict(crashes={3: 25, 0: 130}, live=(3, 0)),
    "deferred-pattern-coroutine": dict(
        crashes={3: 25, 0: 130}, live=(3, 0), coroutine=True
    ),
}


def split(config):
    config = dict(config)
    release_at = config.pop("release_at", None)
    return config, events_of(config["crashes"], config.get("live"), release_at)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_bursts_equal_single_steps(name):
    config, events = split(CONFIGS[name])
    burst, single = build(**config), build(**config)
    for size in BURSTS:
        assert advance(burst, size, events) == size
        for _ in range(size):
            assert step(single, events) is not None
        assert observable_state(burst) == observable_state(single), size
    assert burst.time == sum(BURSTS)


@pytest.mark.parametrize("coroutine", [False, True], ids=["automaton", "coroutine"])
@pytest.mark.parametrize("trace", ["full", "metrics"])
@pytest.mark.parametrize("bursts", [False, True], ids=["steps", "bursts"])
def test_crash_mid_run_equals_crash_in_pattern(coroutine, trace, bursts):
    crashes = {1: 9, 3: 40, 2: 40, 0: 170}
    kwargs = dict(crashes=crashes, n=5, trace=trace, coroutine=coroutine)
    upfront = build(**kwargs)
    live = build(live=(1, 3, 2), **kwargs)
    events = events_of(crashes, live=(1, 3, 2))
    for size in BURSTS:
        upfront.advance(size)
        if bursts:
            advance(live, size, events)
        else:
            for _ in range(size):
                step(live, events)
    assert live.pattern == upfront.pattern
    assert live.result() == upfront.result()
    assert observable_state(live) == observable_state(upfront)


def test_crash_of_a_crashed_process_keeps_its_time():
    system = build({3: 40})
    system.advance(60)
    system.crash([3, 1])
    assert system.pattern == FailurePattern(4, {3: 40, 1: 60})
    assert system.advance(40) == 40
    assert {s.pid for s in system.steps[60:]} == {0, 2}


def test_step_keeps_its_return_contract():
    full, metrics = build({3: 40}), build({3: 40}, trace="metrics")
    record = full.step()
    assert record is full.steps[-1] and record.index == 0 and record.time == 0
    assert metrics.step() is STEP_TAKEN
    full.advance(10)
    assert full.step() is full.steps[-1] and full.steps[-1].index == 11


@pytest.mark.parametrize("trace", ["full", "metrics"])
def test_all_crashed_ends_a_burst_early(trace):
    crashes = {0: 5, 1: 9, 2: 12}
    burst = build(crashes, n=3, trace=trace)
    single = build(crashes, n=3, trace=trace)
    assert burst.advance(50) == 12  # one step per time unit until t=12
    while single.step() is not None:
        pass
    assert observable_state(burst) == observable_state(single)
    assert burst.advance(50) == 0 and burst.step() is None
    assert burst.time == 12


# ----------------------------------------------------------------------
# run(): pinned against the per-step loop of the parent commit
# ----------------------------------------------------------------------


def fingerprint(result) -> str:
    h = hashlib.sha256()
    for part in (
        result.stop_reason,
        result.total_steps,
        result.final_time,
        sorted(result.decisions.items()),
        sorted(result.decision_times.items()),
        result.messages_sent,
        result.messages_delivered,
        [repr(step) for step in result.steps],
        sorted(result.queried.items()),
    ):
        h.update(repr(part).encode())
    return h.hexdigest()[:16]


def after(k):
    return lambda system: system.time >= k


RUNS = {
    # name: (build kwargs, run kwargs, stop_reason, total_steps, fingerprint)
    "budget-only": (
        dict(crashes={3: 40}), dict(max_steps=600),
        "max_steps", 600, "d08b1c79e064195e",
    ),
    "budget-only-metrics": (
        dict(crashes={3: 40}, trace="metrics"), dict(max_steps=600),
        "max_steps", 600, "b1bcd652898034c1",
    ),
    "stop-when-decided": (
        dict(crashes={3: 40}),
        dict(max_steps=3000, stop_when=all_correct_decided),
        "stop_condition", None, "d0203c19464edd88",
    ),
    "stop-plus-extra": (
        dict(crashes={3: 40}),
        dict(max_steps=3000, stop_when=all_correct_decided, extra_steps=25),
        "stop_condition", None, "dbd530dc07a95394",
    ),
    "extra-outlasts-budget": (
        dict(crashes={3: 40}),
        dict(max_steps=120, stop_when=after(100), extra_steps=50),
        "max_steps", 120, "5a9b21bb429f0a46",
    ),
    "extra-exactly-budget": (
        dict(crashes={3: 40}),
        dict(max_steps=150, stop_when=after(100), extra_steps=50),
        "max_steps", 150, "3cd8dc84cc3cf2f0",
    ),
    "stop-holds-at-start": (
        dict(crashes={3: 40}),
        dict(max_steps=100, stop_when=after(0)),
        "stop_condition", 0, "74d30be9aa03d750",
    ),
    "never-stops": (
        dict(crashes={3: 40}),
        dict(max_steps=200, stop_when=after(10**9), extra_steps=5),
        "max_steps", 200, "3193934c3bb07042",
    ),
    "all-crashed-before-stop": (
        dict(crashes={0: 5, 1: 9, 2: 12}, n=3),
        dict(max_steps=100, stop_when=after(50)),
        "all_crashed", 12, "ff0f39257e68ceed",
    ),
    "all-crashed-in-extra": (
        dict(crashes={0: 5, 1: 9, 2: 12}, n=3),
        dict(max_steps=100, stop_when=after(8), extra_steps=20),
        "all_crashed", 12, "ff0f39257e68ceed",
    ),
    "all-crashed-no-stop": (
        dict(crashes={0: 5, 1: 9, 2: 12}, n=3, trace="metrics"),
        dict(max_steps=100),
        "all_crashed", 12, "40a152613870d090",
    ),
    "zero-budget": (
        dict(crashes={3: 40}), dict(max_steps=0),
        "max_steps", 0, "1c64e20033d5f122",
    ),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_pinned_result(name):
    build_kwargs, run_kwargs, reason, total, pinned = RUNS[name]
    result = build(**build_kwargs).run(**run_kwargs)
    assert result.stop_reason == reason
    if total is not None:
        assert result.total_steps == total
    assert fingerprint(result) == pinned


if __name__ == "__main__":  # prints the table of fingerprints to pin
    for name in sorted(RUNS):
        build_kwargs, run_kwargs, *_ = RUNS[name]
        result = build(**build_kwargs).run(**run_kwargs)
        print(name, result.stop_reason, result.total_steps, fingerprint(result))
