"""The replica's direct step == the replica's generator programs.

The kernel steps a replica through one ``ReplicatedLogProcess.step`` call:
an explicit transition over the replica's own state, no generator.  Two
generator renditions are kept here, test-local, as references, each run
on a ``CoroutineRuntime``:

* ``GeneratorReplica`` — the replica as it was written before the step
  became explicit: one ``AnucAutomaton`` state per slot, driven from a
  generator ``program``;
* ``CoroutineSlotReplica`` — one reference coroutine ``AnucProcess``
  (``tests/core/reference_nuc.py``) per slot, with its own context and
  runtime, fed observations.

All three must produce the same run — every step's process, delivered
message, detector value and sends — and the same logs and applied
sequences: on the chaos ``smr`` rows, on a schedule where a laggard falls
slots behind and catches up by replaying stashed traffic, and on a
service-shaped run (unbounded slots, batches fed between bursts, a leader
crash that Omega notices late).
"""

import itertools
import random
from typing import Dict, List, Optional

import pytest

from repro.chaos.matrix import CONFIGS
from repro.chaos.space import draw_case
from repro.core.nuc import AnucAutomaton
from repro.detectors import (
    PairedHistory,
    ScheduleHistory,
    SigmaNuPlus,
    sample_run_history,
)
from repro.kernel.automaton import (
    CoroutineRuntime,
    DeliveredMessage,
    ProcessContext,
)
from repro.kernel.failures import FailurePattern
from repro.kernel.messages import (
    BlockingPolicy,
    FairRandomDelivery,
    build_delivery,
)
from repro.kernel.scheduler import WeightedScheduler, build_scheduler
from repro.kernel.system import System
from repro.smr.replicated_log import DECIDED, FWD, SLOT, ReplicatedLogProcess
from tests.core.reference_nuc import AnucProcess

_ANUC = AnucAutomaton()


class GeneratorReplica(ReplicatedLogProcess):
    """The reference: the replica's slot loop as a generator program."""

    def runtime(self, ctx: ProcessContext) -> CoroutineRuntime:
        return CoroutineRuntime(self, ctx)

    def forward_in_step(self, ctx: ProcessContext, d) -> None:
        sends = []
        self._maybe_forward(ctx.pid, d, sends)
        for dest, payload in sends:
            ctx.send(dest, payload)

    def open_instance(self, ctx: ProcessContext, proposal):
        """Return ``step(message, d, t) -> (sends, decision)`` for a slot."""
        state = _ANUC.initial_state(ctx.pid, ctx.n, proposal)

        def step(message, d, t):
            sends = _ANUC.transition(state, ctx.pid, message, d).sends
            return sends, state.decided

        return step

    def program(self, ctx: ProcessContext):
        stashed: Dict[int, List[DeliveredMessage]] = {}
        decided_notices: Dict[int, object] = {}

        def outer_handler(message: DeliveredMessage) -> bool:
            payload = message.payload
            if payload[0] == DECIDED:
                _, slot, value = payload
                decided_notices.setdefault(slot, value)
                return True
            if payload[0] == FWD:
                self._accept_foreign(payload[1])
                return True
            return False

        ctx.add_handler(outer_handler)

        slot_range = (
            itertools.count() if self.slots is None else range(self.slots)
        )
        for slot in slot_range:
            ctx.log.clear()
            instance = self.open_instance(ctx, self._next_proposal())
            replay = list(stashed.pop(slot, ()))

            while True:
                if slot in decided_notices:
                    value = decided_notices[slot]
                    break
                if replay:
                    message: Optional[DeliveredMessage] = replay.pop(0)
                    obs_time = ctx.time
                    d = ctx.detector_value
                    if d is None:
                        obs = yield from ctx.take_step()
                        d = obs.detector_value
                        obs_time = obs.time
                        if obs.message is not None:
                            self._route(obs.message, slot, stashed)
                else:
                    obs = yield from ctx.take_step()
                    d = obs.detector_value
                    obs_time = obs.time
                    message = None
                    if obs.message is not None:
                        message = self._route(obs.message, slot, stashed)
                if slot in decided_notices:
                    value = decided_notices[slot]
                    break
                self.forward_in_step(ctx, d)
                sends, decision = instance(message, d, obs_time)
                for dest, payload in sends:
                    ctx.send(dest, (SLOT, slot, payload))
                if decision is not None:
                    value = decision
                    ctx.send_to_all((DECIDED, slot, value))
                    break

            decided_notices.setdefault(slot, value)
            self.log.append(value)
            self._purge_chosen(value)
            if value is not None and value[0] != "noop":
                self.applied.append(value)

        while True:
            obs = yield from ctx.take_step()
            self.forward_in_step(ctx, obs.detector_value)
            if obs.message is not None and obs.message.payload[0] == SLOT:
                _, slot, _inner = obs.message.payload
                if slot in decided_notices:
                    ctx.send(
                        obs.message.sender, (DECIDED, slot, decided_notices[slot])
                    )


class CoroutineSlotReplica(GeneratorReplica):
    """The reference with one coroutine ``AnucProcess`` per slot."""

    def open_instance(self, ctx: ProcessContext, proposal):
        inner_ctx = ProcessContext(ctx.pid, ctx.n)
        runtime = CoroutineRuntime(AnucProcess(proposal), inner_ctx)

        def step(message, d, t):
            return runtime.step(message, d, t), inner_ctx.decision

        return step


REFERENCES = (GeneratorReplica, CoroutineSlotReplica)


def test_references_run_on_the_coroutine_runtime():
    # A reference stepped through ReplicatedLogProcess.step would check the
    # direct step against itself.
    for reference in REFERENCES:
        runtime = reference((), slots=None).runtime(ProcessContext(0, 3))
        assert isinstance(runtime, CoroutineRuntime)
    replica = ReplicatedLogProcess((), slots=None)
    assert not isinstance(
        replica.runtime(ProcessContext(0, 3)), CoroutineRuntime
    )


def run_both(make_system, max_steps=None, stop_when=None, drive=None):
    """Run one configuration on the replica and on each reference replica;
    compare it all.  ``drive(system, processes)`` replaces ``run``."""
    outcomes = []
    for replica_cls in (ReplicatedLogProcess,) + REFERENCES:
        system, processes = make_system(replica_cls)
        if drive is not None:
            drive(system, processes)
            result = system.result()
        else:
            stop = None if stop_when is None else (lambda s: stop_when(processes))
            result = system.run(max_steps=max_steps, stop_when=stop)
        outcomes.append((result, processes))
    new, new_procs = outcomes[0]
    for ref, ref_procs in outcomes[1:]:
        assert new.total_steps == ref.total_steps
        for mine, theirs in zip(new.steps, ref.steps):
            assert mine == theirs  # pid, delivery, detector value and sends
        assert new.stop_reason == ref.stop_reason
        for p in new_procs:
            assert new_procs[p].log == ref_procs[p].log, p
            assert new_procs[p].applied == ref_procs[p].applied, p
            assert (
                new_procs[p].pending_commands()
                == ref_procs[p].pending_commands()
            )
    return new, new_procs


@pytest.mark.parametrize("index", range(12))
def test_chaos_smr_rows(index):
    config = CONFIGS["smr-honest"]
    case = draw_case(
        config.name, 0, index, max_steps=config.max_steps, **config.draw_kwargs()
    )
    pattern = case.pattern()
    history = sample_run_history(config.detector(), pattern, case.run_seed())
    commands = case.proposal_map()
    slots = 2

    def make_system(replica_cls):
        processes = {
            p: replica_cls(list(commands.get(p, ())), slots=slots)
            for p in range(case.n)
        }
        system = System(
            processes,
            pattern,
            history,
            seed=case.run_seed(),
            scheduler=build_scheduler(case.scheduler),
            delivery=build_delivery(case.delivery),
        )
        return system, processes

    def logs_full(processes):
        return all(len(processes[p].log) >= slots for p in pattern.correct)

    result, _ = run_both(make_system, case.max_steps, logs_full)
    assert result.stop_reason == "stop_condition"


def test_laggard_replays_stashed_slots():
    # p0 and p1 form a quorum of their own and race ahead; p2 rarely steps
    # and hears no DECIDED notice until late, so the others' traffic for
    # the slots it has not reached piles up in its stash and is replayed,
    # slot by slot, once it gets there.  The notices are released at t=600.
    n, slots = 3, 6
    pattern = FailurePattern(n, {})
    fast, everyone = frozenset({0, 1}), frozenset({0, 1, 2})
    history = PairedHistory(
        [
            ScheduleHistory({p: [(0, 0)] for p in range(n)}),
            ScheduleHistory({0: [(0, fast)], 1: [(0, fast)], 2: [(0, everyone)]}),
        ]
    )
    commands = {p: [("append", p, i) for i in range(2)] for p in range(n)}
    worst_lag = []

    def make_system(replica_cls):
        processes = {p: replica_cls(commands[p], slots=slots) for p in range(n)}
        delivery = BlockingPolicy(
            FairRandomDelivery(),
            blocked=lambda m: m.dest == 2 and m.payload[0] == DECIDED,
        )
        system = System(
            processes,
            pattern,
            history,
            seed=3,
            scheduler=WeightedScheduler({0: 1.0, 1: 1.0, 2: 0.15}, max_gap=400),
            delivery=delivery,
        )
        worst_lag.append(0)
        current[:] = [system]
        return system, processes

    current = []

    def watch_lag(processes):
        # Called before every step, so the links open between two steps.
        if current[0].time >= 600:
            current[0].delivery.release()
        lag = max(len(r.log) for r in processes.values()) - len(processes[2].log)
        worst_lag[-1] = max(worst_lag[-1], lag)
        return all(len(r.log) >= slots for r in processes.values())

    result, processes = run_both(make_system, 40_000, watch_lag)
    assert result.stop_reason == "stop_condition"
    assert worst_lag[0] == worst_lag[1] == worst_lag[2] >= 2
    # The laggard ran its own instance of every slot, on replayed traffic
    # for all but the first, long after the others had left them.
    laggard_slots = {
        m.payload[1]
        for step in result.steps
        if step.pid == 2
        for m in step.sends
        if m.payload[0] == SLOT
    }
    assert laggard_slots == set(range(slots))


def test_service_shaped_failover():
    # The failover_n5 shape at a small size: unbounded logs, one batch fed
    # at the believed leader between 256-step bursts (undecided ones
    # re-fed when the belief moves), p0 crashing while Omega keeps
    # naming it for another 1 000 steps.
    n, crash_at, switch_at, batches = 5, 2_000, 3_000, 24
    pattern = FailurePattern(n, {0: crash_at})
    history = PairedHistory(
        [
            ScheduleHistory({p: [(0, 0), (switch_at, 1)] for p in range(n)}),
            SigmaNuPlus().sample_history(pattern, random.Random(819)),
        ]
    )
    fed = [("batch", "svc", seq, ((seq % 4, seq, f"set k{seq}"),))
           for seq in range(batches)]

    def make_system(replica_cls):
        processes = {p: replica_cls((), slots=None) for p in range(n)}
        return System(processes, pattern, history, seed=11), processes

    def drive(system, processes):
        for burst in range(60):
            t = system.time
            alive = sorted(pattern.alive_at(t))
            leader = history.value(alive[0], t)[0]
            target = leader if pattern.is_alive(leader, t) else alive[0]
            applied = set(processes[target].log)
            for batch in fed[: burst + 1]:
                if batch not in applied:
                    processes[target].feed(batch)
            system.advance(256)

    result, processes = run_both(make_system, drive=drive)
    # Every batch was decided, in seq order, by each correct replica.
    for p in pattern.correct:
        assert [e for e in processes[p].log if e[0] == "batch"] == fed
    assert result.total_steps == 60 * 256
