"""Process formalisms: contexts, coroutine runtime, adapters (Section 2.4)."""

import pytest

from repro.kernel.automaton import (
    Automaton,
    AutomatonProcess,
    AutomatonRuntime,
    CoroutineRuntime,
    DeliveredMessage,
    Observation,
    Process,
    ProcessContext,
    ReplayAutomaton,
    TransitionOutcome,
)


def obs(message=None, d=None, time=0):
    return Observation(message=message, detector_value=d, time=time)


class EchoProcess(Process):
    """Replies 'echo:<payload>' to every received message."""

    def program(self, ctx):
        while True:
            o = yield from ctx.take_step()
            if o.message is not None:
                ctx.send(o.message.sender, f"echo:{o.message.payload}")


class CountingProcess(Process):
    """Decides after seeing `threshold` messages; outputs its step count."""

    def __init__(self, threshold=2):
        self.threshold = threshold

    def program(self, ctx):
        seen = 0
        while True:
            o = yield from ctx.take_step()
            ctx.output(ctx.step_count)
            if o.message is not None:
                seen += 1
                if seen >= self.threshold:
                    ctx.decide(seen)


class InitSenderProcess(Process):
    """Sends before its first take_step; sends belong to the first step."""

    def program(self, ctx):
        ctx.send_to_all("hello")
        while True:
            yield from ctx.take_step()


class TestProcessContext:
    def test_send_queues_until_step_boundary(self):
        ctx = ProcessContext(0, 3)
        runtime = CoroutineRuntime(EchoProcess(), ctx)
        sends = runtime.step(*obs(DeliveredMessage(2, "hi")))
        assert sends == [(2, "echo:hi")]

    def test_send_to_all_includes_self_by_default(self):
        ctx = ProcessContext(1, 3)
        ctx.send_to_all("x")
        assert ctx._outbox == [(0, "x"), (1, "x"), (2, "x")]

    def test_send_to_all_can_exclude_self(self):
        ctx = ProcessContext(1, 3)
        ctx.send_to_all("x", include_self=False)
        assert ctx._outbox == [(0, "x"), (2, "x")]

    def test_log_and_inbox_track_messages(self):
        ctx = ProcessContext(0, 2)
        runtime = CoroutineRuntime(EchoProcess(), ctx)
        runtime.step(*obs(DeliveredMessage(1, "a")))
        runtime.step(*obs(None))
        runtime.step(*obs(DeliveredMessage(1, "b")))
        assert [m.payload for m in ctx.log] == ["a", "b"]
        assert [m.payload for m in ctx.inbox] == ["a", "b"]

    def test_handler_consumes_messages(self):
        ctx = ProcessContext(0, 2)
        seen = []
        ctx.add_handler(lambda m: (seen.append(m.payload), True)[1])
        runtime = CoroutineRuntime(EchoProcess(), ctx)
        runtime.step(*obs(DeliveredMessage(1, "consumed")))
        assert seen == ["consumed"]
        assert ctx.inbox == []  # consumed, not queued
        assert [m.payload for m in ctx.log] == ["consumed"]  # still logged

    def test_decide_is_irrevocable(self):
        ctx = ProcessContext(0, 2)
        ctx.decide("v")
        ctx.decide("v")  # idempotent
        with pytest.raises(RuntimeError):
            ctx.decide("w")

    def test_decision_time_recorded(self):
        ctx = ProcessContext(0, 2)
        runtime = CoroutineRuntime(CountingProcess(threshold=1), ctx)
        runtime.step(*obs(DeliveredMessage(1, "x"), time=17))
        assert ctx.decision == 1
        assert ctx.decision_time == 17

    def test_output_appends_history(self):
        ctx = ProcessContext(0, 2)
        runtime = CoroutineRuntime(CountingProcess(), ctx)
        runtime.step(*obs(None, time=3))
        runtime.step(*obs(None, time=9))
        assert ctx.outputs == [(3, 1), (9, 2)]

    def test_received_queries_log(self):
        ctx = ProcessContext(0, 3)
        runtime = CoroutineRuntime(EchoProcess(), ctx)
        runtime.step(*obs(DeliveredMessage(1, ("T", 1))))
        runtime.step(*obs(DeliveredMessage(2, ("U", 1))))
        runtime.step(*obs(DeliveredMessage(1, ("T", 2))))
        ts = ctx.received(lambda m: m.payload[0] == "T")
        assert [m.payload for m in ts] == [("T", 1), ("T", 2)]
        per_sender = ctx.received_from([1, 2], lambda m: True)
        assert per_sender[1].payload == ("T", 1)
        assert per_sender[2].payload == ("U", 1)


class TestCoroutineRuntime:
    def test_init_sends_attach_to_first_step(self):
        ctx = ProcessContext(0, 2)
        runtime = CoroutineRuntime(InitSenderProcess(), ctx)
        sends = runtime.step(*obs(None))
        assert sends == [(0, "hello"), (1, "hello")]
        assert runtime.step(*obs(None)) == []

    def test_halted_program_keeps_taking_noop_steps(self):
        class OneShot(Process):
            def program(self, ctx):
                yield from ctx.take_step()
                # returns => halts

        ctx = ProcessContext(0, 1)
        runtime = CoroutineRuntime(OneShot(), ctx)
        runtime.step(*obs(None))
        runtime.step(*obs(None))
        assert runtime.halted
        assert runtime.step(*obs(DeliveredMessage(0, "late"))) == []

    def test_observation_fields_exposed_on_ctx(self):
        ctx = ProcessContext(0, 2)
        runtime = CoroutineRuntime(EchoProcess(), ctx)
        runtime.step(*obs(None, d="leader-3", time=42))
        assert ctx.detector_value == "leader-3"
        assert ctx.time == 42
        assert ctx.step_count == 1


class Adder(Automaton):
    """Pure automaton summing detector values; decides past a threshold."""

    def initial_state(self, pid, n, proposal):
        return {"sum": 0, "threshold": proposal}

    def transition(self, state, pid, msg, d):
        state["sum"] += d
        sends = [(pid, "tick")] if msg is None else []
        return TransitionOutcome(state=state, sends=sends)

    def decision(self, state):
        return state["sum"] if state["sum"] >= state["threshold"] else None


class TestAutomatonProcess:
    def test_runs_automaton_and_decides(self):
        ctx = ProcessContext(0, 1)
        proc = AutomatonProcess(Adder(), proposal=5)
        runtime = proc.runtime(ctx)
        runtime.step(*obs(None, d=2))
        assert ctx.decision is None
        runtime.step(*obs(None, d=4))
        assert ctx.decision == 6

    def test_exposes_current_state(self):
        ctx = ProcessContext(0, 1)
        proc = AutomatonProcess(Adder(), proposal=100)
        runtime = proc.runtime(ctx)
        runtime.step(*obs(None, d=3))
        assert proc.state["sum"] == 3

    def test_forwards_sends(self):
        ctx = ProcessContext(0, 1)
        proc = AutomatonProcess(Adder(), proposal=100)
        runtime = proc.runtime(ctx)
        sends = runtime.step(*obs(None, d=0))
        assert sends == [(0, "tick")]

    def test_steps_without_a_generator(self):
        proc = AutomatonProcess(Adder(), proposal=100)
        assert proc.state is None  # no runtime bound yet
        runtime = proc.runtime(ProcessContext(0, 1))
        assert isinstance(runtime, AutomatonRuntime)
        assert proc.state == {"sum": 0, "threshold": 100}


class TestReplayAutomaton:
    def test_replay_matches_direct_coroutine_run(self):
        history = [
            (DeliveredMessage(1, "a"), None),
            (None, None),
            (DeliveredMessage(1, "b"), None),
        ]
        # direct run
        ctx = ProcessContext(0, 2)
        runtime = CoroutineRuntime(EchoProcess(), ctx)
        direct = [runtime.step(*obs(m, d)) for m, d in history]

        # replayed as a pure automaton
        replay = ReplayAutomaton(lambda proposal: EchoProcess(), n=2)
        state = replay.initial_state(0, 2, proposal=None)
        replayed = []
        for m, d in history:
            outcome = replay.transition(state, 0, m, d)
            state = outcome.state
            replayed.append(outcome.sends)
        assert replayed == direct

    def test_replay_reports_decisions(self):
        replay = ReplayAutomaton(lambda proposal: CountingProcess(2), n=2)
        state = replay.initial_state(0, 2, proposal=None)
        state = replay.transition(state, 0, DeliveredMessage(1, "x"), None).state
        assert replay.decision(state) is None
        state = replay.transition(state, 0, DeliveredMessage(1, "y"), None).state
        assert replay.decision(state) == 2

    def test_snapshot_reflects_history(self):
        replay = ReplayAutomaton(lambda proposal: EchoProcess(), n=2)
        s0 = replay.initial_state(0, 2, proposal="p")
        s1 = replay.transition(s0, 0, None, "d").state
        assert replay.snapshot(s1) == (0, "p", ((None, "d"),))


class TestRuntimeErrorContext:
    def test_process_exceptions_carry_pid_and_step(self):
        class Exploder(Process):
            def program(self, ctx):
                yield from ctx.take_step()
                yield from ctx.take_step()
                raise ValueError("boom")

        ctx = ProcessContext(3, 4)
        runtime = CoroutineRuntime(Exploder(), ctx)
        runtime.step(*obs(None))  # completes the first take_step cleanly
        with pytest.raises(RuntimeError, match=r"process 3 \(Exploder\).*boom"):
            runtime.step(*obs(None))

    def test_automaton_exceptions_carry_pid_and_step(self):
        class Exploder(Automaton):
            def initial_state(self, pid, n, proposal):
                return 0

            def transition(self, state, pid, msg, d):
                if state == 1:
                    raise ValueError("boom")
                return TransitionOutcome(state=state + 1, sends=[])

        ctx = ProcessContext(3, 4)
        proc = AutomatonProcess(Exploder(), proposal=None)
        runtime = proc.runtime(ctx)
        runtime.step(*obs(None))  # the first transition completes cleanly
        with pytest.raises(
            RuntimeError,
            match=r"process 3 \(Exploder\) crashed at step 2 "
            r"\(t=5\): boom",
        ):
            runtime.step(*obs(None, time=5))
