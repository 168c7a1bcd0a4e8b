"""Process formalisms (Section 2.4): automata and coroutine processes.

The model defines an algorithm as a collection of deterministic automata, one
per process.  A step atomically (a) receives one message or lambda, (b)
queries the local failure detector module, (c) changes state, and (d) sends
messages.

Two renditions are provided:

* :class:`Automaton` — a *pure* state machine with an explicit transition
  function.  This form is replayable from any initial configuration along any
  schedule, which the simulated-schedules machinery of Section 4.2 (and the
  run merging of Lemma 2.2) requires.  Consensus algorithms that act as the
  subject ``A`` of the necessity construction, ``A_nuc`` among them, are
  written in this form.

* :class:`Process` — a generator-coroutine process for the live
  infrastructure algorithms (``A_DAG``, the two transformations, the
  Theorem 6.28 stack).  One ``yield`` corresponds to one model step, so the
  paper's pseudocode (loops with blocking waits) transcribes almost line by
  line.

The kernel makes one ``runtime.step(message, d, t)`` call per model step on
the object ``process.runtime(ctx)`` returned.  :class:`CoroutineRuntime`
(the default) resumes the coroutine ``program``; :class:`AutomatonRuntime`
calls an automaton's ``transition`` directly, with no generator in between.
A process with explicit state may be its own runtime (the replicated log's
replica is).  :class:`AutomatonProcess` runs a pure automaton live, on
:class:`AutomatonRuntime`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Generator,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.kernel.messages import Message


class DeliveredMessage(NamedTuple):
    """What a process sees when it receives a message: sender + payload."""

    sender: int
    payload: Any


class Observation(NamedTuple):
    """Everything a process observes in one step."""

    message: Optional[DeliveredMessage]
    detector_value: Any
    time: int


Send = Tuple[int, Any]  # (destination pid, payload)


# ----------------------------------------------------------------------
# Pure automata
# ----------------------------------------------------------------------


@dataclass
class TransitionOutcome:
    """Result of one automaton step: the new state plus sent messages."""

    state: Any
    sends: List[Send]


class Automaton:
    """A deterministic per-process state machine.

    ``transition`` may mutate and return the ``state`` it was given; callers
    that need to branch must re-run schedules from an initial configuration
    rather than share state objects (the schedule simulator does exactly
    that).  ``transition`` must be deterministic in ``(state, msg, d)``.
    """

    def initial_state(self, pid: int, n: int, proposal: Any) -> Any:
        raise NotImplementedError

    def transition(
        self, state: Any, pid: int, msg: Optional[DeliveredMessage], d: Any
    ) -> TransitionOutcome:
        raise NotImplementedError

    def decision(self, state: Any) -> Optional[Any]:
        """The value decided in ``state``, or ``None``."""
        return None

    def copy_state(self, state: Any) -> Any:
        """An independent copy of ``state``, safe to transition separately.

        Because ``transition`` may mutate in place, anything that branches a
        configuration (the simulation trie's snapshots, the bounded
        explorer) must copy states first.  The default deep-copies; automata
        with simple state layouts should override with something cheaper.
        """
        import copy

        return copy.deepcopy(state)

    def snapshot(self, state: Any) -> Any:
        """A comparable, immutable summary of ``state``.

        Used by the Lemma 2.2 merging tests to check that a process's state
        in the merged run equals its state in the original run.  The default
        uses ``repr``; automata with richer states may override.
        """
        return repr(state)


# ----------------------------------------------------------------------
# Coroutine processes
# ----------------------------------------------------------------------


class ProcessContext:
    """Per-process runtime services available to a coroutine process.

    The context mediates the one-yield-per-step protocol, collects outgoing
    messages, maintains the receive log, dispatches *upon receipt* handlers
    (the ``cobegin`` clauses of the pseudocode), and records decisions and
    emulated failure-detector outputs.
    """

    def __init__(self, pid: int, n: int):
        self.pid = pid
        self.n = n
        self.time: int = 0
        self.detector_value: Any = None
        self.step_count: int = 0
        self.log: List[DeliveredMessage] = []
        self.decision: Optional[Any] = None
        self.decision_time: Optional[int] = None
        self.outputs: List[Tuple[int, Any]] = []  # (time, value) assignments
        self._outbox: List[Send] = []
        self._handlers: List[Callable[[DeliveredMessage], bool]] = []

    # -- sending ---------------------------------------------------------

    def send(self, dest: int, payload: Any) -> None:
        """Queue ``payload`` for ``dest``; emitted at this step's end."""
        self._outbox.append((dest, payload))

    def send_to_all(self, payload: Any, include_self: bool = True) -> None:
        """The pseudocode's ``send ... to all`` (self included, as usual)."""
        for dest in range(self.n):
            if include_self or dest != self.pid:
                self._outbox.append((dest, payload))

    # -- handlers (the `upon receipt of` clauses) -------------------------

    def add_handler(self, handler: Callable[[DeliveredMessage], bool]) -> None:
        """Register an upon-receipt handler.

        Handlers run in registration order within the receiving step, after
        the message is logged and before the main program resumes.  A
        handler returning ``True`` consumes the message: the handlers
        registered after it do not see it.
        """
        self._handlers.append(handler)

    # -- stepping ---------------------------------------------------------

    def take_step(self) -> Generator[List[Send], Observation, Observation]:
        """Advance one model step.  Use as ``obs = yield from ctx.take_step()``.

        Yields this step's queued sends to the runtime and receives the next
        observation (message-or-lambda, detector value, time).
        """
        out, self._outbox = self._outbox, []
        obs = yield out
        self.time = obs.time
        self.detector_value = obs.detector_value
        self.step_count += 1
        if obs.message is not None:
            self.log.append(obs.message)
            for handler in self._handlers:
                if handler(obs.message):
                    break
        return obs

    # -- results ------------------------------------------------------------

    def decide(self, value: Any) -> None:
        """Record an (irrevocable) decision."""
        if self.decision is not None:
            if self.decision != value:
                raise RuntimeError(
                    f"process {self.pid} tried to re-decide "
                    f"{value!r} after deciding {self.decision!r}"
                )
            return
        self.decision = value
        self.decision_time = self.time

    def output(self, value: Any) -> None:
        """Assign the emulated failure detector output variable.

        This is the ``output_p`` of Section 2.9; the recorded assignment
        history ``O_R`` is what the transformation theorems constrain.
        """
        self.outputs.append((self.time, value))


class Process:
    """A process the kernel steps.  Coroutine processes implement
    :meth:`program`; :class:`AutomatonProcess` and processes with explicit
    state override :meth:`runtime` instead.

    ``program`` must be a generator that interacts with the runtime only via
    ``yield from ctx.take_step()`` (or helpers built on it).  Code between two
    ``take_step`` calls executes within a single atomic model step.
    """

    def program(
        self, ctx: ProcessContext
    ) -> Generator[List[Send], Observation, None]:
        raise NotImplementedError

    def initial_output(self) -> Any:
        """Initial value of the emulated detector output, if any."""
        return None

    def runtime(self, ctx: ProcessContext) -> Any:
        """What the kernel steps: ``step(message, d, t)`` receives
        ``message`` (``sender`` + ``payload``, or ``None`` for lambda) and
        detector value ``d`` at time ``t`` and returns the step's sends."""
        return CoroutineRuntime(self, ctx)


def step_failure(name: str, ctx: ProcessContext, t: int, exc: Exception):
    """The error a runtime raises when a process's step raises ``exc``."""
    return RuntimeError(
        f"process {ctx.pid} ({name}) crashed at step {ctx.step_count} "
        f"(t={t}): {exc}"
    )


class CoroutineRuntime:
    """Drives one coroutine process through the step protocol."""

    def __init__(self, process: Process, ctx: ProcessContext):
        self.process = process
        self.ctx = ctx
        self._gen = process.program(ctx)
        self._primed = False
        self._pending_init_sends: List[Send] = []
        self.halted = False

    def step(self, message: Any, d: Any, t: int) -> List[Send]:
        """Run one step: feed the observation, return the step's sends."""
        if self.halted:
            # A halted (returned) program keeps taking no-op steps so the
            # admissibility properties remain satisfiable; delivered
            # messages are consumed without effect.
            return []
        if message is not None:
            message = DeliveredMessage(message.sender, message.payload)
        observation = Observation(message, d, t)
        try:
            if not self._primed:
                # Run initialization up to the first take_step yield.  Sends
                # queued during initialization belong to the first step.
                self._pending_init_sends = next(self._gen)
                self._primed = True
            sends = self._gen.send(observation)
        except StopIteration:
            self.halted = True
            sends = []
        except Exception as exc:
            name = type(self.process).__name__
            raise step_failure(name, self.ctx, t, exc) from exc
        init = self._pending_init_sends
        if not init:
            return sends  # the program's own list: take_step hands it over
        self._pending_init_sends = []
        return list(init) + list(sends)


class AutomatonRuntime:
    """Drives a pure automaton: one step is one ``transition`` call, and
    the automaton's decision is recorded on ``ctx`` when it appears."""

    __slots__ = ("automaton", "ctx", "state")

    def __init__(self, automaton: Automaton, proposal: Any, ctx: ProcessContext):
        self.automaton = automaton
        self.ctx = ctx
        self.state = automaton.initial_state(ctx.pid, ctx.n, proposal)

    def step(self, message: Any, d: Any, t: int) -> List[Send]:
        ctx = self.ctx
        ctx.step_count += 1
        if message is not None:
            message = DeliveredMessage(message.sender, message.payload)
        try:
            outcome = self.automaton.transition(self.state, ctx.pid, message, d)
            self.state = state = outcome.state
            if ctx.decision is None:
                decision = self.automaton.decision(state)
                if decision is not None:
                    ctx.time = t
                    ctx.decide(decision)
        except Exception as exc:
            name = type(self.automaton).__name__
            raise step_failure(name, ctx, t, exc) from exc
        return outcome.sends


# ----------------------------------------------------------------------
# Adapter
# ----------------------------------------------------------------------


class AutomatonProcess(Process):
    """Run a pure automaton as a live process (on :class:`AutomatonRuntime`)."""

    def __init__(self, automaton: Automaton, proposal: Any):
        self.automaton = automaton
        self.proposal = proposal
        self._runtime: Optional[AutomatonRuntime] = None

    def runtime(self, ctx: ProcessContext) -> AutomatonRuntime:
        self._runtime = AutomatonRuntime(self.automaton, self.proposal, ctx)
        return self._runtime

    @property
    def state(self) -> Any:
        """The current state (``None`` before a runtime is bound)."""
        return None if self._runtime is None else self._runtime.state
