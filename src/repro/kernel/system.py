"""The live system: wiring processes, buffer, detector history and scheduler.

One :class:`System` executes one run of an algorithm using a failure detector
under a failure pattern.  The global discrete clock ticks once per step, so
step indices, crash times and detector history times share one time base.

Determinism: a ``(configuration, seed)`` pair fully determines the run.  Each
process's delivery choices are drawn from its own private stream and depend
only on its local observation history — a property the Theorem 7.1 partition
adversary relies on (see :mod:`repro.kernel.messages`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.kernel.automaton import Process, ProcessContext
from repro.kernel.failures import FailurePattern
from repro.kernel.messages import (
    DeliveryPolicy,
    FairRandomDelivery,
    Message,
    MessageBuffer,
)
from repro.kernel.scheduler import RandomFairScheduler, SchedulingPolicy
from repro import obs as _obs


class StepRecord(NamedTuple):
    """One executed step of the live system."""

    index: int
    time: int
    pid: int
    message: Optional[Message]
    detector_value: Any
    sends: Tuple[Message, ...]


@dataclass
class RunResult:
    """Everything recorded about one finite live run.

    Under ``trace="metrics"`` the step-by-step trace is not retained:
    ``steps`` and ``queried`` are empty while ``total_steps``, decisions,
    outputs and message accounting are still exact.  The ``steps`` and
    ``queried`` containers are handed off from the system without copying;
    they are owned by the result once the run is over.
    """

    n: int
    pattern: FailurePattern
    steps: List[StepRecord]
    decisions: Dict[int, Any]
    decision_times: Dict[int, int]
    outputs: Dict[int, List[Tuple[int, Any]]]
    initial_outputs: Dict[int, Any]
    queried: Dict[int, List[Tuple[int, Any]]]
    stop_reason: str
    final_time: int
    messages_sent: int
    messages_delivered: int
    total_steps: int = -1

    def __post_init__(self) -> None:
        if self.total_steps < 0:
            self.total_steps = len(self.steps)

    @property
    def step_count(self) -> int:
        return self.total_steps

    def decided_correct(self) -> Dict[int, Any]:
        return {
            p: v for p, v in self.decisions.items() if p in self.pattern.correct
        }

    def steps_of(self, pid: int) -> List[StepRecord]:
        return [s for s in self.steps if s.pid == pid]

    def __repr__(self) -> str:
        return (
            f"RunResult(steps={self.total_steps}, decisions={self.decisions}, "
            f"stop_reason={self.stop_reason!r})"
        )


#: Sentinel returned by :meth:`System.step` under ``trace="metrics"``: truthy
#: (so run loops can test for progress) but carries no per-step data.
STEP_TAKEN = StepRecord(
    index=-1, time=-1, pid=-1, message=None, detector_value=None, sends=()
)


class System:
    """Executes one run of processes under a failure pattern.

    ``trace`` selects how much of the run is recorded:

    * ``"full"`` (default) — every :class:`StepRecord` and every detector
      query is retained, as required by transcript tooling, the scenario
      drivers and the run-validation machinery.
    * ``"metrics"`` — only aggregate data survives (decisions, outputs,
      step/message counts).  ``step()`` returns the :data:`STEP_TAKEN`
      sentinel instead of a record.  The executed run is *identical* to the
      full-trace run — same scheduling, deliveries and detector values —
      only the recording is skipped, which makes large sweeps markedly
      cheaper (``interp_steps_per_s`` of ``benchmarks/ledger/run.py``'s
      ``kernel_lanes`` workload is measured in this mode).

    When a process crashes — at a crash time of the pattern, or by
    :meth:`crash` — its mailbox in the buffer is closed: the messages
    pending for it are dropped and later sends to it are recorded but not
    queued (see :meth:`MessageBuffer.close`).  A crashed process takes no
    step, so no delivery, draw or transition of the run changes.
    """

    def __init__(
        self,
        processes: Mapping[int, Process],
        pattern: FailurePattern,
        history: Any,
        scheduler: Optional[SchedulingPolicy] = None,
        delivery: Optional[DeliveryPolicy] = None,
        seed: int = 0,
        trace: str = "full",
    ):
        if trace not in ("full", "metrics"):
            raise ValueError(f"unknown trace mode {trace!r}")
        self.n = pattern.n
        if set(processes) != set(range(self.n)):
            raise ValueError(
                f"processes must cover ids 0..{self.n - 1}, got {sorted(processes)}"
            )
        self.pattern = pattern
        self.history = history
        self.trace = trace
        self.scheduler = scheduler if scheduler is not None else RandomFairScheduler()
        self.delivery = delivery if delivery is not None else FairRandomDelivery()
        self.buffer = MessageBuffer()
        self.time = 0
        self.steps: List[StepRecord] = []
        self.contexts: Dict[int, ProcessContext] = {}
        self.runtimes: Dict[int, Any] = {}  # pid -> process.runtime(ctx)
        self._record_trace = trace == "full"
        self.queried: Dict[int, List[Tuple[int, Any]]] = (
            {p: [] for p in range(self.n)} if self._record_trace else {}
        )
        self._sched_rng = random.Random(f"{seed}/sched")
        self._dest_rngs = {
            p: random.Random(f"{seed}/delivery/{p}") for p in range(self.n)
        }
        for pid in range(self.n):
            ctx = ProcessContext(pid, self.n)
            process = processes[pid]
            initial = process.initial_output()
            if initial is not None:
                ctx.outputs.append((0, initial))
            self.contexts[pid] = ctx
            self.runtimes[pid] = process.runtime(ctx)
        self._initial_outputs = {
            p: processes[p].initial_output() for p in range(self.n)
        }
        # Resolve step dispatch once.  The history accessor is either a
        # History object (``.value``) or a plain callable.
        self._history_fn: Callable[[int, int], Any] = (
            history.value if hasattr(history, "value") else history
        )
        self._next_process = self.scheduler.next_process
        self._receive = self.buffer.receive
        self._pick = self.delivery.pick
        self._send_all = self.buffer.send_all
        self._seat_epochs()

    def _seat_epochs(self) -> None:
        """Point the crash-epoch cursor at the epoch of ``self.time``.

        Between crash times the alive tuple is a constant, so the step
        loop reads it from ``pattern.alive_epochs()`` by a cursor instead
        of rebuilding the alive set every step.
        """
        epochs = self._epochs = self.pattern.alive_epochs()
        idx = 0
        while idx + 1 < len(epochs) and epochs[idx + 1][0] <= self.time:
            idx += 1
        self._epoch_idx = idx
        self._alive_now: Tuple[int, ...] = epochs[idx][1]
        self._next_epoch_at: Optional[int] = (
            epochs[idx + 1][0] if idx + 1 < len(epochs) else None
        )
        self._close_mailboxes(self._alive_now)

    def _close_mailboxes(self, alive: Tuple[int, ...]) -> None:
        """Close the mailbox of every process not in ``alive``; called
        wherever the alive tuple shrinks (closing is idempotent)."""
        close = self.buffer.close
        for pid in range(self.n):
            if pid not in alive:
                close(pid)

    def crash(self, processes: Iterable[int]) -> None:
        """Crash ``processes`` now: none of them takes another step.

        Scenario drivers pick crash times as the run unfolds and call this
        between steps.  The pattern becomes
        ``pattern.crashing(processes, self.time)``; a process that already
        crashes keeps its own time.
        """
        self.pattern = self.pattern.crashing(processes, self.time)
        self._seat_epochs()

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    def advance(self, budget: int) -> int:
        """Execute up to ``budget`` steps; returns the number executed.

        Fewer than ``budget`` means no process could step (all crashed, or
        the scheduler had none to name).  This loop is the one rendition of
        the model's step — receive, query, transition, send — in the live
        system: :meth:`step`, :meth:`run` and the service core all run it.
        """
        record_trace = self._record_trace
        epochs = self._epochs
        next_process = self._next_process
        sched_rng = self._sched_rng
        receive = self._receive
        pick = self._pick
        send_all = self._send_all
        dest_rngs = self._dest_rngs
        history_value = self._history_fn
        runtimes = self.runtimes
        steps = self.steps
        queried = self.queried

        t = start = self.time
        end = start + budget
        alive = self._alive_now
        next_epoch_at = self._next_epoch_at
        while t < end:
            if next_epoch_at is not None and t >= next_epoch_at:
                # Crash-epoch cursor: between crash times the alive tuple
                # is a constant.
                idx = self._epoch_idx
                while next_epoch_at is not None and t >= next_epoch_at:
                    idx += 1
                    next_epoch_at = (
                        epochs[idx + 1][0] if idx + 1 < len(epochs) else None
                    )
                alive = epochs[idx][1]
                self._epoch_idx = idx
                self._alive_now = alive
                self._next_epoch_at = next_epoch_at
                self._close_mailboxes(alive)
            if not alive:
                break
            pid = next_process(alive, t, sched_rng)
            if pid is None:
                break

            message = receive(pid, pick, dest_rngs[pid])
            d = history_value(pid, t)
            sends = runtimes[pid].step(message, d, t)
            self.time = t + 1
            if record_trace:
                sent_messages = tuple(send_all(pid, sends, t))
                queried[pid].append((t, d))
                steps.append(
                    StepRecord(len(steps), t, pid, message, d, sent_messages)
                )
            elif sends:
                # Metrics mode: enqueue the sends, build no per-step record.
                send_all(pid, sends, t)
            t += 1
        return t - start

    def step(self) -> Optional[StepRecord]:
        """Execute one step; ``None`` when no process can step.

        Under ``trace="metrics"`` the :data:`STEP_TAKEN` sentinel is
        returned instead of a per-step record.
        """
        if not self.advance(1):
            return None
        return self.steps[-1] if self._record_trace else STEP_TAKEN

    def run(
        self,
        max_steps: int,
        stop_when: Optional[Callable[["System"], bool]] = None,
        extra_steps: int = 0,
    ) -> RunResult:
        """Step until ``stop_when`` holds (plus ``extra_steps``) or budget ends.

        ``extra_steps`` lets eventual properties (detector completeness,
        post-decision quiescence) be observed past the stop condition.
        """
        if not _obs._ENABLED:
            return self._run_loop(max_steps, stop_when, extra_steps)
        reg = _obs.metrics()
        with _obs.tracer().span(
            "kernel.run",
            clock=lambda: self.time,
            n=self.n,
            trace=self.trace,
            max_steps=max_steps,
        ) as span:
            start = self.time
            result = self._run_loop(max_steps, stop_when, extra_steps)
            steps = result.total_steps - start
            span.set(stop_reason=result.stop_reason, steps=steps)
            reg.inc("kernel.runs")
            reg.inc("kernel.steps", steps)
            reg.inc("kernel.messages_sent", self.buffer.sent_count)
            reg.inc("kernel.messages_delivered", self.buffer.delivered_count)
            return result

    def _run_loop(
        self,
        max_steps: int,
        stop_when: Optional[Callable[["System"], bool]] = None,
        extra_steps: int = 0,
    ) -> RunResult:
        # The uninstrumented loop: ``run`` adds the per-run span around it
        # when tracing is on; the per-step path is deliberately untouched.
        budget = max_steps
        burst = budget
        if stop_when is not None:
            # The condition is checked before every step until it holds;
            # the extra steps after that need no check and go in one burst.
            while budget > 0 and not stop_when(self):
                if not self.advance(1):
                    return self.result(stop_reason="all_crashed")
                budget -= 1
            if budget <= 0:
                return self.result(stop_reason="max_steps")
            burst = min(budget, max(extra_steps, 0))
        if self.advance(burst) < burst:
            reason = "all_crashed"
        elif burst < budget:
            reason = "stop_condition"
        else:
            reason = "max_steps"
        return self.result(stop_reason=reason)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def result(self, stop_reason: str = "manual") -> RunResult:
        """Package the run's outcome.

        The ``steps`` and ``queried`` containers are handed off by
        reference, not copied: a result is normally taken once, at the end
        of the run.  (Stepping the system further after taking a result
        extends the shared trace in place.)
        """
        decisions = {
            p: ctx.decision
            for p, ctx in self.contexts.items()
            if ctx.decision is not None
        }
        decision_times = {
            p: ctx.decision_time
            for p, ctx in self.contexts.items()
            if ctx.decision_time is not None
        }
        outputs = {p: list(ctx.outputs) for p, ctx in self.contexts.items()}
        return RunResult(
            n=self.n,
            pattern=self.pattern,
            steps=self.steps,
            decisions=decisions,
            decision_times=decision_times,
            outputs=outputs,
            initial_outputs=dict(self._initial_outputs),
            queried=self.queried,
            stop_reason=stop_reason,
            final_time=self.time,
            messages_sent=self.buffer.sent_count,
            messages_delivered=self.buffer.delivered_count,
            total_steps=self.time,
        )

    # ------------------------------------------------------------------
    # Common stop conditions
    # ------------------------------------------------------------------

    def all_correct_decided(self) -> bool:
        return all(
            self.contexts[p].decision is not None for p in self.pattern.correct
        )

    def correct_output_count(self, minimum: int) -> bool:
        """Every correct process has assigned its output at least ``minimum``
        times (excluding the initial value)."""
        return all(
            len(self.contexts[p].outputs) >= minimum for p in self.pattern.correct
        )


def all_correct_decided(system: System) -> bool:
    """Module-level stop condition mirroring :meth:`System.all_correct_decided`."""
    return system.all_correct_decided()
