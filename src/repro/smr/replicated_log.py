"""A replicated log: one A_nuc instance per slot.

Each process runs consensus instances sequentially; slot ``i``'s instance
starts once slot ``i-1`` is decided locally.  An instance is a state of
:class:`~repro.core.nuc.AnucAutomaton` — the paper's own form of an
algorithm, one ``transition`` per step, and the A_nuc every other caller
runs.  The
replica has no generator either: it is its own kernel runtime, and
:meth:`ReplicatedLogProcess.step` is one explicit transition over its
state (open slot, stash, notices); ``tests/smr/test_replica_equivalence.py``
pins it equal to the generator replicas it replaced.  Messages are tagged
with their slot; messages for future slots are stashed and replayed, within
the step that closes the slot before them, when the slot opens.

Because a replica that finishes a slot stops serving that instance,
deciders broadcast a ``DECIDED`` notice that lets laggards short-circuit
the slot.  Adopting a notice is sound only when the decider is correct: a
faulty replica may decide a value no correct replica decides (nonuniform
agreement allows that) and still broadcast it before crashing, and
nothing tells a laggard which notices came from correct deciders.  The
replica adopts the first notice it gets regardless; ROADMAP open item 1
records the reproducer and the fix.  Clients are protected by the
service's majority-certified log, not by this short-circuit.

Proposals: each replica proposes its oldest own command not yet in its log
(or ``("noop", -1)`` when exhausted).  Commands are tagged with their
origin, so distinct replicas never contend with equal commands and a chosen
command is never re-proposed.

Being leader-based, the chosen values track the eventual leader's
proposals.  Commands submitted at other replicas become live through
*client-to-leader forwarding*: a replica holding pending commands sends
each one to its current Omega leader hint in a ``FWD`` message (once per
``(command, leader)`` pair, so leader changes trigger re-forwarding and a
stable leadership costs one message per command).  The leader pools
forwarded commands and proposes them once its own are exhausted, so a
laggard no longer pads the log with noop proposals while its commands
starve — the liveness gap the pre-forwarding layer documented.

The log also serves as the consensus core of :mod:`repro.service`: slots
may be unbounded (``slots=None``), commands can be fed in while the system
runs (:meth:`ReplicatedLogProcess.feed`), and *batch* commands —
``("batch", origin, seq, (cmd, ...))`` — are proposed strictly in ``seq``
order per origin, which pins the applied command order regardless of how
many replicas race to propose the same batches.

``log`` is append-only: entries are added at the end and never changed or
removed.  The replica relies on that to carry its view of the log (which
commands are chosen, how many batches each origin has) forward instead of
re-reading it, so a proposal, a feed or a forward costs the slots decided
since the last one, not the log.
"""

from __future__ import annotations

from collections import Counter
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.nuc import AnucAutomaton
from repro.kernel.automaton import (
    DeliveredMessage,
    Process,
    ProcessContext,
    Send,
    step_failure,
)

SLOT = "S"  # (S, slot, inner_payload): one consensus instance's traffic
DECIDED = "DEC"  # (DEC, slot, value): decider's short-circuit notice
FWD = "FWD"  # (FWD, command): client-to-leader command forwarding

BATCH = "batch"  # ("batch", origin, seq, (command, ...)): a service batch

Command = Tuple  # e.g. ("append", pid, k) or ("noop", pid)

NOOP: Command = ("noop", -1)

_UNPARKED = object()  # equal to no detector value

#: Every slot of every replica is an instance of this one automaton; the
#: per-slot state is what ``initial_state`` returns.
_ANUC = AnucAutomaton()


def is_batch(command: Any) -> bool:
    """Whether ``command`` is a service batch (proposed in seq order)."""
    return (
        isinstance(command, tuple)
        and len(command) == 4
        and command[0] == BATCH
    )


class ReplicatedLogProcess(Process):
    """One replica: sequential A_nuc instances building a shared log.

    ``slots=None`` runs an unbounded log (the long-running service mode);
    a finite ``slots`` reproduces the bounded layer, ending in a serve
    loop that answers laggards' slot traffic with ``DECIDED`` notices.
    """

    def __init__(self, commands: Sequence[Command], slots: Optional[int]):
        self.commands = list(commands)
        self.slots = slots
        self.log: List[Optional[Command]] = []
        self.applied: List[Command] = []  # the state machine history
        self._foreign_batches: List[Command] = []
        self._foreign_plain: List[Command] = []
        self._forwarded: Dict[Command, set] = {}  # command -> leaders sent to
        # The three pending pools as one multiset: the constructor may be
        # handed a command twice.
        self._known: Counter = Counter(self.commands)
        # What log[:_synced] holds, folded in by _sync(): its distinct
        # entries and the number of batch entries per origin.
        self._synced = 0
        self._chosen: set = set()
        self._batch_counts: Dict[Any, int] = {}

    def _sync(self) -> None:
        """Fold the entries appended to ``log`` since the last call.

        Lazy, because the log is also appended to from outside ``step``
        (tests and the chaos suite hand replicas a log directly)."""
        log = self.log
        if self._synced > len(log):
            raise RuntimeError("replica log shrank: it must be append-only")
        for entry in log[self._synced :]:
            self._chosen.add(entry)
            if is_batch(entry):
                origin = entry[1]
                self._batch_counts[origin] = (
                    self._batch_counts.get(origin, 0) + 1
                )
        self._synced = len(log)

    # -- dynamic command intake (the service feeds a running replica) ----

    def feed(self, command: Command) -> bool:
        """Queue ``command`` for proposal; ``False`` if already known."""
        if not self._is_new(command):
            return False
        self.commands.append(command)
        self._known[command] = 1
        self._parked = _UNPARKED  # the next step forwards it
        return True

    def _is_new(self, command: Command) -> bool:
        """Neither pending in a pool nor already in the local log."""
        self._sync()
        return command not in self._known and command not in self._chosen

    def _pending(self) -> Iterator[Command]:
        self._sync()
        chosen = self._chosen
        for pool in (self.commands, self._foreign_batches, self._foreign_plain):
            for command in pool:
                if command not in chosen:
                    yield command

    def pending_commands(self) -> List[Command]:
        """Commands known here but not yet in the local log."""
        return list(self._pending())

    def has_pending(self) -> bool:
        """Whether :meth:`pending_commands` would be non-empty."""
        return next(self._pending(), None) is not None

    # -- the step (the replica is its own runtime) ------------------------

    def runtime(self, ctx: ProcessContext) -> "ReplicatedLogProcess":
        """Bind the replica to ``ctx``; the kernel then calls :meth:`step`."""
        self._ctx = ctx
        self._stashed: Dict[int, List[DeliveredMessage]] = {}
        self._notices: Dict[int, Any] = {}  # slot -> decided value
        self._slot = -1  # the open slot; -1 until the first step opens 0
        self._instance: Any = None  # the open slot's AnucAutomaton state
        self._replay: List[DeliveredMessage] = []  # its stashed traffic
        self._serving = False  # every bounded slot is decided
        # The detector value of the last step if its check left the open
        # slot waiting; a lambda step with this value is a stutter.
        self._parked: Any = _UNPARKED
        return self

    def step(self, message: Any, d: Any, t: int) -> List[Send]:
        """One model step: intake, then the open slot's transition.

        A slot that closes opens the next, which runs on its stashed
        traffic within this same step, until a slot is left waiting.  A
        lambda step that would re-check a failed wait on an unchanged
        detector value, with nothing fed since, returns at once; it
        still counts as a step.
        """
        ctx = self._ctx
        ctx.step_count += 1
        if message is None and d == self._parked:
            # A stutter (see AnucAutomaton.transition), and no feed has
            # added a command to forward since the last step.
            return []
        self._parked = _UNPARKED
        pid = ctx.pid
        notices = self._notices
        sends: List[Send] = []
        try:
            if self._slot < 0:
                self._open(0)  # slot 0's proposal is drawn at the first step
            tag = None if message is None else message.payload[0]
            if tag == DECIDED:
                _, slot, value = message.payload
                notices.setdefault(slot, value)
            elif tag == FWD:
                self._accept_foreign(message.payload[1])
            if self._serving:  # all slots decided; answer laggards
                self._maybe_forward(pid, d, sends)
                if tag == SLOT and message.payload[1] in notices:
                    slot = message.payload[1]
                    sends.append(
                        (message.sender, (DECIDED, slot, notices[slot]))
                    )
                return sends
            inner = None
            if tag == SLOT:
                _, slot, payload = message.payload
                if slot == self._slot:
                    inner = DeliveredMessage(message.sender, payload)
                elif slot > self._slot:
                    self._stashed.setdefault(slot, []).append(
                        DeliveredMessage(message.sender, payload)
                    )
                # Past-slot traffic is dropped: the DECIDED notice is the
                # catch-all for laggards (a serving replica answers it
                # instead).
            while True:
                slot = self._slot
                if slot in notices:
                    value = notices[slot]
                else:
                    if self.commands:
                        self._maybe_forward(pid, d, sends)
                    state = self._instance
                    outcome = _ANUC.transition(state, pid, inner, d)
                    for dest, payload in outcome.sends:
                        sends.append((dest, (SLOT, slot, payload)))
                    value = state.decided
                    if value is None:
                        if not self._replay:
                            self._parked = state.parked
                            return sends
                        inner = self._replay.pop(0)
                        continue
                    notice = (DECIDED, slot, value)
                    for dest in range(ctx.n):
                        sends.append((dest, notice))
                notices.setdefault(slot, value)
                self.log.append(value)
                self._purge_chosen(value)
                if value is not None and value[0] != "noop":
                    self.applied.append(value)
                self._open(slot + 1)
                if self._serving:
                    return sends
                if self._slot not in notices:
                    if not self._replay:
                        return sends
                    inner = self._replay.pop(0)
        except Exception as exc:
            raise step_failure(type(self).__name__, ctx, t, exc) from exc

    def _open(self, slot: int) -> None:
        """Open ``slot``'s instance with a fresh proposal (or start serving)."""
        self._slot = slot
        if self.slots is not None and slot >= self.slots:
            self._serving = True
            return
        self._instance = _ANUC.initial_state(
            self._ctx.pid, self._ctx.n, self._next_proposal()
        )
        self._replay = self._stashed.pop(slot, [])

    # ------------------------------------------------------------------

    def _next_proposal(self) -> Command:
        self._sync()
        chosen, batch_counts = self._chosen, self._batch_counts

        def eligible(command: Command) -> bool:
            if command in chosen:
                return False
            if is_batch(command):
                # Batches are proposed strictly in seq order per origin, so
                # every racing proposer names the same next batch and the
                # decided log can never reorder a session's commands.
                return command[2] == batch_counts.get(command[1], 0)
            return True

        for command in self.commands:
            if eligible(command):
                return command
        for command in sorted(
            self._foreign_batches, key=lambda c: (c[1], c[2])
        ):
            if eligible(command):
                return command
        for command in self._foreign_plain:
            if eligible(command):
                return command
        return NOOP

    def _leader_hint(self, d: Any) -> Optional[int]:
        """The Omega component of a paired detector value, if recognizable."""
        if isinstance(d, tuple) and d and isinstance(d[0], int):
            return d[0]
        return None

    def _maybe_forward(self, pid: int, d: Any, sends: List[Send]) -> None:
        """Append a send of each pending own command to the current leader
        hint (once per ``(command, leader)`` pair; a leader change
        re-forwards)."""
        if not self.commands:
            return
        leader = self._leader_hint(d)
        if leader is None or leader == pid:
            return
        self._sync()
        for command in self.commands:
            if command in self._chosen:
                continue
            sent_to = self._forwarded.get(command)
            if sent_to is None:
                sent_to = self._forwarded[command] = set()
            elif leader in sent_to:
                continue
            sends.append((leader, (FWD, command)))
            sent_to.add(leader)

    def _accept_foreign(self, command: Command) -> None:
        if not self._is_new(command):
            return
        if is_batch(command):
            self._foreign_batches.append(command)
        else:
            self._foreign_plain.append(command)
        self._known[command] = 1

    def _purge_chosen(self, value: Optional[Command]) -> None:
        """Drop a freshly decided command from the pending pools."""
        if value not in self._known:
            return
        for pool in (self.commands, self._foreign_batches, self._foreign_plain):
            if value in pool:
                pool.remove(value)
                self._known[value] -= 1
        if not self._known[value]:
            del self._known[value]
        self._forwarded.pop(value, None)


def run_replicated_log(
    pattern,
    commands_per_process: Dict[int, Sequence[Command]],
    slots: int,
    seed: int = 0,
    max_steps: int = 120000,
    detector=None,
):
    """Run a full replicated-log system; returns (result, processes)."""
    import random as _random

    from repro.detectors import Omega, PairedDetector, SigmaNuPlus
    from repro.kernel.system import System

    if detector is None:
        detector = PairedDetector(Omega(), SigmaNuPlus())
    history = detector.sample_history(pattern, _random.Random(seed + 777))
    processes = {
        p: ReplicatedLogProcess(commands_per_process.get(p, ()), slots)
        for p in range(pattern.n)
    }
    system = System(processes, pattern, history, seed=seed)

    def all_logs_full(sys) -> bool:
        return all(
            len(processes[p].log) >= slots for p in pattern.correct
        )

    result = system.run(max_steps=max_steps, stop_when=all_logs_full)
    return result, processes
