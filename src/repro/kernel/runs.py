"""Runs of pure automata, run validation, and merging (Sections 2.6, 2.10).

A run is a tuple ``R = (F, H, I, S, T)``.  For pure automata the initial
configuration ``I`` is determined by the proposals (one initial state per
proposed value), so :class:`PureRun` carries the proposal map instead of raw
states.  :func:`validate_run` checks run properties (1)-(5);
:func:`mergeable` and :func:`merge_runs` implement Section 2.10's partition
machinery, whose Lemma 2.2 the test suite validates against real algorithms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.kernel.automaton import Automaton, DeliveredMessage
from repro.kernel.failures import FailurePattern
from repro.kernel.messages import Message
from repro.kernel.steps import MessageUid, Schedule, Step, participants

HistoryFn = Callable[[int, int], Any]  # (p, t) -> detector value


class PureSystemSimulator:
    """Applies schedules of a pure automaton to an initial configuration.

    Owns the configuration of Section 2: per-process states, the message
    buffer (a uid-keyed map in send order) and per-sender sequence
    counters.  Every stepping of pure automata outside the live
    :class:`~repro.kernel.system.System` goes through this class: runs and
    their merging, the simulated schedules of the extraction trie, and the
    bounded explorer's configurations (one :meth:`fork` per successor).
    """

    def __init__(self, automaton: Automaton, n: int, proposals: Mapping[int, Any]):
        self.automaton = automaton
        self.n = n
        self.proposals = dict(proposals)
        missing = [p for p in range(n) if p not in self.proposals]
        if missing:
            raise ValueError(f"initial configuration lacks proposals for {missing}")
        self.states: Dict[int, Any] = {
            p: automaton.initial_state(p, n, self.proposals[p]) for p in range(n)
        }
        # Pids whose state object no other simulator holds: only these may
        # be transitioned in place (see fork()).
        self._owned = set(range(n))
        self.pending: Dict[MessageUid, Message] = {}
        self._seq: Dict[int, int] = {}
        self.steps_applied = 0

    def fork(self) -> "PureSystemSimulator":
        """An independent simulator at the current configuration, copy on write.

        The fork shares every process state with this simulator and clears
        the owned-pid set on both sides, so whichever side next steps a
        process first copies that state through
        :meth:`~repro.kernel.automaton.Automaton.copy_state` (transitions
        may mutate in place), once per process and fork.  States no side
        steps again are never copied; messages are immutable and shared.
        Neither side observes the other's later steps: an extraction walk
        (:mod:`repro.core.simtrie`) keeps a fork as its base and forks it
        again to resume a rewound chain, and the bounded explorer forks one
        successor per step.
        """
        twin = PureSystemSimulator.__new__(PureSystemSimulator)
        twin.automaton = self.automaton
        twin.n = self.n
        twin.proposals = self.proposals
        twin.states = dict(self.states)
        self._owned.clear()
        twin._owned = set()
        twin.pending = dict(self.pending)
        twin._seq = dict(self._seq)
        twin.steps_applied = self.steps_applied
        return twin

    # ------------------------------------------------------------------
    # Applicability and application
    # ------------------------------------------------------------------

    def is_applicable(self, step: Step) -> bool:
        """Whether ``step`` is applicable to the current configuration."""
        if step.msg_uid is None:
            return True
        message = self.pending.get(step.msg_uid)
        return message is not None and message.dest == step.pid

    def apply_step(self, step: Step, time: int = 0) -> List[Message]:
        """Apply ``step``; return the messages it sent."""
        delivered: Optional[DeliveredMessage] = None
        if step.msg_uid is not None:
            message = self.pending.get(step.msg_uid)
            if message is None or message.dest != step.pid:
                raise ValueError(f"step {step!r} is not applicable")
            del self.pending[step.msg_uid]
            delivered = DeliveredMessage(message.sender, message.payload)
        state = self.states[step.pid]
        if step.pid not in self._owned:
            state = self.automaton.copy_state(state)
            self._owned.add(step.pid)
        outcome = self.automaton.transition(
            state, step.pid, delivered, step.detector_value
        )
        self.states[step.pid] = outcome.state
        sent: List[Message] = []
        for dest, payload in outcome.sends:
            seq = self._seq.get(step.pid, 0)
            self._seq[step.pid] = seq + 1
            uid = (step.pid, seq)
            message = Message(step.pid, dest, payload, uid=uid, sent_at=time)
            self.pending[uid] = message
            sent.append(message)
        self.steps_applied += 1
        return sent

    def run_schedule(
        self, schedule: Schedule, times: Optional[Sequence[int]] = None
    ) -> None:
        for i, step in enumerate(schedule):
            self.apply_step(step, time=times[i] if times is not None else i)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def oldest_pending_uid(self, pid: int) -> Optional[MessageUid]:
        """The uid of the oldest message pending for ``pid``.

        'Oldest' is by send order, the rule used in the canonical schedule
        construction of Lemma 4.10; ``pending`` is kept in send order, so
        it is the first message for ``pid`` found there.
        """
        for uid, message in self.pending.items():
            if message.dest == pid:
                return uid
        return None

    def decision(self, pid: int) -> Optional[Any]:
        return self.automaton.decision(self.states[pid])

    def decided_pids(self) -> Dict[int, Any]:
        found = {}
        for p in range(self.n):
            value = self.decision(p)
            if value is not None:
                found[p] = value
        return found

    def snapshot(self, pid: int) -> Any:
        return self.automaton.snapshot(self.states[pid])


@dataclass
class PureRun:
    """A finite run ``(F, H, I, S, T)`` of a pure automaton.

    ``history`` is a callable ``H(p, t)``; ``proposals`` determines the
    initial configuration ``I``.
    """

    automaton: Automaton
    n: int
    proposals: Mapping[int, Any]
    pattern: FailurePattern
    history: HistoryFn
    schedule: Schedule
    times: Sequence[int]

    def simulator(self) -> PureSystemSimulator:
        sim = PureSystemSimulator(self.automaton, self.n, self.proposals)
        return sim

    def final_states(self) -> Dict[int, Any]:
        """Snapshot of every participant's state after applying ``S`` to ``I``."""
        sim = self.simulator()
        sim.run_schedule(self.schedule, self.times)
        return {p: sim.snapshot(p) for p in participants(self.schedule)}


def validate_run(run: PureRun) -> List[str]:
    """Check run properties (1)-(5); return human-readable violations."""
    violations: List[str] = []
    schedule, times = run.schedule, list(run.times)

    # Property (2): S and T have the same length.
    if len(schedule) != len(times):
        violations.append(
            f"property 2: |S|={len(schedule)} differs from |T|={len(times)}"
        )
        return violations

    # Property (4): T is nondecreasing.
    for i in range(1, len(times)):
        if times[i] < times[i - 1]:
            violations.append(
                f"property 4: T[{i}]={times[i]} < T[{i - 1}]={times[i - 1]}"
            )

    # Property (3): no steps after crashing; detector values follow H.
    for i, step in enumerate(schedule):
        if run.pattern.is_crashed(step.pid, times[i]):
            violations.append(
                f"property 3: process {step.pid} takes step {i} at time "
                f"{times[i]} after crashing"
            )
        expected = run.history(step.pid, times[i])
        if step.detector_value != expected:
            violations.append(
                f"property 3: step {i} of process {step.pid} saw detector "
                f"value {step.detector_value!r}, but H({step.pid}, {times[i]}) "
                f"= {expected!r}"
            )

    # Property (1): S applicable to I (simulate), gathering send indices for
    # property (5) along the way.
    sim = run.simulator()
    send_indices: Dict[MessageUid, int] = {}
    applicable = True
    for i, step in enumerate(schedule):
        if not sim.is_applicable(step):
            violations.append(f"property 1: step {i} ({step!r}) not applicable")
            applicable = False
            break
        for message in sim.apply_step(step, time=times[i]):
            send_indices[message.uid] = i
    if applicable:
        # Property (5): causal precedence implies strictly increasing times.
        last_step_of: Dict[int, int] = {}
        for j, step in enumerate(schedule):
            prev = last_step_of.get(step.pid)
            if prev is not None and times[j] <= times[prev]:
                violations.append(
                    f"property 5: steps {prev} and {j} of process {step.pid} "
                    f"have non-increasing times {times[prev]}, {times[j]}"
                )
            last_step_of[step.pid] = j
            if step.msg_uid is not None and step.msg_uid in send_indices:
                s = send_indices[step.msg_uid]
                if times[j] <= times[s]:
                    violations.append(
                        f"property 5: message {step.msg_uid} received at step "
                        f"{j} (t={times[j]}) no later than its send at step "
                        f"{s} (t={times[s]})"
                    )
    return violations


def mergeable(run0: PureRun, run1: PureRun) -> bool:
    """Whether two finite runs are mergeable (Section 2.10).

    Requires disjoint participant sets and a common initial configuration
    consistent with both proposal maps on their participants.  Both runs must
    share the failure pattern (and, semantically, the history; we compare
    the pattern and trust callers on the history, which is a function).
    """
    if run0.n != run1.n or run0.pattern != run1.pattern:
        return False
    p0 = participants(run0.schedule)
    p1 = participants(run1.schedule)
    return not (p0 & p1)


def merge_runs(
    run0: PureRun,
    run1: PureRun,
    rng: Optional[random.Random] = None,
) -> PureRun:
    """Merge two mergeable runs into one (Section 2.10).

    Steps are interleaved in nondecreasing time order; concurrent steps
    (equal times) are interleaved arbitrarily — deterministically run0-first,
    or randomly when ``rng`` is given (both orders are valid mergings).
    """
    if not mergeable(run0, run1):
        raise ValueError("runs are not mergeable")

    tagged: List[Tuple[int, int, int, Step]] = []
    for i, step in enumerate(run0.schedule):
        tagged.append((run0.times[i], 0, i, step))
    for i, step in enumerate(run1.schedule):
        tagged.append((run1.times[i], 1, i, step))
    if rng is not None:
        # Shuffle first so ties between the two runs land in random order;
        # the sort below is stable, so only tie order is affected.
        rng.shuffle(tagged)
    tagged.sort(key=lambda item: item[0])
    # The shuffle may have scrambled each run's internal order among steps
    # with equal times; re-impose per-run order inside every tie block.
    tagged = _reorder_ties(tagged)

    merged_steps = [item[3] for item in tagged]
    merged_times = [item[0] for item in tagged]

    p0 = participants(run0.schedule)
    p1 = participants(run1.schedule)
    proposals: Dict[int, Any] = {}
    for p in range(run0.n):
        if p in p1:
            proposals[p] = run1.proposals[p]
        elif p in p0:
            proposals[p] = run0.proposals[p]
        else:
            proposals[p] = run0.proposals[p]

    return PureRun(
        automaton=run0.automaton,
        n=run0.n,
        proposals=proposals,
        pattern=run0.pattern,
        history=run0.history,
        schedule=Schedule(merged_steps),
        times=merged_times,
    )


def _reorder_ties(
    tagged: List[Tuple[int, int, int, Step]]
) -> List[Tuple[int, int, int, Step]]:
    """Restore per-run step order within each equal-time block."""
    result: List[Tuple[int, int, int, Step]] = []
    i = 0
    while i < len(tagged):
        j = i
        while j < len(tagged) and tagged[j][0] == tagged[i][0]:
            j += 1
        block = tagged[i:j]
        # Keep the block's run pattern (which run occupies each slot) but
        # order each run's own steps by their original index.
        run_slots = [item[1] for item in block]
        per_run = {
            0: sorted((x for x in block if x[1] == 0), key=lambda x: x[2]),
            1: sorted((x for x in block if x[1] == 1), key=lambda x: x[2]),
        }
        cursors = {0: 0, 1: 0}
        for slot in run_slots:
            result.append(per_run[slot][cursors[slot]])
            cursors[slot] += 1
        i = j
    return result


def pure_run_from_live(
    result: "RunResultLike",
    automaton: Automaton,
    proposals: Mapping[int, Any],
    history: HistoryFn,
) -> PureRun:
    """Reconstruct the formal run ``(F, H, I, S, T)`` of a live execution.

    The live :class:`~repro.kernel.system.System` executes pure-automaton
    processes through the coroutine adapter; this function lifts its step
    trace back into the Section 2.6 formalism so ``validate_run`` can check
    properties (1)-(5) against the *same* failure pattern and history the
    system ran under.  A cross-check that the live executor and the formal
    model agree.

    Only meaningful for systems whose processes wrap a single shared pure
    automaton (message uids and sends must replay identically).
    """
    steps = []
    times = []
    for record in result.steps:
        uid = record.message.uid if record.message is not None else None
        steps.append(
            Step(pid=record.pid, msg_uid=uid, detector_value=record.detector_value)
        )
        times.append(record.time)
    return PureRun(
        automaton=automaton,
        n=result.n,
        proposals=dict(proposals),
        pattern=result.pattern,
        history=history,
        schedule=Schedule(steps),
        times=times,
    )
