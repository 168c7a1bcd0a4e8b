"""A_nuc as a pure automaton, step-equivalent to the coroutine version.

:mod:`repro.core.nuc` transcribes Figs. 4-5 as a generator coroutine — the
readable rendition.  This module is the same algorithm as an explicit
state machine, built for the places that need *replayable* processes: the
necessity construction simulating A_nuc along DAG paths, run merging, and
bounded model checking.  (The coroutine can also be replayed through
:class:`~repro.kernel.automaton.ReplayAutomaton`, at O(k) cost per step;
this port is O(1) per step.)

The port is **step-equivalent** by construction, and
``tests/core/test_nuc_equivalence.py`` enforces it: fed the same
observation sequence, coroutine and automaton emit identical message
sequences and identical decisions at every step.  The correspondence rests
on the coroutine's shape — every wait iteration is exactly one model step,
at most one wait-condition check happens per step, and all the logic
between a successful check and the next ``take_step`` (imports, adoption,
decision, SAW sends, the next round's LEAD broadcast) executes within the
successful step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.nuc import (
    ACK,
    LEAD,
    PROP,
    REP,
    SAW,
    UNKNOWN,
    Quorum,
    distrusted_members,
    distrusts,
    snapshot_history,
)
from repro.kernel.automaton import Automaton, DeliveredMessage, TransitionOutcome

_PHASE_LEAD = "lead"
_PHASE_REP = "rep"
_PHASE_PROP = "prop"


@dataclass
class _NucState:
    pid: int
    n: int
    x: Any
    k: int = 0
    phase: str = _PHASE_LEAD
    decided: Optional[Any] = None
    decided_round: Optional[int] = None
    started: bool = False
    history: Dict[int, Set[Quorum]] = field(default_factory=dict)
    sent_saw: Set[Quorum] = field(default_factory=set)
    acks: Dict[Quorum, Set[int]] = field(default_factory=dict)
    round_no: Dict[Quorum, int] = field(default_factory=dict)
    seen: Dict[Quorum, int] = field(default_factory=dict)
    # (tag, round) -> {sender: payload}
    log: Dict[Tuple[str, int], Dict[int, Tuple]] = field(default_factory=dict)

    def record(self, sender: int, payload: Tuple) -> None:
        tag, rnd = payload[0], payload[1]
        self.log.setdefault((tag, rnd), {}).setdefault(sender, payload)

    def received(self, tag: str, rnd: int) -> Dict[int, Tuple]:
        return self.log.get((tag, rnd), {})


class AnucAutomaton(Automaton):
    """Pure-automaton A_nuc.  Detector value: ``(leader, quorum)``.

    Ablation switches mirror :class:`~repro.core.nuc.AnucProcess`.
    """

    name = "anuc-automaton"

    def __init__(
        self,
        enable_distrust: bool = True,
        enable_quorum_awareness: bool = True,
    ):
        self.enable_distrust = enable_distrust
        self.enable_quorum_awareness = enable_quorum_awareness

    # -- Automaton interface --------------------------------------------

    def initial_state(self, pid: int, n: int, proposal: Any) -> _NucState:
        state = _NucState(pid=pid, n=n, x=proposal)
        state.history = {q: set() for q in range(n)}
        return state

    def decision(self, state: _NucState) -> Optional[Any]:
        return state.decided

    def snapshot(self, state: _NucState) -> Any:
        history = tuple(
            (p, tuple(sorted(tuple(sorted(q)) for q in quorums)))
            for p, quorums in sorted(state.history.items())
        )
        log = tuple(
            (key, tuple(sorted(v.items())))
            for key, v in sorted(state.log.items())
        )
        return (
            state.pid,
            state.k,
            state.phase,
            state.x,
            state.decided,
            history,
            tuple(sorted(tuple(sorted(q)) for q in state.sent_saw)),
            tuple(sorted(state.seen.items(), key=repr)),
            log,
        )

    # -- one model step ----------------------------------------------------

    def transition(self, state, pid, msg, d):
        sends: List[Tuple[int, Any]] = []

        # Round 1 opens on the very first step (the coroutine queues the
        # LEAD broadcast during initialization; it flushes with step 1).
        if not state.started:
            state.started = True
            state.k = 1
            self._broadcast(state, sends, self._lead_payload(state))

        # Upon-receipt handlers run before the main logic (take_step order).
        if msg is not None:
            payload = msg.payload
            tag = payload[0]
            if tag == SAW:
                _, q, quorum = payload
                state.history[q].add(quorum)
                sends.append((msg.sender, (ACK, state.pid, quorum, state.k)))
            elif tag == ACK:
                _, q, quorum, k = payload
                state.acks.setdefault(quorum, set()).add(q)
                state.round_no[quorum] = max(state.round_no.get(quorum, 0), k)
                if state.acks[quorum] == set(quorum):
                    state.seen[quorum] = state.round_no[quorum]
            else:
                state.record(msg.sender, payload)

        # Exactly one wait-condition check per step, with this step's d.
        leader, quorum_value = d
        if state.phase == _PHASE_LEAD:
            self._check_lead(state, sends, leader)
        elif state.phase == _PHASE_REP:
            self._check_rep(state, sends, frozenset(quorum_value))
        else:
            self._check_prop(state, sends, frozenset(quorum_value))
        return TransitionOutcome(state=state, sends=sends)

    # -- phase checks -------------------------------------------------------

    def _lead_payload(self, state: _NucState) -> Tuple:
        return (LEAD, state.k, state.x, snapshot_history(state.history))

    def _broadcast(self, state, sends, payload) -> None:
        for dest in range(state.n):
            sends.append((dest, payload))

    def _check_lead(self, state, sends, leader: int) -> None:
        lead = state.received(LEAD, state.k).get(leader)
        if lead is None:
            return
        self._import_history(state, lead[3])
        if not self.enable_distrust or not distrusts(
            state.history, state.pid, leader, state.n
        ):
            state.x = lead[2]
        state.phase = _PHASE_REP
        self._broadcast(state, sends, (REP, state.k, state.x))

    def _check_rep(self, state, sends, quorum: Quorum) -> None:
        state.history[state.pid].add(quorum)  # get_quorum, line 49
        reports = state.received(REP, state.k)
        if not quorum or not reports.keys() >= quorum:
            return
        values = {reports[q][2] for q in quorum}
        if len(values) == 1:
            (proposal,) = values
        else:
            proposal = UNKNOWN
        state.phase = _PHASE_PROP
        self._broadcast(
            state,
            sends,
            (PROP, state.k, proposal, snapshot_history(state.history)),
        )

    def _check_prop(self, state, sends, quorum: Quorum) -> None:
        state.history[state.pid].add(quorum)  # get_quorum, line 49
        proposals = state.received(PROP, state.k)
        if not quorum or not proposals.keys() >= quorum:
            return
        for q in sorted(quorum):  # line 27
            self._import_history(state, proposals[q][3])
        if self.enable_distrust and distrusted_members(
            state.history, state.pid, quorum, state.n
        ):
            return  # lines 25-28: retry with the next step's quorum

        quorum_values = {q: proposals[q][2] for q in sorted(quorum)}
        non_unknown = sorted(
            (q, v) for q, v in quorum_values.items() if v != UNKNOWN
        )
        if non_unknown:
            state.x = non_unknown[0][1]
        unanimous = (
            len(set(quorum_values.values())) == 1
            and next(iter(quorum_values.values())) != UNKNOWN
        )
        aware = (
            not self.enable_quorum_awareness
            or state.seen.get(quorum, _INF) < state.k
        )
        if unanimous and aware and state.decided is None:
            state.decided = state.x
            state.decided_round = state.k

        if quorum not in state.sent_saw:  # lines 31-33
            for dest in sorted(quorum):
                sends.append((dest, (SAW, state.pid, quorum)))
            state.sent_saw.add(quorum)

        state.k += 1  # next round opens within the same step
        state.phase = _PHASE_LEAD
        self._broadcast(state, sends, self._lead_payload(state))

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _import_history(state: _NucState, incoming) -> None:
        for r, quorums in incoming.items():
            state.history[r] |= quorums


_INF = float("inf")
