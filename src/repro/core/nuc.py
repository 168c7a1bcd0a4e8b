"""A_nuc (Figs. 4-5): nonuniform consensus from (Omega, Sigma^nu+).

The algorithm is the Mostéfaoui-Raynal three-phase round structure with
Sigma^nu+ quorums in place of majorities, hardened against *contamination*
(Section 6.3) by three mechanisms:

* **Quorum histories** ``H_p[r]`` — every process accumulates all quorums it
  knows other processes have seen, both from its own Sigma^nu+ samples
  (``get_quorum``, line 49) and from the histories piggybacked on LEAD and
  PROP messages and on SAW notifications.

* **Distrust** (lines 51-53) — ``p`` considers ``q'`` *faulty* if some quorum
  of ``q'`` misses some quorum of ``p``'s own; ``p`` *distrusts* ``q`` if
  ``q``'s quorums miss the quorums of anyone ``p`` does not consider faulty.
  A process never adopts a leader estimate from, nor decides through, a
  distrusted process.

* **Quorum awareness** (SAW/ACK, lines 31-42) — before deciding through
  quorum ``Q`` in round ``k``, ``p`` must know that every member of ``Q``
  inserted ``Q`` into its history in a round ``< k`` (``seen_p[Q] < k_p``),
  which guarantees every correct process learns ``{Q ∈ H[p]}`` with the
  round-``k`` proposals and can later distrust any process whose quorums
  missed ``Q``.

Detector value per step: the pair ``(leader, quorum)`` of
``(Omega, Sigma^nu+)``.

:class:`AnucAutomaton` is the algorithm as a deterministic automaton, the
model's own form (Section 2.4): one ``transition`` per step, replayable
from any configuration, which the necessity construction, run merging and
bounded model checking need.  Live runs wrap it in
:class:`~repro.kernel.automaton.AutomatonProcess`; the replicated log runs
one state per slot.  The pseudocode's blocking waits become a ``phase``
field: each step runs the upon-receipt handlers, then exactly one
wait-condition check with that step's detector value, and everything the
pseudocode does after a successful check — imports, adoption, decision,
SAW sends, the next round's LEAD broadcast — happens within that step.
``tests/core/reference_nuc.py`` transcribes Figs. 4-5 as a coroutine, line
by line, and ``tests/core/test_nuc_equivalence.py`` pins this automaton
to it step for step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.kernel.automaton import Automaton, TransitionOutcome

UNKNOWN = "?"

LEAD = "LEAD"
REP = "REP"
PROP = "PROP"
SAW = "SAW"
ACK = "ACK"

Quorum = FrozenSet[int]
QuorumHistory = Dict[int, Set[Quorum]]


def snapshot_history(history: QuorumHistory) -> Dict[int, FrozenSet[Quorum]]:
    """An immutable copy of a quorum history, safe to put in a message."""
    return {r: frozenset(quorums) for r, quorums in history.items() if quorums}


def distrusted_members(
    history: QuorumHistory, pid: int, members: Iterable[int], n: int
) -> List[int]:
    """The ``members`` that ``p`` distrusts, ascending (Fig. 5 lines 51-53).

    ``F_p``: processes with a quorum missing one of ``p``'s own quorums.
    ``p`` distrusts ``q`` iff some process ``r`` outside ``F_p`` has a quorum
    disjoint from one of ``q``'s quorums.  ``F_p`` does not depend on
    ``q``, so one check of a whole quorum computes it once.
    """
    mine = history.get(pid, ())
    trusted_quorums: Set[Quorum] = set()  # of the processes outside F_p
    for r in range(n):
        quorums = history.get(r, ())
        if not any(not (quorum & own) for quorum in quorums for own in mine):
            trusted_quorums.update(quorums)
    return [
        q
        for q in sorted(members)
        if any(
            not (q_quorum & r_quorum)
            for q_quorum in history.get(q, ())
            for r_quorum in trusted_quorums
        )
    ]


def distrusts(history: QuorumHistory, pid: int, q: int, n: int) -> bool:
    """Whether ``p`` distrusts ``q`` (see :func:`distrusted_members`)."""
    return bool(distrusted_members(history, pid, (q,), n))


_PHASE_LEAD = "lead"
_PHASE_REP = "rep"
_PHASE_PROP = "prop"


@dataclass
class _NucState:
    """One process's variables.  ``k`` is the current round, and
    ``distrust_events`` lists ``(round, process)`` for every leader refused
    at line 18 and every quorum member that forced a phase-3 retry.
    ``parked`` is the detector value of the last step's wait check if
    that check failed, else ``None``; it is bookkeeping, not a variable
    of Figs. 4-5, so ``snapshot`` and ``==`` ignore it."""

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
    distrust_events: List[Tuple[int, int]] = field(default_factory=list)
    # (tag, round) -> {sender: payload}
    log: Dict[Tuple[str, int], Dict[int, Tuple]] = field(default_factory=dict)
    parked: Any = field(default=None, compare=False)

    def received(self, tag: str, rnd: int) -> Dict[int, Tuple]:
        return self.log.get((tag, rnd), {})


class AnucAutomaton(Automaton):
    """A_nuc, one process per state.  Detector value: ``(leader, quorum)``.

    Ablation switches (for the EXP-5 ablation study; both default on):

    * ``enable_distrust=False`` removes the distrust checks of lines 18 and
      28 — estimates are adopted unconditionally and any quorum is accepted
      in phase 3.  The result is essentially the naive Sigma^nu algorithm
      and falls to the Section 6.3 contamination scenario.
    * ``enable_quorum_awareness=False`` removes the ``seen[Q] < k`` decide
      gate of line 30 (decisions no longer wait for the SAW/ACK round
      trip).  Safe on benign schedules but forfeits the quorum-awareness
      property Lemma 6.24 needs.
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
        if msg is None and d == state.parked:
            # A stutter: the last step's wait check failed on this same
            # message log, round, phase and detector value, and a lambda
            # step changes none of them, so the check fails again and
            # leaves the state as it is.  (Histories hand out values that
            # are never mutated; the kernel's trace records them too.)
            return TransitionOutcome(state=state, sends=[])
        sends: List[Tuple[int, Any]] = []

        # Round 1 opens on the very first step (Fig. 4 initializes, then
        # broadcasts the round-1 LEAD before its first wait).
        if not state.started:
            state.started = True
            state.k = 1
            self._broadcast(state, sends, self._lead_payload(state))

        # Upon-receipt handlers (lines 35-42) run before the wait check.
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
            else:  # LEAD, REP, PROP: the first of each (tag, round, sender)
                state.log.setdefault((tag, payload[1]), {}).setdefault(
                    msg.sender, payload
                )

        # Exactly one wait-condition check per step, with this step's d;
        # a check that gets past its wait unparks the state.
        state.parked = d
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
        state.parked = None
        self._import_history(state, lead[3])
        if not self.enable_distrust or not distrusts(
            state.history, state.pid, leader, state.n
        ):  # line 18
            state.x = lead[2]
        else:
            state.distrust_events.append((state.k, leader))
        state.phase = _PHASE_REP
        self._broadcast(state, sends, (REP, state.k, state.x))

    def _check_rep(self, state, sends, quorum: Quorum) -> None:
        state.history[state.pid].add(quorum)  # get_quorum, line 49
        reports = state.received(REP, state.k)
        if not quorum or not reports.keys() >= quorum:
            return
        state.parked = None
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
        # Past the wait: even a retry (lines 25-28) records distrust events.
        state.parked = None
        for q in sorted(quorum):  # line 27
            self._import_history(state, proposals[q][3])
        if self.enable_distrust:
            bad = distrusted_members(state.history, state.pid, quorum, state.n)
            if bad:  # lines 25-28: retry with the next step's quorum
                state.distrust_events.extend((state.k, q) for q in bad)
                return

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
