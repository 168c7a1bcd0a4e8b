"""A_nuc (Figs. 4-5) as a generator coroutine: the readable reference.

The shipped A_nuc is the automaton :class:`repro.core.nuc.AnucAutomaton`.
This module transcribes the same pseudocode as a coroutine process, one
``yield`` per model step, so that it reads almost line by line like the
paper.  ``tests/core/test_nuc_equivalence.py`` pins the automaton to it
step for step: fed the same observations, both emit the same messages,
decide the same value and record the same distrust events.

The correspondence rests on the coroutine's shape — every wait iteration
is exactly one model step, at most one wait-condition check happens per
step, and all the logic between a successful check and the next
``take_step`` (imports, adoption, decision, SAW sends, the next round's
LEAD broadcast) executes within the successful step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Generator, List, Optional, Set, Tuple

from repro.core.nuc import (
    ACK,
    LEAD,
    PROP,
    REP,
    SAW,
    UNKNOWN,
    Quorum,
    QuorumHistory,
    distrusted_members,
    distrusts,
    snapshot_history,
)
from repro.kernel.automaton import DeliveredMessage, Process, ProcessContext


def considers_faulty(history: QuorumHistory, pid: int) -> FrozenSet[int]:
    """The set ``F_p`` (line 52), exposed for analysis and tests."""
    mine = history.get(pid, set())
    return frozenset(
        q2
        for q2 in history
        if any(not (quorum & own) for quorum in history.get(q2, ()) for own in mine)
    )


@dataclass
class AnucTrace:
    """Diagnostics exposed by a process for tests and experiments."""

    rounds_started: int = 0
    quorums_used: List[Tuple[int, Quorum]] = field(default_factory=list)
    distrust_events: List[Tuple[int, int]] = field(default_factory=list)
    decided_round: Optional[int] = None


class AnucProcess(Process):
    """One process of A_nuc.  ``proposal`` is this process's input value.

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

    def __init__(
        self,
        proposal: Any,
        enable_distrust: bool = True,
        enable_quorum_awareness: bool = True,
    ):
        self.proposal = proposal
        self.enable_distrust = enable_distrust
        self.enable_quorum_awareness = enable_quorum_awareness
        self.trace = AnucTrace()
        self.history: QuorumHistory = {}

    def program(self, ctx: ProcessContext) -> Generator:
        n = ctx.n
        pid = ctx.pid
        trace = self.trace

        # --- initialize (Fig. 4 lines 1-11) ----------------------------
        state = _Vars(x=self.proposal, k=0)
        history: QuorumHistory = {q: set() for q in range(n)}
        self.history = history
        sent: Dict[Quorum, bool] = {}
        acks: Dict[Quorum, Set[int]] = {}
        round_no: Dict[Quorum, int] = {}
        seen: Dict[Quorum, int] = {}  # absent key = infinity
        received: Dict[Tuple[str, int], Dict[int, DeliveredMessage]] = {}

        # --- upon-receipt handlers (lines 35-42, run within any step) --
        def handler(message: DeliveredMessage) -> bool:
            tag = message.payload[0]
            if tag == SAW:
                _, q, quorum = message.payload
                history[q].add(quorum)  # line 36
                ctx.send(message.sender, (ACK, pid, quorum, state.k))  # line 37
                return True
            if tag == ACK:
                _, q, quorum, k = message.payload
                acks.setdefault(quorum, set()).add(q)  # line 40
                round_no[quorum] = max(round_no.get(quorum, 0), k)  # line 41
                if acks[quorum] == set(quorum):  # line 42
                    seen[quorum] = round_no[quorum]
                return True
            # Round traffic: filed under (tag, round), first message per
            # sender, so a wait condition looks its round up directly.
            by_sender = received.setdefault((tag, message.payload[1]), {})
            by_sender.setdefault(message.sender, message)
            return False

        ctx.add_handler(handler)

        # --- helpers ----------------------------------------------------
        def import_history(incoming: Dict[int, FrozenSet[Quorum]]) -> None:
            for r, quorums in incoming.items():  # lines 44-46
                history[r] |= quorums

        def get_quorum() -> Quorum:
            _leader, quorum = ctx.detector_value  # line 48
            quorum = frozenset(quorum)
            history[pid].add(quorum)  # line 49
            return quorum

        def messages(tag: str, rnd: int) -> Dict[int, DeliveredMessage]:
            return received.get((tag, rnd), _NO_MESSAGES)

        # --- main loop (lines 13-33) -------------------------------------
        while True:
            state.k += 1  # line 14
            trace.rounds_started = state.k
            ctx.send_to_all((LEAD, state.k, state.x, snapshot_history(history)))

            # Phase 1 (lines 16-18): wait for the current leader's message.
            while True:
                yield from ctx.take_step()
                leader, _ = ctx.detector_value
                lead_msg = messages(LEAD, state.k).get(leader)
                if lead_msg is not None:
                    break
            import_history(lead_msg.payload[3])  # line 17
            if not self.enable_distrust or not distrusts(
                history, pid, leader, n
            ):  # line 18
                state.x = lead_msg.payload[2]
            else:
                trace.distrust_events.append((state.k, leader))

            # Phase 2 (lines 19-24): collect reports from a quorum.
            ctx.send_to_all((REP, state.k, state.x))
            while True:
                yield from ctx.take_step()
                quorum = get_quorum()
                reports = messages(REP, state.k)
                if quorum and quorum <= set(reports):
                    break
            values = {reports[q].payload[2] for q in quorum}
            if len(values) == 1:
                (proposal,) = values
            else:
                proposal = UNKNOWN
            ctx.send_to_all((PROP, state.k, proposal, snapshot_history(history)))

            # Phase 3 (lines 25-28): collect proposals from a quorum none of
            # whose members is distrusted.
            while True:
                while True:
                    yield from ctx.take_step()
                    quorum = get_quorum()
                    proposals = messages(PROP, state.k)
                    if quorum and quorum <= set(proposals):
                        break
                for q in quorum:  # line 27
                    import_history(proposals[q].payload[3])
                if not self.enable_distrust:
                    break
                bad = distrusted_members(history, pid, quorum, n)
                if not bad:
                    break
                for q in bad:
                    trace.distrust_events.append((state.k, q))
            trace.quorums_used.append((state.k, quorum))

            # Lines 29-30: adopt, then maybe decide.
            quorum_values = {q: proposals[q].payload[2] for q in quorum}
            non_unknown = sorted(
                (q, v) for q, v in quorum_values.items() if v != UNKNOWN
            )
            if non_unknown:
                state.x = non_unknown[0][1]
            unanimous = (
                len({v for v in quorum_values.values()}) == 1
                and next(iter(quorum_values.values())) != UNKNOWN
            )
            aware = (
                not self.enable_quorum_awareness
                or seen.get(quorum, _INF) < state.k
            )
            if unanimous and aware and ctx.decision is None:
                # Decisions are irrevocable; once decided, the process keeps
                # participating but never re-enters a deciding state.
                trace.decided_round = state.k
                ctx.decide(state.x)

            # Lines 31-33: announce first use of this quorum.
            if not sent.get(quorum):
                for dest in sorted(quorum):
                    ctx.send(dest, (SAW, pid, quorum))
                sent[quorum] = True


_INF = float("inf")
_NO_MESSAGES: Dict[int, DeliveredMessage] = {}


@dataclass
class _Vars:
    """Mutable cell for variables shared with the upon-receipt handlers."""

    x: Any
    k: int
