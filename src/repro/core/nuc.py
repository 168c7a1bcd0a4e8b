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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    Generator,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.kernel.automaton import DeliveredMessage, Process, ProcessContext

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
                ctx.send_each(sorted(quorum), (SAW, pid, quorum))
                sent[quorum] = True


_INF = float("inf")
_NO_MESSAGES: Dict[int, DeliveredMessage] = {}


@dataclass
class _Vars:
    """Mutable cell for variables shared with the upon-receipt handlers."""

    x: Any
    k: int
