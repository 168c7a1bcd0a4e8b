"""The Mostéfaoui-Raynal leader-based consensus algorithm [6].

This is the starting point of the paper's Section 6.3: it uses Omega to
solve *uniform* consensus in environments with a correct majority.  Each
asynchronous round has three phases:

1. broadcast a leader message with the current estimate; wait for the leader
   message of the process currently output by Omega and adopt its estimate;
2. broadcast a report with the estimate; wait for reports from a majority;
   propose ``v`` if the reports were unanimously ``v``, else propose ``?``;
3. broadcast the proposal; wait for proposals from a majority; adopt any
   ``v != ?`` received; decide ``v`` if a majority proposed ``v``.

Majority intersection gives the two key properties (A) and (B) the paper
quotes; the quorum generalizations in :mod:`repro.consensus.quorum_mr` swap
majorities for failure-detector quorums.

The implementation is a *pure automaton* so that it can be the subject
algorithm ``A`` of the necessity construction ``T_{D -> Sigma^nu}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.kernel.automaton import Automaton, DeliveredMessage, TransitionOutcome
from repro import obs as _obs

UNKNOWN = "?"

LEAD = "LEAD"
REP = "REP"
PROP = "PROP"


@dataclass
class _RoundState:
    """Per-process state of the phased leader/report/propose loop."""

    pid: int
    n: int
    x: Any
    round: int = 1
    phase: str = LEAD
    decided: Optional[Any] = None
    # (tag, round) -> {sender: value}
    msgs: Dict[Tuple[str, int], Dict[int, Any]] = field(default_factory=dict)
    round_opened: bool = False

    def record(self, sender: int, tag: str, rnd: int, value: Any) -> None:
        self.msgs.setdefault((tag, rnd), {})[sender] = value

    def received(self, tag: str, rnd: int) -> Dict[int, Any]:
        return self.msgs.get((tag, rnd), {})


class LeaderQuorumConsensus(Automaton):
    """Shared machinery for MR-style leader/quorum consensus automata.

    Subclasses define how a *collection set* is obtained from the detector
    value (majorities for MR, detector quorums for the Sigma variants) and
    whether deciding requires a unanimous collection.
    """

    #: human-readable algorithm name
    name = "leader-quorum-consensus"

    # -- hooks ----------------------------------------------------------

    def leader_of(self, d: Any) -> int:
        """The Omega component of the detector value."""
        raise NotImplementedError

    def collection_ready(
        self, state: _RoundState, d: Any, tag: str
    ) -> Optional[FrozenSet[int]]:
        """If the wait of phase ``tag`` is satisfied, the set collected from.

        Re-evaluated at every step (the pseudocode's ``repeat ... until``),
        with the *current* detector value.  ``None`` keeps waiting.
        """
        raise NotImplementedError

    # -- Automaton interface ---------------------------------------------

    def initial_state(self, pid: int, n: int, proposal: Any) -> _RoundState:
        return _RoundState(pid=pid, n=n, x=proposal)

    def decision(self, state: _RoundState) -> Optional[Any]:
        return state.decided

    def copy_state(self, state: _RoundState) -> _RoundState:
        # Two levels of dict copying reach every mutable part of the state
        # (payload values are immutable tuples/scalars); much cheaper than
        # the generic deepcopy on the simulation trie's snapshot path.
        return _RoundState(
            pid=state.pid,
            n=state.n,
            x=state.x,
            round=state.round,
            phase=state.phase,
            decided=state.decided,
            msgs={key: dict(senders) for key, senders in state.msgs.items()},
            round_opened=state.round_opened,
        )

    def snapshot(self, state: _RoundState) -> Any:
        msgs = tuple(
            (key, tuple(sorted(senders.items(), key=lambda kv: kv[0])))
            for key, senders in sorted(state.msgs.items())
        )
        return (
            state.pid,
            state.round,
            state.phase,
            state.x,
            state.decided,
            state.round_opened,
            msgs,
        )

    def transition(
        self,
        state: _RoundState,
        pid: int,
        msg: Optional[DeliveredMessage],
        d: Any,
    ) -> TransitionOutcome:
        sends: List[Tuple[int, Any]] = []
        if msg is not None:
            tag, rnd, value = msg.payload
            state.record(msg.sender, tag, rnd, value)

        # Drive the phase machine as far as the received messages allow;
        # several phases may fire within one step if their waits are already
        # satisfied (the state change of a step is arbitrary).  Processes
        # keep participating after deciding (decisions are irrevocable, but
        # laggards still need the decider's later-round messages).
        progressed = True
        while progressed:
            progressed = self._try_advance(state, d, sends)
        return TransitionOutcome(state=state, sends=sends)

    # -- phase machine ----------------------------------------------------

    def _broadcast(
        self, state: _RoundState, sends: List[Tuple[int, Any]], payload: Any
    ) -> None:
        for dest in range(state.n):
            sends.append((dest, payload))
        # A process "receives" its own broadcast through the buffer like
        # everyone else; no short-circuiting, to keep schedules honest.

    def _try_advance(
        self, state: _RoundState, d: Any, sends: List[Tuple[int, Any]]
    ) -> bool:
        if not state.round_opened:
            self._broadcast(state, sends, (LEAD, state.round, state.x))
            state.round_opened = True
            return True

        if state.phase == LEAD:
            leader = self.leader_of(d)
            leads = state.received(LEAD, state.round)
            if leader in leads:
                state.x = leads[leader]
                state.phase = REP
                self._broadcast(state, sends, (REP, state.round, state.x))
                return True
            return False

        if state.phase == REP:
            collected = self.collection_ready(state, d, REP)
            if collected is None:
                return False
            reports = state.received(REP, state.round)
            values = {reports[q] for q in collected}
            if len(values) == 1:
                (proposal,) = values
            else:
                proposal = UNKNOWN
            state.phase = PROP
            self._broadcast(state, sends, (PROP, state.round, proposal))
            return True

        if state.phase == PROP:
            collected = self.collection_ready(state, d, PROP)
            if collected is None:
                return False
            proposals = state.received(PROP, state.round)
            collected_values = [proposals[q] for q in sorted(collected)]
            non_unknown = [v for v in collected_values if v != UNKNOWN]
            if non_unknown:
                state.x = non_unknown[0]
            if state.decided is None and self._may_decide(
                state, collected, collected_values, proposals
            ):
                state.decided = state.x
            state.round += 1
            state.phase = LEAD
            state.round_opened = False
            if _obs._ENABLED:
                _obs.metrics().inc(f"consensus.rounds.{self.name}")
            return True

        raise AssertionError(f"unknown phase {state.phase!r}")

    def _may_decide(
        self,
        state: _RoundState,
        collected: FrozenSet[int],
        collected_values: List[Any],
        all_proposals: Dict[int, Any],
    ) -> bool:
        raise NotImplementedError


class MostefaouiRaynal(LeaderQuorumConsensus):
    """MR consensus with Omega and majorities (correct-majority environments).

    Detector value: the Omega output (a process id).
    """

    name = "mostefaoui-raynal"

    def leader_of(self, d: Any) -> int:
        return d

    def _majority(self, n: int) -> int:
        return n // 2 + 1

    def collection_ready(self, state, d, tag):
        received = state.received(tag, state.round)
        maj = self._majority(state.n)
        if len(received) >= maj:
            # The collection is the first majority by sender id, a
            # deterministic choice among the majorities available.
            return frozenset(sorted(received)[:maj])
        return None

    def _may_decide(self, state, collected, collected_values, all_proposals):
        # Decide when a majority proposed the same v != '?'.  All non-'?'
        # round proposals are equal (property (A)), so counting the round's
        # received proposals is sound.
        maj = self._majority(state.n)
        non_unknown = [v for v in all_proposals.values() if v != UNKNOWN]
        if not non_unknown:
            return False
        v = non_unknown[0]
        return sum(1 for w in all_proposals.values() if w == v) >= maj
