"""White-box tests of A_nuc's phases, fed observation by observation.

These drive a single AnucProcess through a crafted sequence of observations
(no System, no scheduler) and inspect the exact messages it emits — the
paper's pseudocode, line by line, at the message level.
"""

import pytest

from repro.core.nuc import ACK, LEAD, PROP, REP, SAW, AnucProcess
from repro.kernel.automaton import (
    CoroutineRuntime,
    DeliveredMessage,
    Observation,
    ProcessContext,
)

N = 2
LEADER0_Q01 = (0, frozenset({0, 1}))  # leader 0, quorum {0,1}


class Driver:
    """Feeds observations to one A_nuc process and collects its sends."""

    def __init__(self, pid=0, proposal="v", **kwargs):
        self.ctx = ProcessContext(pid, N)
        self.process = AnucProcess(proposal, **kwargs)
        self.runtime = CoroutineRuntime(self.process, self.ctx)
        self.time = 0
        self.sent = []

    def step(self, message=None, d=LEADER0_Q01):
        obs = Observation(message=message, detector_value=d, time=self.time)
        sends = self.runtime.step(*obs)
        self.time += 1
        self.sent.extend(sends)
        return sends

    def deliver(self, sender, payload, d=LEADER0_Q01):
        return self.step(DeliveredMessage(sender, payload), d)

    def sent_tags(self):
        return [payload[0] for _, payload in self.sent]


class TestPhaseProgression:
    def test_round_opens_with_lead_broadcast(self):
        driver = Driver()
        sends = driver.step()  # first step: LEAD(1) queued at init
        lead = [p for _, p in sends if p[0] == LEAD]
        assert len(lead) == N  # broadcast to everyone incl. self
        tag, k, x, hist = lead[0]
        assert (k, x) == (1, "v")
        assert hist == {}  # empty history at round 1

    def test_waits_for_leader_lead_only(self):
        driver = Driver()
        driver.step()
        # LEAD from non-leader process 1 does not unblock phase 1
        sends = driver.deliver(1, (LEAD, 1, "w", {}))
        assert all(p[0] != REP for _, p in sends)
        # own LEAD (leader is 0 = self) unblocks and REP goes out
        sends = driver.deliver(0, (LEAD, 1, "v", {}))
        assert [p[0] for _, p in sends].count(REP) == N

    def test_rep_wait_collects_whole_quorum(self):
        driver = Driver()
        driver.step()
        driver.deliver(0, (LEAD, 1, "v", {}))
        # own REP alone is not the full quorum {0,1}
        sends = driver.deliver(0, (REP, 1, "v"))
        assert all(p[0] != PROP for _, p in sends)
        sends = driver.deliver(1, (REP, 1, "v"))
        props = [p for _, p in sends if p[0] == PROP]
        assert len(props) == N
        assert props[0][2] == "v"  # unanimous reports propose v

    def test_mixed_reports_propose_unknown(self):
        driver = Driver()
        driver.step()
        driver.deliver(0, (LEAD, 1, "v", {}))
        driver.deliver(0, (REP, 1, "v"))
        sends = driver.deliver(1, (REP, 1, "w"))
        props = [p for _, p in sends if p[0] == PROP]
        assert props and props[0][2] == "?"

    def test_saw_sent_on_first_quorum_use(self):
        driver = Driver()
        driver.step()
        driver.deliver(0, (LEAD, 1, "v", {}))
        driver.deliver(0, (REP, 1, "v"))
        driver.deliver(1, (REP, 1, "v"))
        driver.deliver(0, (PROP, 1, "v", {}))
        sends = driver.deliver(1, (PROP, 1, "v", {}))
        saws = [(d, p) for d, p in sends if p[0] == SAW]
        assert {d for d, _ in saws} == {0, 1}
        assert all(p[2] == frozenset({0, 1}) for _, p in saws)

    def test_no_decision_in_round_one(self):
        driver = Driver()
        driver.step()
        driver.deliver(0, (LEAD, 1, "v", {}))
        driver.deliver(0, (REP, 1, "v"))
        driver.deliver(1, (REP, 1, "v"))
        driver.deliver(0, (PROP, 1, "v", {}))
        driver.deliver(1, (PROP, 1, "v", {}))
        assert driver.ctx.decision is None  # seen-gate blocks round 1

    def test_full_two_round_decision(self):
        """Run both rounds by hand: SAW/ACK completes during round 1, the
        decision lands in round 2."""
        driver = Driver()
        driver.step()
        driver.deliver(0, (LEAD, 1, "v", {}))
        driver.deliver(0, (REP, 1, "v"))
        driver.deliver(1, (REP, 1, "v"))
        driver.deliver(0, (PROP, 1, "v", {}))
        driver.deliver(1, (PROP, 1, "v", {}))  # -> SAW sent, round 2 opens
        quorum = frozenset({0, 1})
        # deliver own SAW; handler replies ACK(…, k) with current round
        driver.deliver(0, (SAW, 0, quorum))
        # feed the two ACKs (own + from 1), with round-1 tags
        driver.deliver(0, (ACK, 0, quorum, 1))
        driver.deliver(1, (ACK, 1, quorum, 1))
        # round 2 now plays out
        driver.deliver(0, (LEAD, 2, "v", {}))
        driver.deliver(0, (REP, 2, "v"))
        driver.deliver(1, (REP, 2, "v"))
        driver.deliver(0, (PROP, 2, "v", {}))
        driver.deliver(1, (PROP, 2, "v", {}))
        assert driver.ctx.decision == "v"
        assert driver.process.trace.decided_round == 2


class TestHandlers:
    def test_saw_acked_within_the_receiving_step(self):
        driver = Driver()
        driver.step()
        quorum = frozenset({0, 1})
        sends = driver.deliver(1, (SAW, 1, quorum))
        acks = [(d, p) for d, p in sends if p[0] == ACK]
        assert acks == [(1, (ACK, 0, quorum, 1))]

    def test_saw_inserts_into_history(self):
        driver = Driver()
        driver.step()
        quorum = frozenset({1})
        driver.deliver(1, (SAW, 1, quorum))
        assert quorum in driver.process.history[1]

    def test_history_import_from_lead(self):
        driver = Driver()
        driver.step()
        incoming = {1: frozenset({frozenset({1})})}
        driver.deliver(0, (LEAD, 1, "v", incoming))
        assert frozenset({1}) in driver.process.history[1]

    def test_get_quorum_records_own_polls(self):
        driver = Driver()
        driver.step()
        driver.deliver(0, (LEAD, 1, "v", {}))
        # now in the REP wait: each step polls the quorum into H[0]
        driver.step(d=(0, frozenset({0})))
        assert frozenset({0}) in driver.process.history[0]


class TestAblationsWhitebox:
    def test_awareness_off_decides_in_round_one(self):
        driver = Driver(enable_quorum_awareness=False)
        driver.step()
        driver.deliver(0, (LEAD, 1, "v", {}))
        driver.deliver(0, (REP, 1, "v"))
        driver.deliver(1, (REP, 1, "v"))
        driver.deliver(0, (PROP, 1, "v", {}))
        driver.deliver(1, (PROP, 1, "v", {}))
        assert driver.ctx.decision == "v"
        assert driver.process.trace.decided_round == 1

    def test_distrust_off_adopts_from_anyone(self):
        # poison the history so that with distrust on, leader 1 is refused
        driver = Driver(enable_distrust=False)
        driver.step(d=(1, frozenset({0})))
        # own quorum {0} known; leader 1's history says it saw {1}
        incoming = {1: frozenset({frozenset({1})})}
        driver.deliver(1, (LEAD, 1, "w", incoming), d=(1, frozenset({0})))
        # it adopted w: the REP broadcast carries w
        reps = [p for _, p in driver.sent if p[0] == REP]
        assert reps and reps[-1][2] == "w"

    def test_distrust_on_refuses_poisoned_leader(self):
        driver = Driver()
        driver.step(d=(1, frozenset({0})))
        # phase 1 never polls the quorum, so plant {0} in H[0] through a
        # SAW notification (the handler inserts into H[payload's owner])
        driver.deliver(0, (SAW, 0, frozenset({0})), d=(1, frozenset({0})))
        incoming = {1: frozenset({frozenset({1})})}
        driver.deliver(1, (LEAD, 1, "w", incoming), d=(1, frozenset({0})))
        reps = [p for _, p in driver.sent if p[0] == REP]
        assert reps and reps[-1][2] == "v"  # kept its own estimate
        assert (1, 1) in driver.process.trace.distrust_events
