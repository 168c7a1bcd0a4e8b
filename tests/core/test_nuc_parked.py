"""A parked A_nuc state's lambda step is a stutter.

:meth:`~repro.core.nuc.AnucAutomaton.transition` answers a lambda step
whose detector value equals ``state.parked`` — the value at which the last
step's wait check failed — with no sends, running no handler and no check.
Here every lambda step of live runs (honest and lying detectors, both
ablation switches) is also run in full on a ``copy_state`` copy whose
``parked`` is cleared: the two must send the same messages and leave the
same ``snapshot()`` and ``distrust_events``.  Where the skip answers, that
means the full transition sends nothing and changes nothing.
"""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.matrix import split_quorum_detector, trusted_union_liar_detector
from repro.core.nuc import AnucAutomaton
from repro.detectors import Omega, PairedDetector, SigmaNuPlus
from repro.kernel.automaton import AutomatonProcess, DeliveredMessage
from repro.kernel.failures import FailurePattern
from repro.kernel.system import System

DETECTORS = {
    "honest": lambda: PairedDetector(Omega(), SigmaNuPlus()),
    "split-quorums": split_quorum_detector,
    "trusted-union-liar": trusted_union_liar_detector,
}


class CheckedAnuc(AnucAutomaton):
    """A_nuc that re-runs every skipped lambda step in full on an unparked
    copy; counts the skips and the phase-3 retries."""

    def __init__(self, counts: Counter, **flags):
        super().__init__(**flags)
        self.counts = counts

    def _check_lead(self, state, sends, leader):
        self.counts["checks"] += 1
        super()._check_lead(state, sends, leader)

    def _check_rep(self, state, sends, quorum):
        self.counts["checks"] += 1
        super()._check_rep(state, sends, quorum)

    def _check_prop(self, state, sends, quorum):
        self.counts["checks"] += 1
        retries = len(state.distrust_events)
        super()._check_prop(state, sends, quorum)
        if state.phase == "prop" and len(state.distrust_events) > retries:
            self.counts["retries"] += 1

    def transition(self, state, pid, msg, d):
        checks = self.counts["checks"]
        outcome = super().transition(state, pid, msg, d)
        if self.counts["checks"] > checks:
            return outcome
        # The skip answered (and left the state as it was): the full
        # transition from the same state must be a stutter too.
        assert msg is None and outcome.sends == []
        self.counts["skips"] += 1
        full = self.copy_state(state)
        full.parked = None
        expected = super().transition(full, pid, None, d)
        assert expected.sends == [], (pid, d, expected.sends)
        assert self.snapshot(full) == self.snapshot(state), (pid, d)
        assert full.distrust_events == state.distrust_events, (pid, d)
        return outcome


def run_checked(n, crashes, detector, flags, seed, max_steps):
    counts: Counter = Counter()
    pattern = FailurePattern(n, crashes)
    history = DETECTORS[detector]().sample_history(
        pattern, random.Random(seed)
    )
    automaton = CheckedAnuc(counts, **flags)
    processes = {
        p: AutomatonProcess(automaton, "lr"[p % 2]) for p in range(n)
    }
    System(processes, pattern, history, seed=seed).run(max_steps=max_steps)
    return counts


@st.composite
def runs(draw):
    n = draw(st.integers(2, 5))
    crashed = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n - 1))
    crashes = {p: draw(st.integers(0, 300)) for p in crashed}
    detector = draw(st.sampled_from(sorted(DETECTORS)))
    flags = dict(
        enable_distrust=draw(st.booleans()),
        enable_quorum_awareness=draw(st.booleans()),
    )
    return n, crashes, detector, flags, draw(st.integers(0, 2**16))


@settings(max_examples=30, deadline=None)
@given(runs())
def test_every_skip_is_a_stutter(run):
    run_checked(*run, max_steps=600)


def test_the_skip_answers_often():
    counts = run_checked(4, {3: 200}, "honest", {}, seed=1, max_steps=1000)
    assert counts["skips"] > 200


def test_a_phase_three_retry_never_parks():
    # The trusted-union liar wedges the confederate in lines 25-28: it
    # retries at every later step, each retry recording distrust events.
    # Were a retry to park, the unparked copy would record more of them.
    for seed in range(2):
        counts = run_checked(
            4, {3: 400}, "trusted-union-liar", {}, seed, max_steps=1000
        )
        assert counts["retries"] > 200 and counts["skips"] > 100


def test_a_changed_quorum_is_not_a_stutter():
    # Omega stays on p0 while the Sigma^nu+ quorum changes: a skip keyed on
    # the leader alone would miss the phase-2/3 quorum of the new value.
    automaton = AnucAutomaton()
    state = automaton.initial_state(1, 3, "v")
    first, second = (0, frozenset({0, 1})), (0, frozenset({1, 2}))
    automaton.transition(state, 1, None, first)  # round 1 opens; waits
    assert state.parked == first
    # p0's LEAD arrives: phase 2 waits for the REPs of {0, 1}.
    lead = DeliveredMessage(0, ("LEAD", 1, "w", {}))
    automaton.transition(state, 1, lead, first)
    assert state.phase == "rep" and state.parked is None
    automaton.transition(state, 1, None, first)
    assert state.parked == first
    assert automaton.transition(state, 1, None, first).sends == []
    before = automaton.snapshot(state)
    automaton.transition(state, 1, None, second)
    assert automaton.snapshot(state) != before  # get_quorum saw {1, 2}
    assert state.parked == second
