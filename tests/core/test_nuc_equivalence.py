"""Differential test: the A_nuc automaton port equals the coroutine.

Feed both renditions the *same* observation sequences — harvested from live
coroutine runs across environments and seeds, under honest and lying
detectors, with and without the ablation flags — and require identical send
sequences and identical decisions at every step.  This pins the pure
automaton (which the service's replicas, extraction and model checking
run) to the readable coroutine.
"""

import random

import pytest

from repro.chaos.matrix import split_quorum_detector, trusted_union_liar_detector
from repro.core.nuc import AnucProcess
from repro.core.nuc_automaton import AnucAutomaton
from repro.detectors import Omega, PairedDetector, SigmaNuPlus
from repro.kernel.automaton import DeliveredMessage
from repro.kernel.failures import FailurePattern
from repro.kernel.system import System


def live_run(pattern, proposals, seed):
    detector = PairedDetector(Omega(), SigmaNuPlus())
    history = detector.sample_history(pattern, random.Random(seed + 999))
    processes = {p: AnucProcess(proposals[p]) for p in range(pattern.n)}
    system = System(processes, pattern, history, seed=seed)
    result = system.run(
        max_steps=30000, stop_when=lambda s: s.all_correct_decided()
    )
    return result


def observations_of(result, pid):
    """(msg, d) sequence and per-step send lists of one process."""
    obs, sends = [], []
    for record in result.steps:
        if record.pid != pid:
            continue
        if record.message is not None:
            msg = DeliveredMessage(record.message.sender, record.message.payload)
        else:
            msg = None
        obs.append((msg, record.detector_value))
        sends.append([(m.dest, m.payload) for m in record.sends])
    return obs, sends


def assert_automaton_replays(result, n, proposals, automaton=None):
    """Feed each process's observations to the automaton: same sends at
    every step, same decision.  Returns how often a process sat in phase 3
    with a full quorum of proposals and still had to retry (lines 25-28:
    some member of the quorum is distrusted)."""
    automaton = automaton or AnucAutomaton()
    phase3_retries = 0
    for pid in range(n):
        obs, expected_sends = observations_of(result, pid)
        state = automaton.initial_state(pid, n, proposals[pid])
        for i, (msg, d) in enumerate(obs):
            outcome = automaton.transition(state, pid, msg, d)
            state = outcome.state
            assert outcome.sends == expected_sends[i], (
                pid,
                i,
                outcome.sends,
                expected_sends[i],
            )
            if state.phase == "prop" and frozenset(d[1]) <= set(
                state.received("PROP", state.k)
            ):
                phase3_retries += 1
        assert automaton.decision(state) == result.decisions.get(pid), pid
    return phase3_retries


CASES = [
    (FailurePattern(2, {}), 0),
    (FailurePattern(3, {2: 15}), 1),
    (FailurePattern(3, {0: 5, 1: 20}), 2),
    (FailurePattern(4, {3: 30}), 3),
    (FailurePattern(5, {1: 12, 4: 45}), 4),
    (FailurePattern(5, {0: 30, 2: 31}), 5),
]


@pytest.mark.parametrize("pattern,seed", CASES, ids=[f"case{i}" for i in range(len(CASES))])
def test_automaton_replays_coroutine_exactly(pattern, seed):
    proposals = {p: p % 2 for p in range(pattern.n)}
    result = live_run(pattern, proposals, seed)
    assert result.decisions, "the source run must decide"
    assert_automaton_replays(result, pattern.n, proposals)


ABLATIONS = [
    dict(enable_quorum_awareness=False),
    dict(enable_distrust=False),
    dict(enable_distrust=False, enable_quorum_awareness=False),
]


def test_ablation_flags_match_too():
    # Split quorums: without distrust a leader from the other half is
    # adopted, with it the estimate is refused — the flags must act alike
    # in both renditions.
    pattern = FailurePattern(4, {})
    proposals = {p: "lr"[p % 2] for p in range(4)}
    detectors = (PairedDetector(Omega(), SigmaNuPlus()), split_quorum_detector())
    for flags in ABLATIONS:
        for detector in detectors:
            history = detector.sample_history(pattern, random.Random(50))
            processes = {p: AnucProcess(proposals[p], **flags) for p in range(4)}
            system = System(processes, pattern, history, seed=4)
            result = system.run(
                max_steps=4000, stop_when=lambda s: s.all_correct_decided()
            )
            assert result.decisions, flags
            assert_automaton_replays(result, 4, proposals, AnucAutomaton(**flags))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_split_quorums_refuse_the_other_halfs_leader(seed):
    """A SplitQuorums history: the halves' quorums are disjoint, so a
    leader from the other half is distrusted in phase 1 (line 18)."""
    pattern = FailurePattern(5, {4: 10})
    proposals = {p: p % 2 for p in range(5)}
    history = split_quorum_detector().sample_history(pattern, random.Random(seed))
    processes = {p: AnucProcess(proposals[p]) for p in range(5)}
    result = System(processes, pattern, history, seed=seed).run(
        max_steps=3000, stop_when=lambda s: s.all_correct_decided()
    )
    assert any(processes[p].trace.distrust_events for p in range(5))
    assert_automaton_replays(result, 5, proposals)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_phase_three_retries_on_a_distrusted_member(seed):
    """The trusted-union liar turns distrust against the pivot: the
    confederate holds a full quorum of proposals, distrusts a member and
    retries with every later step (lines 25-28) — in both renditions.
    (Split quorums alone never get there: the members of one's own half
    all report the same quorum.)"""
    pattern = FailurePattern(4, {3: 400})
    proposals = {p: p % 2 for p in range(4)}
    history = trusted_union_liar_detector().sample_history(
        pattern, random.Random(seed)
    )
    processes = {p: AnucProcess(proposals[p]) for p in range(4)}
    result = System(processes, pattern, history, seed=seed).run(max_steps=3000)
    assert result.decisions.keys() < set(pattern.correct)  # someone wedged
    assert assert_automaton_replays(result, 4, proposals) > 50


def test_contamination_schedule(monkeypatch):
    """The Section 6.3 scenario: adaptive history, a crash placed by the
    driver, the faulty leader's estimate refused by both correct processes."""
    from repro.separation import contamination

    systems = []

    class Capturing(System):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            systems.append(self)

    monkeypatch.setattr(contamination, "System", Capturing)
    report = contamination.run_contamination_scenario("anuc", seed=0)
    assert not report.contaminated and report.distrust_events
    (system,) = systems
    assert_automaton_replays(system.result(), 3, contamination.PROPOSALS)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_native_automaton_in_live_system(seed):
    """The port also runs live (through AutomatonProcess) under schedules
    and delivery orders the coroutine never saw, and still solves
    nonuniform consensus."""
    from repro.consensus import check_nonuniform_consensus, consensus_outcome
    from repro.kernel.automaton import AutomatonProcess

    rng = random.Random(f"liveport/{seed}")
    n = rng.randint(2, 5)
    crashed = rng.sample(range(n), rng.randint(0, n - 1))
    pattern = FailurePattern(n, {p: rng.randint(0, 50) for p in crashed})
    proposals = {p: rng.choice(["L", "R"]) for p in range(n)}
    detector = PairedDetector(Omega(), SigmaNuPlus())
    history = detector.sample_history(pattern, random.Random(seed + 321))
    processes = {
        p: AutomatonProcess(AnucAutomaton(), proposals[p]) for p in range(n)
    }
    system = System(processes, pattern, history, seed=seed)
    result = system.run(
        max_steps=30000, stop_when=lambda s: s.all_correct_decided()
    )
    assert result.stop_reason == "stop_condition", pattern
    assert check_nonuniform_consensus(consensus_outcome(result, proposals)).ok
