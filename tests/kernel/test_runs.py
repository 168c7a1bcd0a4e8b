"""Runs, run validation and merging (Sections 2.6, 2.10, Lemma 2.2)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel.automaton import Automaton, TransitionOutcome
from repro.kernel.failures import FailurePattern
from repro.kernel.runs import (
    PureRun,
    PureSystemSimulator,
    merge_runs,
    mergeable,
    validate_run,
)
from repro.kernel.steps import Schedule, Step


class Chatter(Automaton):
    """Broadcasts a counter on lambda steps; remembers everything received."""

    def initial_state(self, pid, n, proposal):
        return {"pid": pid, "n": n, "x": proposal, "count": 0, "seen": []}

    def transition(self, state, pid, msg, d):
        sends = []
        if msg is None:
            state["count"] += 1
            payload = ("tick", state["x"], state["count"])
            sends = [(q, payload) for q in range(state["n"])]
        else:
            state["seen"].append((msg.sender, msg.payload, d))
        return TransitionOutcome(state=state, sends=sends)

    def snapshot(self, state):
        return (
            state["pid"],
            state["x"],
            state["count"],
            tuple(state["seen"]),
        )


def lam(pid, d=None):
    return Step(pid=pid, msg_uid=None, detector_value=d)


def null_history(p, t):
    return None


class TestPureSystemSimulator:
    def setup_method(self):
        self.sim = PureSystemSimulator(Chatter(), 3, {0: "a", 1: "b", 2: "c"})

    def test_lambda_step_always_applicable(self):
        assert self.sim.is_applicable(lam(0))

    def test_receive_requires_pending_message(self):
        step = Step(pid=1, msg_uid=(0, 0), detector_value=None)
        assert not self.sim.is_applicable(step)
        self.sim.apply_step(lam(0))  # process 0 broadcasts (0,0)..(0,2)
        good = Step(pid=1, msg_uid=(0, 1), detector_value=None)
        assert self.sim.is_applicable(good)
        wrong_dest = Step(pid=2, msg_uid=(0, 1), detector_value=None)
        assert not self.sim.is_applicable(wrong_dest)

    def test_apply_removes_message_and_updates_state(self):
        self.sim.apply_step(lam(0))
        step = Step(pid=1, msg_uid=(0, 1), detector_value="D")
        self.sim.apply_step(step)
        assert self.sim.states[1]["seen"] == [(0, ("tick", "a", 1), "D")]
        assert not self.sim.is_applicable(step)

    def test_oldest_pending_uid_follows_send_order(self):
        self.sim.apply_step(lam(0))
        self.sim.apply_step(lam(2))
        assert self.sim.oldest_pending_uid(1) == (0, 1)

    def test_inapplicable_apply_raises(self):
        with pytest.raises(ValueError):
            self.sim.apply_step(Step(pid=0, msg_uid=(9, 9), detector_value=None))


class CountingChatter(Chatter):
    """Chatter (which transitions in place) counting its state copies."""

    def __init__(self):
        self.copies = 0

    def copy_state(self, state):
        self.copies += 1
        return {**state, "seen": list(state["seen"])}


def configuration(sim):
    """Everything a simulator exposes about its configuration."""
    return (
        [sim.snapshot(p) for p in range(sim.n)],
        dict(sim.pending),
        sim.steps_applied,
    )


def chatter_sim(n=3):
    return PureSystemSimulator(CountingChatter(), n, {p: p for p in range(n)})


class TestFork:
    """fork() is copy on write: neither side sees the other's later steps."""

    def test_stepping_either_side_leaves_the_other_unchanged(self):
        sim = chatter_sim()
        sim.apply_step(lam(0))
        twin = sim.fork()
        before = configuration(sim)
        twin.apply_step(lam(0))
        twin.apply_step(Step(pid=1, msg_uid=(0, 1), detector_value="D"))
        assert configuration(sim) == before
        twin_before = configuration(twin)
        sim.apply_step(lam(1))
        sim.apply_step(Step(pid=2, msg_uid=(0, 2), detector_value="E"))
        assert configuration(twin) == twin_before
        assert configuration(sim) != twin_before

    def test_repeated_forks_stay_isolated(self):
        sims = [chatter_sim()]
        for _ in range(4):
            sims[-1].apply_step(lam(0))
            sims.append(sims[-1].fork())
        frozen = [configuration(s) for s in sims]
        for i, sim in enumerate(sims):
            sim.apply_step(lam(0))
            sim.apply_step(Step(pid=1, msg_uid=(0, 1), detector_value=i))
            frozen[i] = configuration(sim)
            for j, other in enumerate(sims):
                assert configuration(other) == frozen[j], (i, j)

    def test_copy_state_runs_at_most_once_per_process_and_fork(self):
        sim = chatter_sim()
        automaton = sim.automaton
        for _ in range(3):
            sim.apply_step(lam(0))
        assert automaton.copies == 0  # a fresh simulator owns its states
        twin = sim.fork()
        for _ in range(3):
            twin.apply_step(lam(0))
        assert automaton.copies == 1
        for _ in range(3):
            sim.apply_step(lam(0))
        assert automaton.copies == 2
        twin.apply_step(lam(1))
        assert automaton.copies == 3
        sim.fork()  # forking again makes both sides copy once more
        twin.apply_step(lam(0))
        sim.apply_step(lam(0))
        assert automaton.copies == 4  # twin was not forked again
        twin.fork().apply_step(lam(0))
        twin.apply_step(lam(0))
        assert automaton.copies == 6

    def test_walk_base_survives_restores(self):
        """A walk keeps its base simulator at the chain's frozen prefix.
        Every query whose chain diverges below the walk's tip forks the
        base, so the base's configuration never changes."""
        from repro.core.dag import Sample
        from repro.core.simtrie import SimulationTrie, _Walk

        n, frozen = 3, 4

        def chain(pids):
            counts = [0] * n
            out = []
            for t, pid in enumerate(pids):
                counts[pid] += 1
                key = (pid, counts[pid])
                out.append(Sample(pid=pid, k=key[1], d=key, frontier=(0,) * n, t=t))
            return out

        prefix = [0, 1, 2, 0]
        trie = SimulationTrie(CountingChatter(), n)
        cfg = trie.config_index({p: p for p in range(n)})
        walk = _Walk(trie.root)
        trie._descend(cfg, chain(prefix + [1, 2, 0, 1]), None, walk, 0, frozen)
        node, base = walk.base
        assert base.steps_applied == frozen
        before = configuration(base)
        for tail in ([2, 1, 1, 0], [0, 0, 2], [1, 1, 2, 2, 0]):
            tip = walk.tip[1]
            trie._descend(cfg, chain(prefix + tail), None, walk, frozen, frozen)
            assert walk.tip[1] is not tip and walk.tip[1] is not base
            assert walk.base == (node, base)
            assert configuration(base) == before
        assert trie.counters.snapshot_restores == 3
        assert trie.counters.snapshots_stored == 1


def build_run(n=2, steps=None, times=None, pattern=None, history=null_history):
    steps = steps if steps is not None else [lam(0), lam(1)]
    times = times if times is not None else list(range(len(steps)))
    return PureRun(
        automaton=Chatter(),
        n=n,
        proposals={p: p for p in range(n)},
        pattern=pattern or FailurePattern.no_failures(n),
        history=history,
        schedule=Schedule(steps),
        times=times,
    )


class TestValidateRun:
    def test_valid_run_passes(self):
        assert validate_run(build_run()) == []

    def test_length_mismatch_property_2(self):
        run = build_run(times=[0])
        assert any("property 2" in v for v in validate_run(run))

    def test_decreasing_times_property_4(self):
        run = build_run(times=[5, 3])
        assert any("property 4" in v for v in validate_run(run))

    def test_step_after_crash_property_3(self):
        run = build_run(pattern=FailurePattern(2, {1: 0}))
        assert any("property 3" in v for v in validate_run(run))

    def test_wrong_detector_value_property_3(self):
        run = build_run(history=lambda p, t: "leader")
        violations = validate_run(run)
        assert any("property 3" in v and "detector" in v for v in violations)

    def test_unapplicable_schedule_property_1(self):
        steps = [Step(pid=0, msg_uid=(5, 5), detector_value=None)]
        run = build_run(steps=steps, times=[0])
        assert any("property 1" in v for v in validate_run(run))

    def test_same_process_equal_times_property_5(self):
        run = build_run(steps=[lam(0), lam(0)], times=[3, 3])
        assert any("property 5" in v for v in validate_run(run))

    def test_message_received_at_send_time_property_5(self):
        steps = [lam(0), Step(pid=1, msg_uid=(0, 1), detector_value=None)]
        run = build_run(steps=steps, times=[4, 4])
        assert any("property 5" in v for v in validate_run(run))

    def test_send_index_names_the_sending_step_property_5(self):
        steps = [lam(0), lam(1), Step(pid=0, msg_uid=(1, 0), detector_value=None)]
        run = build_run(steps=steps, times=[0, 4, 4])
        assert validate_run(run) == [
            "property 5: message (1, 0) received at step 2 (t=4) no later "
            "than its send at step 1 (t=4)"
        ]

    def test_concurrent_steps_of_distinct_processes_allowed(self):
        run = build_run(steps=[lam(0), lam(1)], times=[2, 2])
        assert validate_run(run) == []


class TestMerging:
    def make_pair(self, times0=(0, 2, 4), times1=(1, 3, 5)):
        run0 = build_run(
            n=4, steps=[lam(0), lam(1), lam(0)], times=list(times0)
        )
        run1 = PureRun(
            automaton=run0.automaton,
            n=4,
            proposals={0: 0, 1: 1, 2: "z2", 3: "z3"},
            pattern=run0.pattern,
            history=run0.history,
            schedule=Schedule([lam(2), lam(3), lam(2)]),
            times=list(times1),
        )
        return run0, run1

    def test_disjoint_participants_are_mergeable(self):
        run0, run1 = self.make_pair()
        assert mergeable(run0, run1)

    def test_overlapping_participants_not_mergeable(self):
        run0, _ = self.make_pair()
        assert not mergeable(run0, run0)

    def test_different_patterns_not_mergeable(self):
        run0, run1 = self.make_pair()
        run1.pattern = FailurePattern(4, {3: 99999})
        assert not mergeable(run0, run1)

    def test_merged_is_a_valid_run(self):
        run0, run1 = self.make_pair()
        merged = merge_runs(run0, run1)
        assert validate_run(merged) == []
        assert len(merged.schedule) == 6

    def test_merged_times_nondecreasing_and_complete(self):
        run0, run1 = self.make_pair(times0=(0, 2, 2), times1=(1, 2, 9))
        merged = merge_runs(run0, run1)
        assert list(merged.times) == sorted(
            list(run0.times) + list(run1.times)
        )

    def test_lemma_2_2_state_preservation(self):
        run0, run1 = self.make_pair()
        merged = merge_runs(run0, run1)
        final0, final1 = run0.final_states(), run1.final_states()
        final = merged.final_states()
        for p, snap in final0.items():
            assert final[p] == snap
        for p, snap in final1.items():
            assert final[p] == snap

    def test_merge_rejects_unmergeable(self):
        run0, _ = self.make_pair()
        with pytest.raises(ValueError):
            merge_runs(run0, run0)

    def test_random_tie_interleavings_all_valid(self):
        run0, run1 = self.make_pair(times0=(0, 1, 1), times1=(1, 1, 2))
        for seed in range(8):
            merged = merge_runs(run0, run1, rng=random.Random(seed))
            assert validate_run(merged) == []
            final = merged.final_states()
            for p, snap in run0.final_states().items():
                assert final[p] == snap

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.sampled_from([0, 1]), min_size=1, max_size=8),
        st.lists(st.sampled_from([2, 3]), min_size=1, max_size=8),
        st.integers(0, 3),
    )
    def test_lemma_2_2_property(self, pids0, pids1, seed):
        """Merging any two disjoint-participant lambda-step runs yields a
        valid run preserving participant states (Lemma 2.2)."""
        # strictly increasing times trivially satisfy properties (4)-(5)
        times0 = _strictly_increasing(len(pids0), random.Random(seed))
        times1 = _strictly_increasing(len(pids1), random.Random(seed + 1))
        run0 = build_run(n=4, steps=[lam(p) for p in pids0], times=times0)
        run1 = PureRun(
            automaton=run0.automaton,
            n=4,
            proposals={p: p * 10 for p in range(4)},
            pattern=run0.pattern,
            history=run0.history,
            schedule=Schedule([lam(p) for p in pids1]),
            times=times1,
        )
        assert validate_run(run0) == []
        assert validate_run(run1) == []
        merged = merge_runs(run0, run1, rng=random.Random(seed))
        assert validate_run(merged) == []
        final = merged.final_states()
        for p, snap in run0.final_states().items():
            assert final[p] == snap
        for p, snap in run1.final_states().items():
            assert final[p] == snap


def _strictly_increasing(length, rng):
    times = []
    t = rng.randint(0, 3)
    for _ in range(length):
        times.append(t)
        t += rng.randint(1, 3)
    return times


class TestMultiWayMerging:
    """The partition argument generalizes: pairwise merging of k disjoint
    runs stays a valid, state-preserving run."""

    def make_run(self, pids, times, proposals):
        return PureRun(
            automaton=Chatter(),
            n=6,
            proposals=proposals,
            pattern=FailurePattern.no_failures(6),
            history=null_history,
            schedule=Schedule([lam(p) for p in pids]),
            times=times,
        )

    def test_three_way_merge(self):
        proposals = {p: p * 100 for p in range(6)}
        runs = [
            self.make_run([0, 1, 0], [0, 3, 6], proposals),
            self.make_run([2, 3], [1, 4], proposals),
            self.make_run([4, 5, 5], [2, 5, 8], proposals),
        ]
        merged = merge_runs(merge_runs(runs[0], runs[1]), runs[2])
        assert validate_run(merged) == []
        final = merged.final_states()
        for run in runs:
            for p, snap in run.final_states().items():
                assert final[p] == snap

    def test_merge_order_does_not_affect_participant_states(self):
        proposals = {p: p for p in range(6)}
        r0 = self.make_run([0, 1], [0, 2], proposals)
        r1 = self.make_run([2], [1], proposals)
        r2 = self.make_run([3, 4], [3, 5], proposals)
        ab_c = merge_runs(merge_runs(r0, r1), r2)
        a_bc = merge_runs(r0, merge_runs(r1, r2))
        assert ab_c.final_states() == a_bc.final_states()
        assert list(ab_c.times) == list(a_bc.times)
