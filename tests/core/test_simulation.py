"""Simulated schedules (Section 4.2): Lemmas 4.9 and 4.10 executably.

The key check: a schedule simulated from a DAG path, paired with the path's
tau-times, is a *legal run* of the subject algorithm using the ambient
detector — verified with the independent run validator.  Schedules come
from the shipped simulation: :meth:`SimulationTrie.simulate` and
:meth:`IncrementalExtractionEngine.find_deciding_schedule`.
"""

import random

import pytest

from repro.consensus.quorum_mr import QuorumMR
from repro.core.sampling import DagBuilder
from repro.core.simtrie import IncrementalExtractionEngine, SimulationTrie
from repro.detectors import Omega, PairedDetector, Sigma
from repro.kernel.failures import FailurePattern
from repro.kernel.messages import CoalescingDelivery
from repro.kernel.runs import PureRun, validate_run
from repro.kernel.system import System


@pytest.fixture(scope="module")
def dag_run():
    """A live A_DAG run over (Omega, Sigma) with one crash."""
    pattern = FailurePattern(3, {2: 35})
    detector = PairedDetector(Omega(), Sigma("pivot"))
    history = detector.sample_history(pattern, random.Random(8))
    processes = {p: DagBuilder() for p in range(3)}
    system = System(
        processes, pattern, history, seed=8, delivery=CoalescingDelivery()
    )
    system.run(max_steps=700)
    return pattern, history, processes, system


def proposals(n, v):
    return {p: v for p in range(n)}


def simulate(path, v, target=None, n=3):
    """The Lemma 4.10 schedule of quorum-MR along ``path`` from I_v."""
    return SimulationTrie(QuorumMR(), n).simulate(proposals(n, v), path, target)


def find_deciding_schedule(v, fresh, target, n=3, **options):
    engine = IncrementalExtractionEngine(QuorumMR(), n)
    return engine.find_deciding_schedule(
        proposals(n, v), fresh, target, **options
    )


class TestCanonicalSchedule:
    def test_schedule_is_compatible_with_path(self, dag_run):
        pattern, history, procs, _ = dag_run
        dag = procs[0].core.dag
        path = dag.samples_of(0)[:30]
        sim = simulate(path, 0)
        assert len(sim.schedule) == len(sim.path)
        for step, sample in zip(sim.schedule, sim.path):
            assert step.pid == sample.pid
            assert step.detector_value == sample.d

    def test_lemma_4_9_simulated_schedule_is_a_run(self, dag_run):
        """(F, H, I, S, T) with T = tau-times is a run of A using D."""
        from repro.core.dag import greedy_chain

        pattern, history, procs, _ = dag_run
        dag = procs[0].core.dag
        chain = greedy_chain(dag.nodes())[:120]
        sim = simulate(chain, 1)
        run = PureRun(
            automaton=QuorumMR(),
            n=3,
            proposals=proposals(3, 1),
            pattern=pattern,
            history=history.value,
            schedule=sim.schedule,
            times=[s.t for s in sim.path],
        )
        assert validate_run(run) == []

    def test_lemma_4_10_canonical_schedule_decides(self, dag_run):
        """Oldest-message delivery along a long fresh chain makes the target
        decide (the admissible-run construction of Lemma 4.10)."""
        from repro.core.dag import greedy_chain

        pattern, history, procs, _ = dag_run
        dag = procs[0].core.dag
        chain = greedy_chain(dag.nodes())
        sim = simulate(chain, 0, target=0)
        assert sim.target_decided
        assert sim.decisions.get(0) == 0

    def test_early_stop_on_target_decision(self, dag_run):
        from repro.core.dag import greedy_chain

        _, _, procs, _ = dag_run
        chain = greedy_chain(procs[0].core.dag.nodes())
        sim = simulate(chain, 0, target=0)
        full = simulate(chain, 0)
        assert sim.target_decided
        assert len(sim.schedule) == sim.target_decided_at < len(full.schedule)
        assert full.schedule.steps[: len(sim.schedule)] == sim.schedule.steps
        assert full.decisions[0] == sim.decisions[0]

    def test_validity_of_decided_value(self, dag_run):
        """In Sch(G, I_v) every decision is v (validity of the subject)."""
        from repro.core.dag import greedy_chain

        _, _, procs, _ = dag_run
        chain = greedy_chain(procs[1].core.dag.nodes())
        for v in (0, 1):
            sim = simulate(chain, v, target=1)
            for decided in sim.decisions.values():
                assert decided == v


class TestFindDecidingSchedule:
    def test_finds_small_participant_schedules(self, dag_run):
        _, _, procs, _ = dag_run
        dag = procs[0].core.dag
        barrier = dag.get((0, 1))
        fresh = dag.descendants(barrier)
        sim = find_deciding_schedule(0, fresh, target=0, barrier=barrier)
        assert sim is not None and sim.target_decided
        assert 0 in sim.participants

    def test_none_when_target_absent(self, dag_run):
        _, _, procs, _ = dag_run
        dag = procs[0].core.dag
        only_p1 = [s for s in dag.nodes() if s.pid == 1]
        assert find_deciding_schedule(0, only_p1, target=0) is None

    def test_none_on_too_few_samples(self, dag_run):
        _, _, procs, _ = dag_run
        dag = procs[0].core.dag
        tiny = dag.samples_of(0)[:2]
        assert find_deciding_schedule(0, tiny, target=0) is None

    def test_non_minimizing_mode(self, dag_run):
        _, _, procs, _ = dag_run
        dag = procs[0].core.dag
        fresh = dag.descendants(dag.get((0, 1)))
        sim = find_deciding_schedule(
            1, fresh, target=0, minimize_participants=False
        )
        assert sim is not None and sim.target_decided
