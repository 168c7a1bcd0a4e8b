"""A_DAG live (Fig. 1): the lemmas of Section 4.1 on real runs."""

import random

import pytest

from repro.core.dag import SampleDAG
from repro.core.sampling import DagBuilder
from repro.detectors import Omega
from repro.kernel.failures import FailurePattern
from repro.kernel.messages import CoalescingDelivery
from repro.kernel.system import System


def run_dag_builders(pattern, seed=0, steps=400):
    history = Omega().sample_history(pattern, random.Random(seed))
    processes = {p: DagBuilder() for p in range(pattern.n)}
    system = System(
        processes,
        pattern,
        history,
        seed=seed,
        delivery=CoalescingDelivery(),
    )
    system.run(max_steps=steps)
    return system, processes


class TestDagBuilderRun:
    def test_every_correct_process_samples_forever(self):
        pattern = FailurePattern(3, {2: 30})
        system, procs = run_dag_builders(pattern, steps=300)
        for p in pattern.correct:
            assert procs[p].core.k > 20

    def test_faulty_stop_sampling_at_crash(self):
        pattern = FailurePattern(3, {2: 30})
        system, procs = run_dag_builders(pattern, steps=300)
        crashed_steps = [s for s in system.steps if s.pid == 2]
        assert procs[2].core.k == len(crashed_steps)
        assert all(s.time < 30 for s in crashed_steps)

    def test_samples_carry_history_values(self):
        """Observation 4.3: node (q,d,k) means H(q, tau) = d."""
        pattern = FailurePattern(2, {})
        system, procs = run_dag_builders(pattern, steps=150)
        history = system.history
        for s in procs[0].core.dag.nodes():
            assert history.value(s.pid, s.t) == s.d

    def test_dags_converge_across_processes(self):
        """Lemma 4.7's engine: every sample eventually reaches every correct
        process's DAG (here: by the end of a long fair run, most do)."""
        pattern = FailurePattern(3, {})
        system, procs = run_dag_builders(pattern, steps=600)
        sizes = [len(procs[p].core.dag) for p in range(3)]
        total = sum(procs[p].core.k for p in range(3))
        assert max(sizes) <= total
        # everyone holds at least everything older than a small lag
        assert min(sizes) >= total - 40

    def test_limit_dag_has_long_paths_with_all_correct(self):
        """Lemma 4.8, finitized: the fresh part of a correct process's DAG
        contains a chain visiting every correct process many times."""
        from repro.core.dag import greedy_chain

        pattern = FailurePattern(3, {1: 25})
        system, procs = run_dag_builders(pattern, steps=800)
        dag = procs[0].core.dag
        chain = greedy_chain(dag.nodes())
        visits = {p: 0 for p in pattern.correct}
        for s in chain:
            if s.pid in visits:
                visits[s.pid] += 1
        assert all(count >= 10 for count in visits.values()), visits

    def test_post_crash_descendants_are_all_correct(self):
        """Lemma 4.6: descendants of a late-enough sample of a correct
        process are samples of correct processes only."""
        pattern = FailurePattern(4, {3: 40})
        system, procs = run_dag_builders(pattern, steps=900)
        dag = procs[0].core.dag
        late = [s for s in dag.samples_of(0) if s.t > 40]
        assert late, "process 0 must sample after the crash"
        v_star = late[0]
        for s in dag.descendants(v_star, include_root=False):
            assert s.pid in pattern.correct

    def test_first_component_identifies_sampler(self):
        pattern = FailurePattern(2, {})
        _, procs = run_dag_builders(pattern, steps=100)
        for p in range(2):
            own = [s for s in procs[p].core.dag.nodes() if s.pid == p]
            ks = sorted(s.k for s in own)
            assert ks == list(range(1, len(ks) + 1))
