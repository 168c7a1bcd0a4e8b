"""Differential test: the shipped ``SampleDAG`` equals the dict reference.

:class:`repro.core.dag.SampleDAG` is a frontier over per-process sample
lists shared between versions, appended in place at a list's tip and
copied on write elsewhere; ``tests/core/reference_dag.py`` keeps the
dict-of-nodes DAG it replaced.  Both are driven through the same random
operations — new samples, unions in both directions, and forks (two
successors of one version that each add a sample of the same process, so
one of them cannot append in place) — and every query must agree.
"""

import tracemalloc

from hypothesis import given, settings, strategies as st

from repro.core.dag import DagCore, SampleDAG
from tests.core.reference_dag import ReferenceDAG


def assert_same(dag, ref):
    """Every query of ``dag`` answers as the reference ``ref`` does."""
    n = ref.n
    assert set(dag.nodes()) == set(ref.nodes())
    assert len(dag) == len(ref)
    assert dag.frontier == ref.frontier
    for q in range(n):
        assert dag.max_k(q) == ref.max_k(q)
        assert dag.latest_sample(q) == ref.latest_sample(q)
        assert dag.samples_of(q) == ref.samples_of(q)
        for k in range(ref.max_k(q) + 2):
            assert dag.get((q, k)) == ref.get((q, k))
            assert ((q, k) in dag) == ((q, k) in ref)
    assert (n, 1) not in dag and dag.get((n, 1)) is None
    ordered = ref.topological()
    assert dag.topological() == ordered
    for v in ordered:
        for include in (True, False):
            assert dag.descendants(v, include) == ref.descendants(v, include)
            assert dag.ancestors(v, include) == ref.ancestors(v, include)


def consistent(a, b):
    """Whether two reference versions agree on every key they share.

    Sample keys are unique within one run; two forks of one version each
    made their own sample under the same key, and A_DAG never unites them.
    """
    shared = a._nodes.keys() & b._nodes.keys()
    return all(a._nodes[key] == b._nodes[key] for key in shared)


OPS = st.lists(
    st.tuples(
        st.sampled_from(["sample", "fork", "union"]),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
    ),
    max_size=50,
)


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3), OPS)
    def test_random_operations(self, n, empties, ops):
        # Several independent empty versions, so that unions meet lists
        # that were never shared.
        pool = [
            (SampleDAG.empty(n), ReferenceDAG.empty(n)) for _ in range(empties)
        ]
        clock = 0
        for op, i, j in ops:
            dag, ref = pool[i % len(pool)]
            made = []
            if op == "union":
                dag2, ref2 = pool[j % len(pool)]
                if not consistent(ref, ref2):
                    continue
                made.append((dag.union(dag2), ref.union(ref2)))
                made.append((dag2.union(dag), ref2.union(ref)))
            else:
                pid = j % n
                for _ in range(2 if op == "fork" else 1):
                    clock += 1
                    new, s = dag.add_local_sample(pid, f"d{clock}", clock)
                    new_ref, s_ref = ref.add_local_sample(pid, f"d{clock}", clock)
                    assert s == s_ref
                    made.append((new, new_ref))
            for new, new_ref in made:
                assert_same(new, new_ref)
            pool.extend(made)
        # No operation changed what an older version holds.
        for dag, ref in pool:
            assert set(dag.nodes()) == set(ref.nodes())
            assert dag.frontier == ref.frontier

    def test_fork_copies_the_list_it_cannot_append_to(self):
        base, _ = SampleDAG.empty(2).add_local_sample(0, "a")
        left, s_left = base.add_local_sample(0, "left")
        right, s_right = base.add_local_sample(0, "right")
        assert s_left.key == s_right.key == (0, 2)
        assert left.get((0, 2)) is s_left and right.get((0, 2)) is s_right
        assert base.samples_of(0) == left.samples_of(0)[:1]


def _growth_per_version(versions: int) -> float:
    """Traced bytes per kept version of p0's DAG, with p1's DAG merged in
    every third step."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        a, b = DagCore(0, 2), DagCore(1, 2)
        kept = []
        for i in range(versions):
            b.sample(i, t=i)
            if i % 3 == 0:
                a.absorb(b.dag)
            a.sample(i, t=i)
            kept.append(a.dag)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return grown / versions


class TestMemory:
    def test_kept_versions_cost_o_n_each(self):
        # 2 000 live versions of a DAG that grows to ~4 000 samples.  A
        # dict per version (the reference) traces about 79 KiB per version
        # here (CPython 3.11); the shared lists trace about 0.5 KiB.
        assert _growth_per_version(2000) < 4096

    def test_union_with_a_dominated_dag_is_free(self):
        core, other = DagCore(0, 2), DagCore(1, 2)
        other.sample("o")
        core.absorb(other.dag)
        core.sample(0)
        older = core.dag
        for i in range(1, 5):
            core.sample(i)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            merged = core.dag.union(older)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert merged is core.dag
        assert grown == 0
