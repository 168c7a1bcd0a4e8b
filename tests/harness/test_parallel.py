"""The parallel sweep driver: ordering, inline fast path, table parity."""

import pytest

from repro import obs
from repro.harness.parallel import SweepTask, default_jobs, run_sweep


def _square(x):
    return x * x


def _describe(label, seed):
    return f"{label}:{seed}"


def _metered(x):
    """Worker body that records metrics (top-level so it pickles)."""
    reg = obs.metrics()
    reg.inc("work.calls")
    reg.inc("work.total", x)
    reg.gauge("work.peak", x)
    return x * x


class TestSweepTask:
    def test_runs_fn_with_kwargs(self):
        task = SweepTask(_describe, {"label": "a", "seed": 3})
        assert task.run() == "a:3"


class TestRunSweep:
    def test_results_in_task_order_inline(self):
        tasks = [SweepTask(_square, {"x": x}) for x in range(10)]
        assert run_sweep(tasks, jobs=1) == [x * x for x in range(10)]

    def test_results_in_task_order_parallel(self):
        tasks = [SweepTask(_square, {"x": x}) for x in range(20)]
        assert run_sweep(tasks, jobs=2) == [x * x for x in range(20)]

    def test_parallel_equals_inline(self):
        tasks = [
            SweepTask(_describe, {"label": chr(97 + i % 4), "seed": i})
            for i in range(12)
        ]
        assert run_sweep(tasks, jobs=1) == run_sweep(tasks, jobs=3)

    def test_empty_and_singleton(self):
        assert run_sweep([], jobs=4) == []
        assert run_sweep([SweepTask(_square, {"x": 7})], jobs=4) == [49]

    def test_jobs_none_uses_default(self):
        tasks = [SweepTask(_square, {"x": x}) for x in range(4)]
        assert run_sweep(tasks, jobs=None) == [0, 1, 4, 9]

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1


class TestMetricsParity:
    """Worker metrics merged across processes equal the inline registry."""

    def _sweep_snapshot(self, jobs):
        tasks = [SweepTask(_metered, {"x": x}) for x in range(8)]
        obs.disable()
        obs.reset_metrics()
        try:
            with obs.tracing("parity"):
                results = run_sweep(tasks, jobs=jobs)
                snapshot = obs.metrics().snapshot()
        finally:
            obs.disable()
            obs.reset_metrics()
        return results, snapshot

    def test_jobs1_vs_jobs2_identical_metrics(self):
        results1, snap1 = self._sweep_snapshot(jobs=1)
        results2, snap2 = self._sweep_snapshot(jobs=2)
        assert results1 == results2 == [x * x for x in range(8)]
        assert snap1["counters"] == snap2["counters"]
        assert snap1["gauges"] == snap2["gauges"]
        assert snap1["counters"]["work.calls"] == 8
        assert snap1["counters"]["work.total"] == sum(range(8))
        assert snap1["counters"]["sweep.tasks"] == 8
        assert snap1["gauges"]["work.peak"] == 7

    def test_disabled_sweep_records_nothing(self):
        obs.disable()
        obs.reset_metrics()
        tasks = [SweepTask(_metered, {"x": x}) for x in range(4)]
        assert run_sweep(tasks, jobs=2) == [0, 1, 4, 9]
        assert obs.metrics().counters() == {}


class TestExperimentParity:
    """Sweeps must render identical tables for every job count."""

    @pytest.mark.parametrize("name", ["exp1", "exp6"])
    def test_quick_table_identical_serial_vs_parallel(self, name):
        from repro.harness import experiments

        runner, kwargs = {
            "exp1": (
                experiments.exp1_nuc_sufficiency,
                dict(ns=(2, 3), seeds=(0,)),
            ),
            "exp6": (experiments.exp6_merging, dict(seeds=range(3), n=5)),
        }[name]
        serial = runner(**kwargs, jobs=1).render()
        parallel = runner(**kwargs, jobs=2).render()
        assert serial == parallel
