"""Deterministic parallel sweep driver.

Every theorem-level experiment is a loop over independent, seeded runs; this
module fans such loops out over worker processes without changing a single
result.  The contract:

* a :class:`SweepTask` is a **pure** top-level callable plus keyword
  arguments, both picklable; every source of randomness the task uses must
  be derived from its own arguments (a seed), never from global state;
* :func:`run_sweep` returns results **in task order**, regardless of which
  worker finished first, so serial (``jobs=1``) and parallel (``jobs>1``)
  sweeps are bit-identical;
* ``jobs=1`` executes inline in the calling process — no pool, no pickling —
  which keeps single-job sweeps exactly as cheap as the old serial loops.

Workers are forked where the platform allows it (the parent's imported
modules and ``sys.path`` carry over); platforms without ``fork`` fall back
to the default start method, which requires ``repro`` to be importable in
fresh interpreters.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro import obs as _obs


@dataclass(frozen=True)
class SweepTask:
    """One unit of sweep work: ``fn(**kwargs)``.

    ``fn`` must be a module-level callable (bound methods, lambdas and
    closures do not pickle); ``kwargs`` must be picklable and must carry the
    task's seed so the task is a pure function of its arguments.
    """

    fn: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def run(self) -> Any:
        return self.fn(**self.kwargs)


def _execute(task: SweepTask) -> Any:
    return task.run()


def _execute_metered(task: SweepTask) -> Tuple[Any, Dict[str, Any]]:
    """Run a task and return its result plus the metrics it recorded.

    Runs in a worker that inherited an *enabled* obs state by fork; the
    per-task registry delta travels back with the result so the parent can
    merge it.  Counter sums and gauge maxes commute, so merging the deltas
    in task order reproduces exactly the registry an inline (``jobs=1``)
    sweep would have built.
    """
    before = _obs.metrics().snapshot()  # repro: noqa RPR301 -- only dispatched from the _ENABLED branch of run_sweep
    result = task.run()
    return result, _obs.metrics().delta_since(before)  # repro: noqa RPR301 -- same: worker inherited enabled obs by fork


def default_jobs() -> int:
    """Worker count honouring CPU affinity where the platform exposes it."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def _pool_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        return multiprocessing.get_context()


def run_sweep(
    tasks: Iterable[SweepTask],
    jobs: Optional[int] = 1,
    chunksize: Optional[int] = None,
) -> List[Any]:
    """Execute ``tasks`` with ``jobs`` workers; results in task order.

    ``jobs=None`` uses :func:`default_jobs`; ``jobs<=1`` (or a single task)
    runs inline.  ``chunksize`` tunes how many tasks each worker claims at a
    time (default: enough chunks for ~4 rounds per worker, which amortizes
    task pickling without starving stragglers).
    """
    task_list = list(tasks)
    if jobs is None:
        jobs = default_jobs()
    if _obs._ENABLED:
        _obs.metrics().inc("sweep.tasks", len(task_list))
    if jobs <= 1 or len(task_list) <= 1:
        return [task.run() for task in task_list]
    jobs = min(jobs, len(task_list))
    if chunksize is None:
        chunksize = max(1, len(task_list) // (jobs * 4))
    if _obs._ENABLED:
        # Workers inherit the enabled obs state by fork and report their
        # registry deltas alongside each result; merging them in task order
        # makes jobs=1 and jobs=N sweeps report identical metrics.  (Worker
        # span records stay in the workers: traces keep parent-side spans
        # only, while counters/gauges account for all sweep work.)
        with _pool_context().Pool(processes=jobs) as pool:
            pairs = pool.map(_execute_metered, task_list, chunksize=chunksize)
        registry = _obs.metrics()
        for _, delta in pairs:
            registry.merge(delta)
        return [result for result, _ in pairs]
    with _pool_context().Pool(processes=jobs) as pool:
        return pool.map(_execute, task_list, chunksize=chunksize)
