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
from contextlib import nullcontext
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
    store: Optional[Any] = None,
) -> List[Any]:
    """Execute ``tasks`` with ``jobs`` workers; results in task order.

    ``jobs=None`` uses :func:`default_jobs`; ``jobs<=1`` (or a single task)
    runs inline.  ``chunksize`` tunes how many tasks each worker claims at a
    time (default: enough chunks for ~4 rounds per worker, which amortizes
    task pickling without starving stragglers).

    ``store`` (a :class:`repro.store.ResultStore`) makes the sweep
    incremental: each task is addressed by ``(config_digest,
    code_signature)``; rows already in the store are served from disk and
    only the remainder executes — through exactly the same ``jobs`` path,
    so a warm sweep is byte-identical to a cold one.  All store lookups and
    writes happen in *this* process (workers never touch the store), which
    keeps the ``store.hit`` / ``store.miss`` / ``store.invalidated``
    counters identical for every ``jobs`` value and makes concurrent
    ``--jobs N`` sweeps merge-safe.
    """
    task_list = list(tasks)
    if jobs is None:
        jobs = default_jobs()
    if store is not None and task_list:
        # Before the sweep.tasks inc: rows served from the store are not
        # dispatched, and the recursive miss dispatch counts its own.
        return _run_sweep_stored(task_list, jobs, chunksize, store)
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


def _run_sweep_stored(
    task_list: List[SweepTask],
    jobs: Optional[int],
    chunksize: Optional[int],
    store: Any,
) -> List[Any]:
    """The store-backed path of :func:`run_sweep`.

    Lookups, accounting and writes run in the parent; misses (plus
    invalidated and unstorable rows) are re-dispatched through the plain
    ``run_sweep`` path with the same ``jobs`` setting.

    Under observability the stages that make a warm sweep warm become
    visible: a ``store.lookup`` span with one ``store.row`` event per row
    (tick = row index, attrs carry status / fn / digest prefix), a
    ``store.execute`` span around the re-dispatch of pending rows, and
    ``store.put`` events for write-backs.  Freshly executed rows are
    additionally metered per task so their counter deltas (and, for
    inline execution, their span-path aggregates) travel into the stored
    record as row telemetry — the raw material of ``repro store diff
    --counters``.
    """
    tracer = _obs.tracer() if _obs._ENABLED else None
    keys: List[Optional[Any]] = []
    results: List[Any] = [None] * len(task_list)
    pending: List[int] = []
    hits = misses = invalidated = skipped = 0
    with (
        tracer.span("store.lookup", rows=len(task_list))
        if tracer is not None
        else nullcontext()
    ):
        for i, task in enumerate(task_list):
            key = store.key_for(task.fn, task.kwargs)
            keys.append(key)
            if key is None:
                status = "unstorable"
                skipped += 1
                store.stats.skipped += 1
                pending.append(i)
            else:
                status, value = store.load(key)
                if status == "hit":
                    hits += 1
                    results[i] = value
                else:
                    if status == "invalidated":
                        invalidated += 1
                    else:
                        misses += 1
                    pending.append(i)
            if tracer is not None:
                tracer.event(
                    "store.row",
                    tick=i,
                    status=status,
                    fn=getattr(task.fn, "__name__", str(task.fn)),
                    digest=key.digest[:12] if key is not None else None,
                )
    if _obs._ENABLED:
        registry = _obs.metrics()
        registry.inc("store.hit", hits)
        registry.inc("store.miss", misses)
        registry.inc("store.invalidated", invalidated)
        registry.inc("store.skipped", skipped)
    if pending:
        fresh, telemetries = _execute_pending(
            [task_list[i] for i in pending], jobs, chunksize, tracer
        )
        writes = 0
        for j, (i, value) in enumerate(zip(pending, fresh)):
            results[i] = value
            telemetry = telemetries[j] if telemetries is not None else None
            if keys[i] is not None and store.store(
                keys[i], value, telemetry=telemetry
            ):
                writes += 1
                if tracer is not None:
                    tracer.event(
                        "store.put", tick=i, digest=keys[i].digest[:12]
                    )
        if _obs._ENABLED:
            _obs.metrics().inc("store.write", writes)
    return results


def _execute_pending(
    tasks: List[SweepTask],
    jobs: Optional[int],
    chunksize: Optional[int],
    tracer: Optional[Any],
) -> Tuple[List[Any], Optional[List[Optional[Dict[str, Any]]]]]:
    """Execute the store's pending rows; per-row telemetry when traced.

    Untraced, this is exactly the recursive ``run_sweep`` call the store
    path has always made.  Traced, it replays ``run_sweep``'s enabled
    branch inline — same ``sweep.tasks`` accounting, same inline-vs-pool
    split, same delta merge order — while keeping each task's registry
    delta (jobs=1 adds the task's span-path aggregates) so the caller can
    store them per row.
    """
    if tracer is None:
        return run_sweep(tasks, jobs=jobs, chunksize=chunksize), None
    if _obs._ENABLED:  # always true here; keeps the guard contract literal
        registry = _obs.metrics()
        registry.inc("sweep.tasks", len(tasks))
    telemetries: List[Optional[Dict[str, Any]]] = []
    with tracer.span("store.execute", rows=len(tasks)):
        if jobs is None:
            jobs = default_jobs()
        if jobs <= 1 or len(tasks) <= 1:
            results = []
            for task in tasks:
                before = registry.snapshot()
                record_mark = len(tracer.records)
                results.append(task.run())
                telemetries.append(
                    _row_telemetry(
                        registry.delta_since(before),
                        tracer.records[record_mark:],
                    )
                )
            return results, telemetries
        jobs = min(jobs, len(tasks))
        if chunksize is None:
            chunksize = max(1, len(tasks) // (jobs * 4))
        with _pool_context().Pool(processes=jobs) as pool:
            pairs = pool.map(_execute_metered, tasks, chunksize=chunksize)
        for _, delta in pairs:
            registry.merge(delta)
            # Worker span records stay in the workers (parent traces keep
            # parent-side spans only), so pooled rows carry counters alone.
            telemetries.append(_row_telemetry(delta, []))
        return [result for result, _ in pairs], telemetries


def _row_telemetry(
    delta: Dict[str, Any], records: List[Dict[str, Any]]
) -> Optional[Dict[str, Any]]:
    """The telemetry dict stored with one sweep row, or ``None`` if empty.

    Counters come from the task's registry delta; span-path aggregates
    from the records the task emitted (inline execution only).  Both are
    deterministic — ``wall_ms`` is dropped from the path aggregates so
    racing writers still produce byte-identical records.
    """
    telemetry: Dict[str, Any] = {}
    counters = delta.get("counters") or {}
    if counters:
        telemetry["counters"] = dict(sorted(counters.items()))
    if records:
        from repro.obs.analyze import aggregate_paths

        paths = {
            path: {k: v for k, v in agg.items() if k != "wall_ms"}
            for path, agg in aggregate_paths(records).items()
        }
        if paths:
            telemetry["paths"] = paths
    return telemetry or None
