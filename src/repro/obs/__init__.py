"""``repro.obs`` — unified tracing & telemetry.

One subsystem serves every observability need of the reproduction:

* :class:`~repro.obs.tracer.Tracer` — nested spans + typed events, clocked
  by logical ticks (simulation step count, search tick), wall-clock only as
  span metadata;
* :class:`~repro.obs.registry.MetricsRegistry` — named counters and
  gauges (logical values only), with cross-process merge for parallel
  sweeps;
* :mod:`repro.obs.export` — versioned JSONL trace files
  (``repro-trace/2``, see ``docs/observability.md``);
* :mod:`repro.obs.analyze` — the one trace reader behind ``repro trace``:
  timeline, per-path aggregates, diff and flamegraph, all computed from
  span paths.

Instrumentation contract (zero overhead when off)
-------------------------------------------------

Tracing is **off** by default.  Instrumented hot paths guard every
observability action on the module flag::

    from repro import obs
    ...
    if obs._ENABLED:
        obs.metrics().inc("kernel.runs")

so a disabled run pays one module-attribute read per *instrumentation
site visit* (never per kernel step — the step loop itself is untouched)
and executes bit-identically to an uninstrumented build; the oracle tests
in ``tests/obs/test_equivalence.py`` pin this.  :func:`tracer` returns a
shared :class:`~repro.obs.tracer.NullTracer` while disabled, so unguarded
call sites degrade to cheap no-ops instead of breaking.

Enable with :func:`enable`/:func:`disable` or the :func:`tracing` context
manager::

    with obs.tracing(label="exp3") as tr:
        run_extraction(...)
    write_trace("trace.jsonl", tr, registry=obs.metrics())
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from repro.obs.registry import MetricsRegistry, merge_snapshots
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "MetricsRegistry",
    "NullTracer",
    "Span",
    "Tracer",
    "disable",
    "enable",
    "enabled",
    "merge_snapshots",
    "metrics",
    "reset_metrics",
    "tracer",
    "tracing",
]

#: Fast guard read by instrumented hot paths.  Treat as read-only outside
#: this module; flip it only through :func:`enable` / :func:`disable`.
_ENABLED = False

_TRACER: Tracer = NULL_TRACER  # type: ignore[assignment]
_METRICS = MetricsRegistry()


def enabled() -> bool:
    """Whether tracing/telemetry collection is currently on."""
    return _ENABLED


def tracer() -> Tracer:
    """The active tracer (a shared no-op tracer while disabled)."""
    return _TRACER


def metrics() -> MetricsRegistry:
    """The process-global metrics registry.

    Always real (never a null object): deterministic counters are cheap and
    their tests want them addressable even while tracing is off.  Hot paths
    still guard writes on ``obs._ENABLED``.
    """
    return _METRICS


def reset_metrics() -> None:
    """Clear the process-global registry (start of a fresh measurement)."""
    _METRICS.clear()


def enable(
    label: str = "trace",
    tracer_obj: Optional[Tracer] = None,
    meta: Optional[Dict[str, Any]] = None,
    fresh_metrics: bool = True,
) -> Tracer:
    """Turn instrumentation on; returns the (new) active tracer.

    ``fresh_metrics`` clears the global registry so the collected metrics
    describe exactly the traced activity.
    """
    global _ENABLED, _TRACER
    _TRACER = tracer_obj if tracer_obj is not None else Tracer(label, meta=meta)
    if fresh_metrics:
        _METRICS.clear()
    _ENABLED = True
    return _TRACER


def disable() -> Tracer:
    """Turn instrumentation off; returns the tracer that was active."""
    global _ENABLED, _TRACER
    was = _TRACER
    _TRACER = NULL_TRACER  # type: ignore[assignment]
    _ENABLED = False
    return was


@contextmanager
def tracing(
    label: str = "trace",
    meta: Optional[Dict[str, Any]] = None,
    fresh_metrics: bool = True,
) -> Iterator[Tracer]:
    """Enable tracing for a block; always disables on exit."""
    tr = enable(label, meta=meta, fresh_metrics=fresh_metrics)
    try:
        yield tr
    finally:
        disable()
