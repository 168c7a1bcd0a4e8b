"""Versioned JSONL trace export: schema ``repro-trace/2``.

One record per line.  A file is:

1. exactly one ``meta`` header line (first line):
   ``{"type":"meta","schema":"repro-trace/2","label":...,"generated_at":...,
   "meta":{...}}``;
2. any number of ``span`` / ``event`` lines (see
   :mod:`repro.obs.tracer` for field meaning) in record order — spans
   appear at *close* time, so a parent span follows its children;
3. optionally one trailing ``metrics`` line holding a
   :meth:`~repro.obs.registry.MetricsRegistry.snapshot`.

Older traces may also carry a ``paths`` line of precomputed span-path
aggregates and a ``timers`` section in their metrics; both are accepted
and ignored, since every reader recomputes paths from the spans.

Everything except ``generated_at`` and ``wall_ms`` is a deterministic
function of the traced run.  The full schema is documented
in ``docs/observability.md``; ``benchmarks/check_trace_schema.py`` is the
standalone validator CI runs against emitted traces.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from typing import Any, Dict, List, Optional

from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer

SCHEMA = "repro-trace/2"

_RECORD_TYPES = ("meta", "span", "event", "metrics")


def _jsonable(value: Any) -> Any:
    """Fallback serializer: sets sort (determinism), everything else reprs."""
    if isinstance(value, (set, frozenset)):
        return sorted(value, key=repr)
    return repr(value)


def trace_records(
    tracer: Tracer,
    registry: Optional[MetricsRegistry] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> List[Dict[str, Any]]:
    """The full record list of a trace file (header + body + metrics)."""
    header: Dict[str, Any] = {
        "type": "meta",
        "schema": SCHEMA,
        "label": tracer.label,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "meta": {**tracer.meta, **(meta or {})},
    }
    records: List[Dict[str, Any]] = [header]
    records.extend(tracer.records)
    if registry is not None:
        records.append({"type": "metrics", **registry.snapshot()})
    return records


def write_trace(
    path: str,
    tracer: Tracer,
    registry: Optional[MetricsRegistry] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Write the trace as JSONL; returns the number of records written."""
    records = trace_records(tracer, registry=registry, meta=meta)
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True, default=_jsonable))
            fh.write("\n")
    return len(records)


def read_trace(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL trace file into its record list."""
    records: List[Dict[str, Any]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def validate_trace(records: List[Dict[str, Any]]) -> List[str]:
    """Schema-check parsed records; returns human-readable errors ([] = ok).

    Checks the header comes first and names :data:`SCHEMA`, known record
    types, required fields with the right types, unique sids, parent/span
    references that resolve, ``tick_out >= tick_in``, and at most one
    ``metrics`` record.  Legacy ``paths`` records are skipped unread.
    """
    errors: List[str] = []
    if not records:
        return ["empty trace: missing meta header"]
    head = records[0]
    if head.get("type") != "meta":
        errors.append(f"first record must be meta, got {head.get('type')!r}")
    elif head.get("schema") != SCHEMA:
        errors.append(
            f"unsupported schema {head.get('schema')!r} (expected {SCHEMA!r})"
        )
    span_sids = {
        r.get("sid") for r in records if r.get("type") == "span"
    }
    seen_sids: set = set()
    metrics_lines = 0
    for i, record in enumerate(records[1:], start=2):
        kind = record.get("type")
        where = f"line {i}"
        if kind == "paths":  # written by older exporters; never read
            continue
        if kind not in _RECORD_TYPES:
            errors.append(f"{where}: unknown record type {kind!r}")
            continue
        if kind == "meta":
            errors.append(f"{where}: duplicate meta header")
        elif kind == "metrics":
            metrics_lines += 1
            for section in ("counters", "gauges"):
                if not isinstance(record.get(section), dict):
                    errors.append(f"{where}: metrics.{section} must be a dict")
        elif kind == "span":
            errors.extend(_check_span(record, where, span_sids, seen_sids))
        elif kind == "event":
            errors.extend(_check_event(record, where, span_sids, seen_sids))
    if metrics_lines > 1:
        errors.append(f"{metrics_lines} metrics records (at most 1 allowed)")
    return errors


def _check_span(record, where, span_sids, seen_sids) -> List[str]:
    errors = []
    sid = record.get("sid")
    if not isinstance(sid, int) or sid < 1:
        errors.append(f"{where}: span sid must be a positive int")
    elif sid in seen_sids:
        errors.append(f"{where}: duplicate sid {sid}")
    else:
        seen_sids.add(sid)
    parent = record.get("parent")
    if parent is not None and parent not in span_sids:
        errors.append(f"{where}: parent {parent!r} is not a span sid")
    if not isinstance(record.get("name"), str) or not record.get("name"):
        errors.append(f"{where}: span name must be a non-empty string")
    tick_in, tick_out = record.get("tick_in"), record.get("tick_out")
    if not isinstance(tick_in, int) or not isinstance(tick_out, int):
        errors.append(f"{where}: tick_in/tick_out must be ints")
    elif tick_out < tick_in:
        errors.append(f"{where}: tick_out {tick_out} < tick_in {tick_in}")
    if not isinstance(record.get("attrs"), dict):
        errors.append(f"{where}: span attrs must be a dict")
    if not isinstance(record.get("wall_ms"), (int, float)):
        errors.append(f"{where}: span wall_ms must be a number")
    return errors


def _check_event(record, where, span_sids, seen_sids) -> List[str]:
    errors = []
    sid = record.get("sid")
    if not isinstance(sid, int) or sid < 1:
        errors.append(f"{where}: event sid must be a positive int")
    elif sid in seen_sids:
        errors.append(f"{where}: duplicate sid {sid}")
    else:
        seen_sids.add(sid)
    span = record.get("span")
    if span is not None and span not in span_sids:
        errors.append(f"{where}: event span {span!r} is not a span sid")
    if not isinstance(record.get("name"), str) or not record.get("name"):
        errors.append(f"{where}: event name must be a non-empty string")
    if not isinstance(record.get("tick"), int):
        errors.append(f"{where}: event tick must be an int")
    if not isinstance(record.get("attrs"), dict):
        errors.append(f"{where}: event attrs must be a dict")
    return errors


def environment_stamp(repo_root: Optional[str] = None) -> Dict[str, Any]:
    """Attribution metadata for trace files: git SHA (``None`` outside a
    work tree), python version, platform and CPU counts."""
    try:
        sha: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_root or os.getcwd(),
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except Exception:
        sha = None
    try:
        affinity: Optional[int] = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
    }
