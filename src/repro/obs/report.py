"""``repro obs report`` — one self-contained HTML run observatory.

The report combines, in a single offline file with zero runtime
dependencies beyond the standard library:

* **Traces** — for each supplied JSONL trace (``repro-trace/1`` or
  ``/2``): the ASCII flamegraph and timeline from
  :mod:`repro.obs.analyze` / :mod:`repro.obs.inspect`, the top span-path
  aggregates as an HTML table, and the trace's counter totals;
* **Perf trajectory** — the ledger files given (``repro-ledger/1``, as
  written by ``benchmarks/ledger/run.py --json-out``), charted as one
  inline SVG sparkline per (workload, end-to-end metric) over the
  medians, in the order the files were given.

Everything is inlined — styles, SVG, data — so the artifact can be
archived from CI and opened anywhere with no network.  All text passes
through :func:`html.escape`; the generator never executes anything from
the inputs.
"""

from __future__ import annotations

import html
import json
import os
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.analyze import aggregate_paths, render_flame, trace_counters
from repro.obs.inspect import render_timeline

_STYLE = """
body { font-family: ui-monospace, Menlo, Consolas, monospace;
       margin: 2rem auto; max-width: 72rem; color: #1a212b;
       background: #fbfbf8; }
h1 { font-size: 1.4rem; border-bottom: 2px solid #1a212b; }
h2 { font-size: 1.1rem; margin-top: 2.2rem; }
h3 { font-size: 0.95rem; margin-bottom: 0.3rem; }
pre { background: #10151c; color: #d8e0ea; padding: 0.8rem;
      overflow-x: auto; font-size: 0.72rem; line-height: 1.25; }
table { border-collapse: collapse; font-size: 0.78rem; margin: 0.5rem 0; }
th, td { border: 1px solid #c5c9ce; padding: 0.15rem 0.55rem;
         text-align: left; }
th { background: #e8eaec; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.spark { vertical-align: middle; }
.muted { color: #6b7482; font-size: 0.75rem; }
.section { margin-bottom: 1.5rem; }
"""


# ----------------------------------------------------------------------
# SVG sparklines
# ----------------------------------------------------------------------


def svg_sparkline(
    values: Sequence[float],
    width: int = 220,
    height: int = 36,
    labels: Optional[Sequence[str]] = None,
) -> str:
    """An inline SVG sparkline over ``values`` (last point emphasized)."""
    points = [float(v) for v in values]
    if not points:
        return '<span class="muted">(no data)</span>'
    if len(points) == 1:
        points = points * 2  # a single sample still draws a flat line
    lo, hi = min(points), max(points)
    span = (hi - lo) or 1.0
    pad = 3
    xs = [
        pad + i * (width - 2 * pad) / (len(points) - 1)
        for i in range(len(points))
    ]
    ys = [height - pad - (v - lo) / span * (height - 2 * pad) for v in points]
    polyline = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(xs, ys))
    title = ""
    if labels:
        title = "<title>{}</title>".format(
            html.escape(
                " | ".join(
                    f"{label}: {value:g}"
                    for label, value in zip(labels, values)
                )
            )
        )
    return (
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img">{title}'
        f'<polyline points="{polyline}" fill="none" stroke="#2563eb" '
        f'stroke-width="1.5"/>'
        f'<circle cx="{xs[-1]:.1f}" cy="{ys[-1]:.1f}" r="2.5" '
        f'fill="#dc2626"/></svg>'
    )


# ----------------------------------------------------------------------
# Trace sections
# ----------------------------------------------------------------------


def _paths_table(records: Sequence[Mapping[str, Any]], top: int = 14) -> str:
    aggs = aggregate_paths(records)
    ranked = sorted(
        aggs.items(), key=lambda kv: (-kv[1]["self_ticks"], kv[0])
    )[:top]
    if not ranked:
        return '<p class="muted">no spans</p>'
    rows = "".join(
        "<tr><td>{}</td><td class=num>{}</td><td class=num>{}</td>"
        "<td class=num>{}</td><td class=num>{:.3f}</td></tr>".format(
            html.escape(path),
            agg["count"],
            agg["total_ticks"],
            agg["self_ticks"],
            agg["wall_ms"],
        )
        for path, agg in ranked
    )
    return (
        "<table><tr><th>span path</th><th>count</th><th>ticks</th>"
        "<th>self</th><th>wall ms</th></tr>" + rows + "</table>"
    )


def _counters_table(counters: Mapping[str, int], top: int = 18) -> str:
    ranked = sorted(counters.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
    if not ranked:
        return ""
    rows = "".join(
        f"<tr><td>{html.escape(name)}</td><td class=num>{value}</td></tr>"
        for name, value in ranked
    )
    return (
        "<h3>counters</h3><table><tr><th>counter</th><th>total</th></tr>"
        + rows
        + "</table>"
    )


def _trace_section(path: str, records: List[Dict[str, Any]]) -> str:
    head = records[0] if records and records[0].get("type") == "meta" else {}
    label = html.escape(str(head.get("label", os.path.basename(path))))
    schema = html.escape(str(head.get("schema", "?")))
    spans = [r for r in records if r.get("type") == "span"]
    events = [r for r in records if r.get("type") == "event"]
    parts = [
        '<div class="section">',
        f"<h2>trace: {label}</h2>",
        f'<p class="muted">{html.escape(os.path.basename(path))} '
        f"&middot; {schema} &middot; {len(spans)} spans, "
        f"{len(events)} events</p>",
        "<h3>flamegraph (logical ticks)</h3>",
        f"<pre>{html.escape(render_flame(records, width=48))}</pre>",
        "<h3>timeline</h3>",
        "<pre>{}</pre>".format(
            html.escape(render_timeline(records, width=56, max_rows=28))
        ),
        "<h3>top span paths (by self ticks)</h3>",
        _paths_table(records),
        _counters_table(trace_counters(records)),
        "</div>",
    ]
    return "\n".join(parts)


# ----------------------------------------------------------------------
# Perf trajectory
# ----------------------------------------------------------------------

#: The one benchmark schema (``benchmarks/ledger/run.py --json-out``).
LEDGER_SCHEMA = "repro-ledger/1"


def _trajectory_section(ledgers: Sequence[str]) -> str:
    """One sparkline per (workload, end-to-end metric), points in file order."""
    parts = ['<div class="section">', "<h2>perf trajectory</h2>"]
    if not ledgers:
        parts.append(
            '<p class="muted">no ledger files given (pass --ledger FILE, '
            "written by benchmarks/ledger/run.py --json-out)</p>"
        )
    labels: List[str] = []
    series: Dict[Tuple[str, str, str], List[Tuple[str, float]]] = {}
    for path in ledgers:
        label = os.path.basename(path)
        doc = _load_json(path)
        reason = None
        if doc is None:
            reason = "unreadable"
        elif doc.get("schema") != LEDGER_SCHEMA:
            reason = f"schema {doc.get('schema')!r} is not {LEDGER_SCHEMA}"
        if reason:
            parts.append(
                '<p class="muted">{}: skipped: {}</p>'.format(
                    html.escape(label), html.escape(reason)
                )
            )
            continue
        labels.append(label)
        for workload, row in doc["workloads"].items():
            for metric, summary in row["end_to_end"].items():
                key = (workload, metric, summary["unit"])
                series.setdefault(key, []).append((label, summary["median"]))
    if series:
        rows = "".join(
            "<tr><td>{}</td><td>{}</td><td>{}</td>"
            "<td class=num>{:g} {}</td></tr>".format(
                html.escape(workload),
                html.escape(metric),
                svg_sparkline(
                    [v for _, v in points], labels=[l for l, _ in points]
                ),
                points[-1][1],
                html.escape(unit),
            )
            for (workload, metric, unit), points in series.items()
        )
        parts.append(
            '<p class="muted">ledger files: {}</p>'.format(
                " &rarr; ".join(html.escape(label) for label in labels)
            )
        )
        parts.append(
            "<table><tr><th>workload</th><th>metric (median)</th>"
            "<th>across files</th><th>latest</th></tr>" + rows + "</table>"
        )
    parts.append("</div>")
    return "\n".join(parts)


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------


def build_report(
    traces: Optional[Sequence[str]] = None,
    ledgers: Optional[Sequence[str]] = None,
    title: str = "repro run observatory",
) -> str:
    """Assemble the full HTML document; file paths may each be absent."""
    from repro.obs.export import read_trace, validate_trace

    body: List[str] = []
    for path in traces or []:
        try:
            records = read_trace(path)
        except (OSError, ValueError) as exc:
            body.append(
                '<div class="section"><h2>trace: {}</h2>'
                '<p class="muted">skipped: unreadable ({})</p></div>'.format(
                    html.escape(os.path.basename(path)), html.escape(str(exc))
                )
            )
            continue
        errors = validate_trace(records)
        if errors:
            body.append(
                '<div class="section"><h2>trace: {}</h2>'
                '<p class="muted">skipped: {} schema error(s); first: {}'
                "</p></div>".format(
                    html.escape(os.path.basename(path)),
                    len(errors),
                    html.escape(errors[0]),
                )
            )
            continue
        body.append(_trace_section(path, records))
    body.append(_trajectory_section(ledgers or []))
    return (
        "<!DOCTYPE html>\n<html><head><meta charset='utf-8'>"
        f"<title>{html.escape(title)}</title>"
        f"<style>{_STYLE}</style></head><body>"
        f"<h1>{html.escape(title)}</h1>"
        + "\n".join(body)
        + "</body></html>\n"
    )


def write_report(
    path: str,
    traces: Optional[Sequence[str]] = None,
    ledgers: Optional[Sequence[str]] = None,
    title: str = "repro run observatory",
) -> str:
    """Build and write the report; returns ``path``."""
    document = build_report(traces=traces, ledgers=ledgers, title=title)
    with open(path, "w") as fh:
        fh.write(document)
    return path


def _load_json(path: str) -> Optional[Dict[str, Any]]:
    try:
        with open(path) as fh:
            document = json.load(fh)
    except (OSError, ValueError):
        return None
    return document if isinstance(document, dict) else None
