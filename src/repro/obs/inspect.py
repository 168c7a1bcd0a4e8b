"""Render a trace as an ASCII timeline + per-span aggregates.

Backs the ``repro trace`` CLI subcommand.  Everything here is
presentation-only; the input is the parsed record list of a
``repro-trace/2`` JSONL file (:func:`repro.obs.export.read_trace`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.tables import Table


def aggregate_spans(records: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per-span-name aggregates: count, total/self ticks, wall time.

    *Self* ticks are a span's total ticks minus the total ticks of its
    direct children — the time the phase spent in its own work rather than
    in instrumented sub-phases.  (Clamped at zero: sibling children may
    overlap on coarse logical clocks.)
    """
    spans = [r for r in records if r.get("type") == "span"]
    child_ticks: Dict[int, int] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            child_ticks[parent] = child_ticks.get(parent, 0) + (
                span["tick_out"] - span["tick_in"]
            )
    out: Dict[str, Dict[str, Any]] = {}
    for span in spans:
        total = span["tick_out"] - span["tick_in"]
        self_ticks = max(0, total - child_ticks.get(span["sid"], 0))
        agg = out.setdefault(
            span["name"],
            {"count": 0, "total_ticks": 0, "self_ticks": 0, "wall_ms": 0.0},
        )
        agg["count"] += 1
        agg["total_ticks"] += total
        agg["self_ticks"] += self_ticks
        agg["wall_ms"] += span.get("wall_ms", 0.0)
    for agg in out.values():
        agg["wall_ms"] = round(agg["wall_ms"], 3)
    return out


def _depth_of(span: Dict[str, Any], by_sid: Dict[int, Dict[str, Any]]) -> int:
    depth = 0
    parent = span.get("parent")
    while parent is not None and depth < 32:
        depth += 1
        parent = by_sid.get(parent, {}).get("parent")
    return depth


def render_timeline(
    records: Sequence[Dict[str, Any]],
    width: int = 64,
    max_rows: int = 40,
) -> str:
    """An ASCII timeline of spans over the logical tick axis.

    One row per span in opening (sid) order, indented by nesting depth,
    with its interval drawn on a tick axis scaled to ``width`` columns.
    Zero-length spans render as a single ``|`` marker.
    """
    spans = sorted(
        (r for r in records if r.get("type") == "span"),
        key=lambda r: r["sid"],
    )
    if not spans:
        return "(no spans)"
    by_sid = {s["sid"]: s for s in spans}
    lo = min(s["tick_in"] for s in spans)
    hi = max(s["tick_out"] for s in spans)
    extent = max(1, hi - lo)
    name_width = min(
        36, max(len(s["name"]) + 2 * _depth_of(s, by_sid) for s in spans)
    )
    lines = [f"ticks {lo}..{hi}  ({len(spans)} spans)"]
    shown = spans[:max_rows]
    for span in shown:
        depth = _depth_of(span, by_sid)
        label = ("  " * depth + span["name"])[:name_width].ljust(name_width)
        a = round((span["tick_in"] - lo) / extent * (width - 1))
        b = round((span["tick_out"] - lo) / extent * (width - 1))
        bar = [" "] * width
        if b > a:
            bar[a] = "["
            for i in range(a + 1, b):
                bar[i] = "="
            bar[b] = "]"
        else:
            bar[a] = "|"
        lines.append(
            f"{label} {''.join(bar)} {span['tick_in']}..{span['tick_out']}"
        )
    if len(spans) > max_rows:
        lines.append(f"... ({len(spans) - max_rows} more spans)")
    return "\n".join(lines)


def render_trace(
    records: Sequence[Dict[str, Any]],
    top: int = 12,
    width: int = 64,
    max_rows: int = 40,
    timeline: bool = True,
) -> str:
    """The full ``repro trace`` report for one parsed trace."""
    head = records[0] if records and records[0].get("type") == "meta" else {}
    spans = [r for r in records if r.get("type") == "span"]
    events = [r for r in records if r.get("type") == "event"]
    metrics: Optional[Dict[str, Any]] = next(
        (r for r in records if r.get("type") == "metrics"), None
    )
    sections: List[str] = []

    label = head.get("label", "?")
    sections.append(
        f"trace     : {label}  (schema {head.get('schema', '?')})\n"
        f"records   : {len(spans)} spans, {len(events)} events"
        + (", metrics snapshot" if metrics is not None else "")
    )
    if head.get("meta"):
        meta = head["meta"]
        pairs = ", ".join(f"{k}={meta[k]!r}" for k in sorted(meta))
        sections.append(f"meta      : {pairs}")

    if timeline:
        sections.append("\n" + render_timeline(records, width=width, max_rows=max_rows))

    aggregates = aggregate_spans(records)
    if aggregates:
        table = Table(
            f"span aggregates (top {min(top, len(aggregates))} by self ticks)",
            ["span", "count", "total_ticks", "self_ticks", "wall_ms"],
        )
        ranked = sorted(
            aggregates.items(),
            key=lambda kv: (-kv[1]["self_ticks"], -kv[1]["total_ticks"], kv[0]),
        )
        for name, agg in ranked[:top]:
            table.add_row(
                name, agg["count"], agg["total_ticks"], agg["self_ticks"],
                agg["wall_ms"],
            )
        sections.append("\n" + table.render())

    if events:
        by_name: Dict[str, int] = {}
        for event in events:
            by_name[event["name"]] = by_name.get(event["name"], 0) + 1
        table = Table("events", ["event", "count"])
        for name in sorted(by_name, key=lambda k: (-by_name[k], k)):
            table.add_row(name, by_name[name])
        sections.append("\n" + table.render())

    if metrics is not None:
        counters = metrics.get("counters", {})
        if counters:
            table = Table("counter totals", ["counter", "value"])
            for name in sorted(counters):
                table.add_row(name, counters[name])
            sections.append("\n" + table.render())
        gauges = metrics.get("gauges", {})
        if gauges:
            table = Table("gauges (high-water)", ["gauge", "value"])
            for name in sorted(gauges):
                table.add_row(name, gauges[name])
            sections.append("\n" + table.render())
        timers = metrics.get("timers", {})
        if timers:
            table = Table("timers (wall-clock metadata)", ["timer", "count", "total_s"])
            for name in sorted(timers):
                count, total = timers[name]
                table.add_row(name, count, round(total, 4))
            sections.append("\n" + table.render())

    return "\n".join(sections)
