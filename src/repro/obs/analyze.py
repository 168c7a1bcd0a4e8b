"""Trace analytics: the one reader of a ``repro-trace/2`` trace.

Every view of a trace is computed here, from one unit of analysis: the
**span path** — a span's name prefixed by every ancestor's name,
joined with ``/``::

    exp.exp3/runner.extraction/kernel.run

Two traces of the same seeded run have identical paths with identical
tick totals (ticks are logical and deterministic); comparing a pair of
traces per path therefore attributes *exactly* where the work moved.
Wall-clock milliseconds ride along as metadata and are only flagged
when they move beyond a noise tolerance.

Entry points
------------

* :func:`render_trace` — the ``repro trace FILE`` report: header, ASCII
  timeline (:func:`render_timeline`), per-path aggregates, event counts,
  counter and gauge totals;
* :func:`aggregate_paths` — per-path count / tick / wall aggregates;
* :func:`diff_traces` / :func:`render_diff` — noise-aware two-trace
  comparison (logical ticks exact, ``wall_ms`` tolerant), including
  counter deltas from the traces' metrics records;
* :func:`render_flame` — an ASCII flamegraph over the path tree;
* :func:`top_regressions` — the top-N suspect paths of a diff, the
  default view of ``repro trace diff``: it names the stage a regression
  lives in.

Everything operates on parsed record lists
(:func:`repro.obs.export.read_trace`); paths are recomputed from the
span records, and any other record type (such as the ``paths`` line of
older traces) is ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.tables import Table

#: Default absolute wall-clock tolerance (milliseconds) under which a
#: wall delta is treated as noise.
WALL_TOL_MS = 5.0

#: Default relative wall-clock tolerance: deltas within this fraction of
#: the larger side are noise.  Machine timers jitter far more than 1%,
#: and CI boxes more than dev boxes; 25% keeps the signal honest.
WALL_REL_TOL = 0.25


# ----------------------------------------------------------------------
# Span paths
# ----------------------------------------------------------------------


def span_paths(records: Sequence[Mapping[str, Any]]) -> List[Tuple[str, Mapping[str, Any]]]:
    """``(path, span_record)`` for every span, in record order.

    A span whose parent is missing from the record list (e.g. the parent
    was still open when the trace was sliced) roots its own path.
    """
    spans = [r for r in records if r.get("type") == "span"]
    by_sid = {s["sid"]: s for s in spans}
    cache: Dict[int, str] = {}

    def path_of(span: Mapping[str, Any]) -> str:
        sid = span["sid"]
        known = cache.get(sid)
        if known is not None:
            return known
        parent = span.get("parent")
        parent_span = by_sid.get(parent) if parent is not None else None
        path = (
            f"{path_of(parent_span)}/{span['name']}"
            if parent_span is not None
            else span["name"]
        )
        cache[sid] = path
        return path

    return [(path_of(s), s) for s in spans]


def aggregate_paths(records: Sequence[Mapping[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per-path aggregates: count, total/self ticks, wall time.

    *Self* ticks are a span's total ticks minus the totals of its direct
    children — the time the phase spent in its own work rather than in
    instrumented sub-phases (clamped at zero: siblings may overlap on
    coarse logical clocks).  The key is the full ancestor path, so the
    same span name in two sweep phases aggregates separately.
    """
    pairs = span_paths(records)
    child_ticks: Dict[int, int] = {}
    for _, span in pairs:
        parent = span.get("parent")
        if parent is not None:
            child_ticks[parent] = child_ticks.get(parent, 0) + (
                span["tick_out"] - span["tick_in"]
            )
    out: Dict[str, Dict[str, Any]] = {}
    for path, span in pairs:
        total = span["tick_out"] - span["tick_in"]
        agg = out.setdefault(
            path,
            {"count": 0, "total_ticks": 0, "self_ticks": 0, "wall_ms": 0.0},
        )
        agg["count"] += 1
        agg["total_ticks"] += total
        agg["self_ticks"] += max(0, total - child_ticks.get(span["sid"], 0))
        agg["wall_ms"] += span.get("wall_ms", 0.0)
    for agg in out.values():
        agg["wall_ms"] = round(agg["wall_ms"], 3)
    return out


def trace_counters(records: Sequence[Mapping[str, Any]]) -> Dict[str, int]:
    """The counter totals of a trace's metrics record ({} if absent)."""
    for record in records:
        if record.get("type") == "metrics":
            counters = record.get("counters", {})
            return dict(counters) if isinstance(counters, dict) else {}
    return {}


# ----------------------------------------------------------------------
# One trace: timeline and report
# ----------------------------------------------------------------------


def render_timeline(
    records: Sequence[Mapping[str, Any]],
    width: int = 64,
    max_rows: int = 40,
) -> str:
    """An ASCII timeline of spans over the logical tick axis.

    One row per span in opening (sid) order, indented by its path depth,
    with its interval drawn on a tick axis scaled to ``width`` columns.
    Zero-length spans render as a single ``|`` marker.
    """
    pairs = sorted(span_paths(records), key=lambda pair: pair[1]["sid"])
    if not pairs:
        return "(no spans)"
    lo = min(s["tick_in"] for _, s in pairs)
    hi = max(s["tick_out"] for _, s in pairs)
    extent = max(1, hi - lo)
    rows = [("  " * path.count("/") + s["name"], s) for path, s in pairs]
    name_width = min(36, max(len(label) for label, _ in rows))
    lines = [f"ticks {lo}..{hi}  ({len(rows)} spans)"]
    for label, span in rows[:max_rows]:
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
            f"{label[:name_width].ljust(name_width)} {''.join(bar)} "
            f"{span['tick_in']}..{span['tick_out']}"
        )
    if len(rows) > max_rows:
        lines.append(f"... ({len(rows) - max_rows} more spans)")
    return "\n".join(lines)


def render_trace(
    records: Sequence[Mapping[str, Any]],
    top: int = 12,
    width: int = 64,
    max_rows: int = 40,
    timeline: bool = True,
) -> str:
    """The ``repro trace FILE`` report for one parsed trace."""
    head = records[0] if records and records[0].get("type") == "meta" else {}
    spans = [r for r in records if r.get("type") == "span"]
    events = [r for r in records if r.get("type") == "event"]
    metrics: Optional[Mapping[str, Any]] = next(
        (r for r in records if r.get("type") == "metrics"), None
    )
    sections: List[str] = [
        f"trace     : {head.get('label', '?')}  "
        f"(schema {head.get('schema', '?')})\n"
        f"records   : {len(spans)} spans, {len(events)} events"
        + (", metrics snapshot" if metrics is not None else "")
    ]
    if head.get("meta"):
        meta = head["meta"]
        pairs = ", ".join(f"{k}={meta[k]!r}" for k in sorted(meta))
        sections.append(f"meta      : {pairs}")

    if timeline:
        sections.append(
            "\n" + render_timeline(records, width=width, max_rows=max_rows)
        )

    aggregates = aggregate_paths(records)
    if aggregates:
        table = Table(
            f"span aggregates per path "
            f"(top {min(top, len(aggregates))} by self ticks)",
            ["path", "count", "total_ticks", "self_ticks", "wall_ms"],
        )
        ranked = sorted(
            aggregates.items(),
            key=lambda kv: (-kv[1]["self_ticks"], -kv[1]["total_ticks"], kv[0]),
        )
        for path, agg in ranked[:top]:
            table.add_row(
                path, agg["count"], agg["total_ticks"], agg["self_ticks"],
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
        for key, title, column in (
            ("counters", "counter totals", "counter"),
            ("gauges", "gauges (high-water)", "gauge"),
        ):
            values = metrics.get(key, {})
            if values:
                table = Table(title, [column, "value"])
                for name in sorted(values):
                    table.add_row(name, values[name])
                sections.append("\n" + table.render())

    return "\n".join(sections)


# ----------------------------------------------------------------------
# Diff
# ----------------------------------------------------------------------


@dataclass
class PathDelta:
    """One span path compared across two traces."""

    path: str
    count_a: int
    count_b: int
    ticks_a: int
    ticks_b: int
    self_a: int
    self_b: int
    wall_a: float
    wall_b: float

    @property
    def tick_delta(self) -> int:
        return self.ticks_b - self.ticks_a

    @property
    def self_delta(self) -> int:
        return self.self_b - self.self_a

    @property
    def wall_delta(self) -> float:
        return round(self.wall_b - self.wall_a, 3)

    def wall_significant(
        self, tol_ms: float = WALL_TOL_MS, rel_tol: float = WALL_REL_TOL
    ) -> bool:
        delta = abs(self.wall_b - self.wall_a)
        return delta > max(tol_ms, rel_tol * max(self.wall_a, self.wall_b))

    @property
    def tick_significant(self) -> bool:
        """Logical ticks are exact: any difference is real."""
        return (
            self.tick_delta != 0
            or self.self_delta != 0
            or self.count_a != self.count_b
        )


@dataclass
class TraceDiff:
    """Everything :func:`diff_traces` learned about a pair of traces."""

    label_a: str
    label_b: str
    paths: List[PathDelta] = field(default_factory=list)
    counter_deltas: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    wall_tol_ms: float = WALL_TOL_MS
    wall_rel_tol: float = WALL_REL_TOL

    @property
    def tick_exact(self) -> bool:
        """True when no path shows any logical-tick or count difference."""
        return not any(d.tick_significant for d in self.paths)

    def significant(self) -> List[PathDelta]:
        """Paths with a real (tick) or above-noise (wall) difference."""
        return [
            d
            for d in self.paths
            if d.tick_significant
            or d.wall_significant(self.wall_tol_ms, self.wall_rel_tol)
        ]


def diff_traces(
    a_records: Sequence[Mapping[str, Any]],
    b_records: Sequence[Mapping[str, Any]],
    wall_tol_ms: float = WALL_TOL_MS,
    wall_rel_tol: float = WALL_REL_TOL,
) -> TraceDiff:
    """Compare two parsed traces per span path and per counter.

    Tick totals and span counts compare exactly (they are deterministic
    functions of the traced run); ``wall_ms`` deltas are recorded but
    only deemed significant beyond ``max(wall_tol_ms, wall_rel_tol *
    larger_side)``.
    """

    def _label(records: Sequence[Mapping[str, Any]]) -> str:
        head = records[0] if records and records[0].get("type") == "meta" else {}
        return str(head.get("label", "?"))

    aggs_a = aggregate_paths(a_records)
    aggs_b = aggregate_paths(b_records)
    empty = {"count": 0, "total_ticks": 0, "self_ticks": 0, "wall_ms": 0.0}
    deltas: List[PathDelta] = []
    for path in sorted(set(aggs_a) | set(aggs_b)):
        a = aggs_a.get(path, empty)
        b = aggs_b.get(path, empty)
        deltas.append(
            PathDelta(
                path=path,
                count_a=a["count"],
                count_b=b["count"],
                ticks_a=a["total_ticks"],
                ticks_b=b["total_ticks"],
                self_a=a["self_ticks"],
                self_b=b["self_ticks"],
                wall_a=a["wall_ms"],
                wall_b=b["wall_ms"],
            )
        )
    counters_a = trace_counters(a_records)
    counters_b = trace_counters(b_records)
    counter_deltas = {
        name: (counters_a.get(name, 0), counters_b.get(name, 0))
        for name in sorted(set(counters_a) | set(counters_b))
        if counters_a.get(name, 0) != counters_b.get(name, 0)
    }
    return TraceDiff(
        label_a=_label(a_records),
        label_b=_label(b_records),
        paths=deltas,
        counter_deltas=counter_deltas,
        wall_tol_ms=wall_tol_ms,
        wall_rel_tol=wall_rel_tol,
    )


def top_regressions(diff: TraceDiff, top: int = 8) -> List[PathDelta]:
    """The diff's most suspect paths, worst first.

    Ranked by absolute tick delta first (exact signal), then absolute
    above-noise wall delta; paths with neither are excluded.
    """
    ranked = sorted(
        diff.significant(),
        key=lambda d: (
            -abs(d.tick_delta),
            -abs(d.self_delta),
            -(
                abs(d.wall_delta)
                if d.wall_significant(diff.wall_tol_ms, diff.wall_rel_tol)
                else 0.0
            ),
            d.path,
        ),
    )
    return ranked[:top]


def render_diff(diff: TraceDiff, top: int = 16, show_all: bool = False) -> str:
    """The ``repro trace diff`` report for one :class:`TraceDiff`."""
    sections: List[str] = [
        f"trace A   : {diff.label_a}",
        f"trace B   : {diff.label_b}",
        f"paths     : {len(diff.paths)} compared, "
        f"{len(diff.significant())} differ "
        f"(wall noise floor: {diff.wall_tol_ms}ms / "
        f"{round(100 * diff.wall_rel_tol)}%)",
    ]
    if diff.tick_exact:
        sections.append(
            "ticks     : EXACT — every span path has identical logical-tick "
            "totals and counts"
        )
    rows = diff.paths if show_all else top_regressions(diff, top)
    if rows:
        table = Table(
            f"span-path deltas (top {len(rows)}; B - A)",
            ["path", "count", "d_ticks", "d_self", "d_wall_ms", "signal"],
        )
        for d in rows:
            count = (
                str(d.count_a)
                if d.count_a == d.count_b
                else f"{d.count_a}->{d.count_b}"
            )
            signal = (
                "ticks"
                if d.tick_significant
                else (
                    "wall"
                    if d.wall_significant(diff.wall_tol_ms, diff.wall_rel_tol)
                    else "-"
                )
            )
            table.add_row(
                d.path,
                count,
                f"{d.tick_delta:+d}",
                f"{d.self_delta:+d}",
                f"{d.wall_delta:+.3f}",
                signal,
            )
        sections.append("\n" + table.render())
    if diff.counter_deltas:
        table = Table("counter deltas (B - A)", ["counter", "a", "b", "delta"])
        for name, (a, b) in sorted(
            diff.counter_deltas.items(), key=lambda kv: (-abs(kv[1][1] - kv[1][0]), kv[0])
        )[:top]:
            table.add_row(name, a, b, f"{b - a:+d}")
        sections.append("\n" + table.render())
    return "\n".join(sections)


# ----------------------------------------------------------------------
# Flamegraph
# ----------------------------------------------------------------------


@dataclass
class FlameNode:
    """One node of the aggregated path tree."""

    name: str
    path: str
    ticks: int = 0
    wall_ms: float = 0.0
    count: int = 0
    children: Dict[str, "FlameNode"] = field(default_factory=dict)

    def weight(self, by: str) -> float:
        own = self.ticks if by == "ticks" else self.wall_ms
        return max(own, sum(c.weight(by) for c in self.children.values()))


def flame_tree(records: Sequence[Mapping[str, Any]]) -> FlameNode:
    """Aggregate the spans into one rooted path tree.

    The synthetic root spans every top-level path; its weight is the sum
    of its children's.
    """
    root = FlameNode(name="", path="")
    for path, agg in sorted(aggregate_paths(records).items()):
        node = root
        walked: List[str] = []
        for part in path.split("/"):
            walked.append(part)
            node = node.children.setdefault(
                part, FlameNode(name=part, path="/".join(walked))
            )
        node.ticks += agg["total_ticks"]
        node.wall_ms += agg["wall_ms"]
        node.count += agg["count"]
    return root


def render_flame(
    records: Sequence[Mapping[str, Any]],
    width: int = 56,
    by: Optional[str] = None,
    max_rows: int = 64,
) -> str:
    """An ASCII flamegraph: one row per path, bar scaled to its share.

    ``by`` picks the weight axis: ``"ticks"`` (deterministic, default) or
    ``"wall"``; when every span has zero ticks (pure wall-clock phases)
    the axis auto-falls back to wall time.
    """
    root = flame_tree(records)
    if not root.children:
        return "(no spans)"
    if by is None:
        by = "ticks" if root.weight("ticks") > 0 else "wall"
    axis = "wall" if by == "wall" else "ticks"
    total = root.weight(axis) or 1.0
    lines = [
        f"flame ({axis}; bar = share of {total if axis == 'ticks' else round(total, 1)}"
        f"{' ticks' if axis == 'ticks' else 'ms'})"
    ]
    rows = 0

    def emit(node: FlameNode, depth: int) -> None:
        nonlocal rows
        if rows >= max_rows:
            return
        share = node.weight(axis) / total
        bar = "#" * max(1, round(share * width))
        own = node.ticks if axis == "ticks" else round(node.wall_ms, 1)
        lines.append(
            f"{'  ' * depth}{node.name:<{max(1, 34 - 2 * depth)}} "
            f"{bar:<{width}} {own} x{node.count}"
        )
        rows += 1
        ordered = sorted(
            node.children.values(),
            key=lambda c: (-c.weight(axis), c.name),
        )
        for child in ordered:
            emit(child, depth + 1)

    for child in sorted(
        root.children.values(), key=lambda c: (-c.weight(axis), c.name)
    ):
        emit(child, 0)
    if rows >= max_rows:
        lines.append(f"... (flamegraph truncated at {max_rows} rows)")
    return "\n".join(lines)
