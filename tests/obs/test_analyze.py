"""Trace analytics: span paths, aggregation, noise-aware diffs, flames,
and the ``repro trace`` report."""

from repro.obs.analyze import (
    WALL_REL_TOL,
    WALL_TOL_MS,
    PathDelta,
    aggregate_paths,
    diff_traces,
    flame_tree,
    render_diff,
    render_flame,
    render_timeline,
    render_trace,
    span_paths,
    top_regressions,
    trace_counters,
)
from repro.obs.export import trace_records, validate_trace
from repro.obs.tracer import Tracer


def _span(sid, name, tick_in, tick_out, parent=None, wall_ms=0.0):
    return {
        "type": "span",
        "sid": sid,
        "parent": parent,
        "name": name,
        "tick_in": tick_in,
        "tick_out": tick_out,
        "attrs": {},
        "wall_ms": wall_ms,
    }


def _metrics(counters):
    return {"type": "metrics", "counters": counters, "gauges": {}}


def _nested_records():
    """outer(0..20) > mid(2..12) > leaf(4..8); sibling leaf2(12..14)."""
    return [
        {"type": "meta", "schema": "repro-trace/2", "label": "unit", "meta": {}},
        _span(3, "leaf", 4, 8, parent=2, wall_ms=1.0),
        _span(4, "leaf2", 12, 14, parent=2, wall_ms=0.5),
        _span(2, "mid", 2, 12, parent=1, wall_ms=4.0),
        _span(1, "outer", 0, 20, parent=None, wall_ms=10.0),
    ]


class TestSpanPaths:
    def test_paths_join_ancestor_names(self):
        paths = dict(span_paths(_nested_records()))
        # dict keyed by path: leaf2's parent is mid even though its own
        # interval falls outside mid's children-sum
        assert set(paths) == {
            "outer",
            "outer/mid",
            "outer/mid/leaf",
            "outer/mid/leaf2",
        }

    def test_missing_parent_roots_the_path(self):
        records = [_span(7, "orphan", 0, 3, parent=99)]
        assert span_paths(records) == [("orphan", records[0])]

    def test_same_name_under_different_parents_separates(self):
        records = [
            _span(2, "work", 0, 3, parent=1),
            _span(4, "work", 5, 6, parent=3),
            _span(1, "phase_a", 0, 4),
            _span(3, "phase_b", 4, 8),
        ]
        paths = {p for p, _ in span_paths(records)}
        assert paths == {"phase_a", "phase_a/work", "phase_b", "phase_b/work"}


class TestAggregatePaths:
    def test_totals_and_self_ticks(self):
        aggs = aggregate_paths(_nested_records())
        assert aggs["outer"]["total_ticks"] == 20
        assert aggs["outer"]["self_ticks"] == 10  # 20 - mid's 10
        assert aggs["outer/mid"]["total_ticks"] == 10
        assert aggs["outer/mid"]["self_ticks"] == 4  # 10 - (4 + 2)
        assert aggs["outer/mid/leaf"]["self_ticks"] == 4

    def test_self_ticks_clamped_at_zero(self):
        # children's totals exceed the parent's (overlapping siblings)
        records = [
            _span(2, "a", 0, 5, parent=1),
            _span(3, "b", 0, 5, parent=1),
            _span(1, "p", 0, 6),
        ]
        assert aggregate_paths(records)["p"]["self_ticks"] == 0

    def test_repeated_paths_accumulate(self):
        records = [
            _span(1, "work", 0, 3, wall_ms=1.5),
            _span(2, "work", 3, 5, wall_ms=0.25),
        ]
        agg = aggregate_paths(records)["work"]
        assert agg == {
            "count": 2,
            "total_ticks": 5,
            "self_ticks": 5,
            "wall_ms": 1.75,
        }

    def test_counters_read_from_metrics_record(self):
        assert trace_counters([_metrics({"x": 3})]) == {"x": 3}
        assert trace_counters(_nested_records()) == {}


class TestDiff:
    def test_identical_traces_are_tick_exact(self):
        diff = diff_traces(_nested_records(), _nested_records())
        assert diff.tick_exact
        assert diff.significant() == []
        assert diff.counter_deltas == {}

    def test_tick_shift_is_always_significant(self):
        b = _nested_records()
        b[1] = _span(3, "leaf", 4, 9, parent=2, wall_ms=1.0)
        diff = diff_traces(_nested_records(), b)
        assert not diff.tick_exact
        moved = {d.path for d in diff.significant() if d.tick_significant}
        assert "outer/mid/leaf" in moved

    def test_count_shift_is_significant(self):
        b = _nested_records() + [_span(9, "extra", 20, 20)]
        diff = diff_traces(_nested_records(), b)
        assert not diff.tick_exact

    def test_wall_noise_is_tolerated(self):
        b = _nested_records()
        b[4] = _span(1, "outer", 0, 20, parent=None, wall_ms=12.0)  # +2ms
        diff = diff_traces(_nested_records(), b)
        assert diff.tick_exact
        assert diff.significant() == []  # under both tolerances

    def test_wall_shift_beyond_tolerance_flagged(self):
        b = _nested_records()
        b[4] = _span(1, "outer", 0, 20, parent=None, wall_ms=100.0)
        diff = diff_traces(_nested_records(), b)
        assert diff.tick_exact  # wall only — ticks still exact
        flagged = [d for d in diff.significant()]
        assert [d.path for d in flagged] == ["outer"]
        assert flagged[0].wall_significant()
        assert not flagged[0].tick_significant

    def test_tolerances_are_configurable(self):
        b = _nested_records()
        b[4] = _span(1, "outer", 0, 20, parent=None, wall_ms=12.0)
        tight = diff_traces(_nested_records(), b, wall_tol_ms=0.5, wall_rel_tol=0.01)
        assert [d.path for d in tight.significant()] == ["outer"]

    def test_counter_deltas_only_changed(self):
        a = _nested_records() + [_metrics({"same": 5, "moved": 2})]
        b = _nested_records() + [_metrics({"same": 5, "moved": 9, "new": 1})]
        diff = diff_traces(a, b)
        assert diff.counter_deltas == {"moved": (2, 9), "new": (0, 1)}

    def test_labels_from_meta_headers(self):
        diff = diff_traces(_nested_records(), _nested_records())
        assert (diff.label_a, diff.label_b) == ("unit", "unit")


class TestTopRegressions:
    def test_ranked_by_tick_delta_first(self):
        a = [
            _span(1, "small", 0, 2),
            _span(2, "big", 2, 4),
            _span(3, "wallish", 4, 5, wall_ms=1.0),
        ]
        b = [
            _span(1, "small", 0, 3),  # +1 tick
            _span(2, "big", 2, 14),  # +10 ticks
            _span(3, "wallish", 4, 5, wall_ms=400.0),  # wall only
        ]
        ranked = top_regressions(diff_traces(a, b))
        assert [d.path for d in ranked] == ["big", "small", "wallish"]

    def test_top_limits_output(self):
        a = [_span(i, f"s{i}", 0, 1) for i in range(1, 7)]
        b = [_span(i, f"s{i}", 0, 2 + i) for i in range(1, 7)]
        assert len(top_regressions(diff_traces(a, b), top=3)) == 3


class TestRenderDiff:
    def test_exact_banner_on_same_seed(self):
        out = render_diff(diff_traces(_nested_records(), _nested_records()))
        assert "EXACT" in out
        assert "4 compared, 0 tick-differing, 0 wall-only" in out

    def test_wall_only_and_tick_paths_counted_apart(self):
        b = _nested_records()
        b[4] = _span(1, "outer", 0, 20, parent=None, wall_ms=100.0)
        out = render_diff(diff_traces(_nested_records(), b))
        assert "EXACT" in out
        assert "0 tick-differing, 1 wall-only" in out
        b[1] = _span(3, "leaf", 4, 9, parent=2, wall_ms=1.0)
        out = render_diff(diff_traces(_nested_records(), b))
        assert "EXACT" not in out
        assert "tick-differing, 1 wall-only" in out
        assert "0 tick-differing" not in out

    def test_signal_column_distinguishes_ticks_and_wall(self):
        b = _nested_records()
        b[1] = _span(3, "leaf", 4, 9, parent=2, wall_ms=1.0)
        b[4] = _span(1, "outer", 0, 20, parent=None, wall_ms=500.0)
        out = render_diff(diff_traces(_nested_records(), b))
        assert "ticks" in out and "wall" in out

    def test_show_all_includes_unchanged_paths(self):
        out = render_diff(
            diff_traces(_nested_records(), _nested_records()), show_all=True
        )
        assert "outer/mid/leaf2" in out


class TestFlame:
    def test_tree_mirrors_paths(self):
        root = flame_tree(_nested_records())
        assert set(root.children) == {"outer"}
        mid = root.children["outer"].children["mid"]
        assert set(mid.children) == {"leaf", "leaf2"}
        assert mid.ticks == 10

    def test_render_contains_bars_and_counts(self):
        out = render_flame(_nested_records(), width=20)
        assert "flame (ticks" in out
        assert "#" in out
        assert "x1" in out

    def test_zero_tick_trace_falls_back_to_wall(self):
        records = [_span(1, "instant", 3, 3, wall_ms=7.0)]
        out = render_flame(records)
        assert "flame (wall" in out

    def test_no_spans(self):
        assert render_flame([]) == "(no spans)"

    def test_truncation_notice(self):
        records = [_span(i, f"s{i}", 0, 1) for i in range(1, 20)]
        out = render_flame(records, max_rows=5)
        assert "truncated at 5 rows" in out

    def test_real_tracer_records_flow_through(self):
        tracer = Tracer("unit")
        with tracer.span("outer", clock=iter([0, 2, 6, 9]).__next__):
            with tracer.span("inner"):
                pass
        records = trace_records(tracer)
        assert aggregate_paths(records)["outer/inner"]["total_ticks"] == 4
        assert "outer" in render_flame(records)


class TestPathDelta:
    def test_wall_significance_uses_max_of_tolerances(self):
        d = PathDelta(
            path="p", count_a=1, count_b=1, ticks_a=0, ticks_b=0,
            self_a=0, self_b=0, wall_a=100.0, wall_b=110.0,
        )
        # 10ms > 5ms absolute floor but within 25% relative tolerance
        assert not d.wall_significant()
        assert d.wall_significant(tol_ms=1.0, rel_tol=0.01)

    def test_wall_significance_is_strictly_above_the_floor(self):
        def delta(wall_a, wall_b):
            return PathDelta(
                path="p", count_a=1, count_b=1, ticks_a=0, ticks_b=0,
                self_a=0, self_b=0, wall_a=wall_a, wall_b=wall_b,
            )

        # Defaults: 5ms absolute floor, 25% of the larger side.
        assert (WALL_TOL_MS, WALL_REL_TOL) == (5.0, 0.25)
        # Small spans: the absolute floor decides, in either direction.
        assert not delta(1.0, 6.0).wall_significant()
        assert delta(1.0, 6.5).wall_significant()
        assert delta(6.5, 1.0).wall_significant()
        # Large spans: the relative tolerance decides (300 of 1200 is not
        # above 25%; 400 of 1400 is).
        assert not delta(900.0, 1200.0).wall_significant()
        assert delta(1000.0, 1400.0).wall_significant()


def _three_span_records():
    """sweep(0..10) > run(2..8) > run(5..5): one name at two depths, and
    a zero-length innermost span."""
    return [
        {"type": "meta", "schema": "repro-trace/2", "label": "three", "meta": {}},
        _span(3, "run", 5, 5, parent=2),
        _span(2, "run", 2, 8, parent=1, wall_ms=2.0),
        _span(1, "sweep", 0, 10, wall_ms=3.0),
        {"type": "event", "sid": 4, "span": 2, "name": "tick", "tick": 4, "attrs": {}},
        {"type": "metrics", "counters": {"steps": 7}, "gauges": {"depth": 2}},
    ]


class TestRenderTimeline:
    def test_rows_indented_by_path_depth_with_zero_length_marker(self):
        assert render_timeline(_three_span_records(), width=11).splitlines() == [
            "ticks 0..10  (3 spans)",
            "sweep   [=========] 0..10",
            "  run     [=====]   2..8",
            "    run      |      5..5",
        ]

    def test_max_rows_truncates(self):
        lines = render_timeline(_three_span_records(), width=11, max_rows=2)
        assert lines.splitlines()[1:] == [
            "sweep   [=========] 0..10",
            "  run     [=====]   2..8",
            "... (1 more spans)",
        ]

    def test_no_spans(self):
        assert render_timeline(_three_span_records()[:1]) == "(no spans)"


class TestRenderTrace:
    def _rows(self, text, title):
        """The data rows of the table titled ``title`` in ``text``."""
        block = text.split("\n\n" + title, 1)[1].split("\n\n", 1)[0]
        # title line, rule, column header, rule, then the data rows
        return [line.split() for line in block.splitlines()[4:]]

    def test_one_aggregate_row_per_path(self):
        text = render_trace(_three_span_records(), timeline=False)
        assert "span aggregates per path (top 3 by self ticks)" in text
        rows = self._rows(text, "span aggregates per path")
        assert rows == [
            ["sweep/run", "1", "6", "6", "2.00"],
            ["sweep", "1", "10", "4", "3.00"],
            ["sweep/run/run", "1", "0", "0", "0.00"],
        ]

    def test_top_limits_aggregate_rows(self):
        text = render_trace(_three_span_records(), top=1, timeline=False)
        assert len(self._rows(text, "span aggregates per path")) == 1

    def test_header_timeline_events_and_metrics(self):
        text = render_trace(_three_span_records(), width=11)
        assert "trace     : three  (schema repro-trace/2)" in text
        assert "records   : 3 spans, 1 events, metrics snapshot" in text
        assert "    run      |      5..5" in text
        assert self._rows(text, "events") == [["tick", "1"]]
        assert self._rows(text, "counter totals") == [["steps", "7"]]
        assert self._rows(text, "gauges (high-water)") == [["depth", "2"]]

    def test_parent_format_trace_validates_and_renders(self):
        """A trace from the older writer — a precomputed ``paths`` record
        and wall-clock ``timers`` in its metrics — reads as if neither
        were there."""
        current = _three_span_records()
        legacy = [dict(r) for r in current]
        legacy.insert(-1, {"type": "paths", "paths": aggregate_paths(current)})
        legacy[-1]["timers"] = {"export": [1, 0.25]}
        assert validate_trace(legacy) == []
        assert render_trace(legacy) == render_trace(current)
        assert "timer" not in render_trace(legacy)
