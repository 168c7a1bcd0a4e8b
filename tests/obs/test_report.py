"""The HTML run observatory: sparklines, history loading, assembly."""

import json

from repro.obs.export import write_trace
from repro.obs.report import build_report, svg_sparkline, write_report
from repro.obs.tracer import Tracer


def _trace_file(tmp_path, label="unit", name="t.jsonl"):
    tracer = Tracer(label)
    with tracer.span("outer", clock=iter([0, 3, 7, 9]).__next__):
        with tracer.span("inner"):
            pass
    path = str(tmp_path / name)
    write_trace(path, tracer)
    return path


def _ledger_file(tmp_path, name, medians, schema="repro-ledger/1"):
    """A ledger-shaped document: {workload: {metric: (median, unit)}}."""
    doc = {
        "schema": schema,
        "workloads": {
            workload: {
                "end_to_end": {
                    metric: {"unit": unit, "median": median}
                    for metric, (median, unit) in metrics.items()
                }
            }
            for workload, metrics in medians.items()
        },
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestSparkline:
    def test_empty_series(self):
        assert "no data" in svg_sparkline([])

    def test_single_point_still_draws(self):
        svg = svg_sparkline([5.0])
        assert svg.startswith("<svg")
        assert "polyline" in svg

    def test_labels_become_a_tooltip(self):
        svg = svg_sparkline([1, 2], labels=["a", "b"])
        assert "<title>a: 1 | b: 2</title>" in svg

    def test_flat_series_does_not_divide_by_zero(self):
        assert "<svg" in svg_sparkline([3, 3, 3])


class TestBuildReport:
    def test_trace_section_and_trajectory(self, tmp_path):
        trace = _trace_file(tmp_path)
        ledger = _ledger_file(
            tmp_path, "a.json", {"burst_b1": {"wall_s": (2.5, "s")}}
        )
        html_doc = build_report(
            traces=[trace], ledgers=[ledger], title="obs unit"
        )
        assert html_doc.startswith("<!DOCTYPE html>")
        assert "obs unit" in html_doc
        assert "outer/inner" in html_doc
        assert "flamegraph" in html_doc
        assert "burst_b1" in html_doc and "wall_s" in html_doc
        assert "<svg" in html_doc

    def test_missing_inputs_never_fail(self, tmp_path):
        html_doc = build_report(
            traces=[str(tmp_path / "absent.jsonl")],
            ledgers=[str(tmp_path / "absent.json")],
        )
        assert "skipped: unreadable" in html_doc
        assert "absent.json: skipped: unreadable" in html_doc
        assert "no ledger files given" in build_report()

    def test_invalid_trace_is_skipped_with_reason(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "span", "sid": 0}\n')
        html_doc = build_report(traces=[str(bad)])
        assert "schema error" in html_doc

    def test_labels_are_escaped(self, tmp_path):
        trace = _trace_file(tmp_path, label="<script>alert(1)</script>")
        html_doc = build_report(traces=[trace])
        assert "<script>" not in html_doc
        assert "&lt;script&gt;" in html_doc

    def test_write_report_writes_the_document(self, tmp_path):
        out = tmp_path / "report.html"
        assert write_report(str(out)) == str(out)
        assert out.read_text().startswith("<!DOCTYPE html>")

    def test_ledger_sparklines_span_files_in_order(self, tmp_path):
        first = _ledger_file(
            tmp_path,
            "parent.json",
            {
                "burst_b1": {"wall_s": (4.0, "s"), "cmds_per_s": (250, "1/s")},
                "kernel_lanes": {"wall_s": (3.0, "s")},
            },
        )
        second = _ledger_file(
            tmp_path,
            "change.json",
            {
                "burst_b1": {"wall_s": (2.0, "s"), "cmds_per_s": (500, "1/s")},
                "kernel_lanes": {"wall_s": (3.5, "s")},
            },
        )
        html_doc = build_report(ledgers=[first, second])
        # One sparkline per (workload, metric), points in file order.
        assert html_doc.count("<svg") == 3
        assert "<title>parent.json: 4 | change.json: 2</title>" in html_doc
        assert "<title>parent.json: 250 | change.json: 500</title>" in html_doc
        assert "<title>parent.json: 3 | change.json: 3.5</title>" in html_doc
        assert html_doc.index("cmds_per_s") < html_doc.index("kernel_lanes")
        assert "500 1/s" in html_doc  # the latest column

    def test_foreign_schema_is_skipped_with_reason(self, tmp_path):
        good = _ledger_file(tmp_path, "good.json", {"w": {"m": (1.0, "s")}})
        foreign = _ledger_file(
            tmp_path, "old.json", {"w": {"m": (9.0, "s")}}, schema="bench-kernel/2"
        )
        html_doc = build_report(ledgers=[foreign, good])
        assert "old.json: skipped: schema" in html_doc
        assert "bench-kernel/2" in html_doc
        assert html_doc.count("<svg") == 1
        assert "<title>good.json: 1</title>" in html_doc
