"""JSONL export: round-trip, schema validation, environment stamp."""

import json

from repro.obs.export import (
    SCHEMA,
    environment_stamp,
    read_trace,
    trace_records,
    validate_trace,
    write_trace,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer


def _sample_tracer():
    tracer = Tracer("unit", meta={"case": 1})
    with tracer.span("outer", clock=iter([0, 5, 9, 12, 20]).__next__):
        tracer.event("ping", value=3)
        with tracer.span("inner"):
            pass
    return tracer


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tracer = _sample_tracer()
        reg = MetricsRegistry()
        reg.inc("work", 7)
        count = write_trace(path, tracer, registry=reg)
        records = read_trace(path)
        # meta + event + 2 spans + paths + metrics
        assert len(records) == count == 6
        assert validate_trace(records) == []
        assert records[0]["schema"] == SCHEMA
        assert records[0]["label"] == "unit"
        assert records[0]["meta"] == {"case": 1}
        assert records[-1]["counters"] == {"work": 7}
        paths = next(r for r in records if r["type"] == "paths")
        assert set(paths["paths"]) == {"outer", "outer/inner"}

    def test_one_json_object_per_line(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        write_trace(path, _sample_tracer())
        with open(path) as fh:
            for line in fh:
                json.loads(line)

    def test_unjsonable_attrs_degrade_to_repr(self, tmp_path):
        tracer = Tracer("unit")
        with tracer.span("s", quorum=frozenset({2, 0, 1}), obj=object()):
            pass
        path = str(tmp_path / "t.jsonl")
        write_trace(path, tracer)
        attrs = read_trace(path)[1]["attrs"]
        assert attrs["quorum"] == [0, 1, 2]
        assert attrs["obj"].startswith("<object object")

    def test_extra_meta_merges_into_header(self):
        records = trace_records(_sample_tracer(), meta={"run": "x"})
        assert records[0]["meta"] == {"case": 1, "run": "x"}


class TestValidation:
    def test_empty_is_invalid(self):
        assert validate_trace([]) != []

    def test_missing_header(self):
        records = trace_records(_sample_tracer())[1:]
        assert any("meta" in e for e in validate_trace(records))

    def test_wrong_schema(self):
        records = trace_records(_sample_tracer())
        for schema in ("repro-trace/1", "repro-trace/999"):
            records[0]["schema"] = schema
            assert any("schema" in e for e in validate_trace(records))

    def test_duplicate_sid(self):
        records = trace_records(_sample_tracer())
        spans = [r for r in records if r["type"] == "span"]
        spans[1]["sid"] = spans[0]["sid"]
        assert any("duplicate sid" in e for e in validate_trace(records))

    def test_dangling_parent(self):
        records = trace_records(_sample_tracer())
        next(r for r in records if r["type"] == "span")["parent"] = 999
        assert any("parent" in e for e in validate_trace(records))

    def test_tick_out_before_tick_in(self):
        records = trace_records(_sample_tracer())
        span = next(r for r in records if r["type"] == "span")
        span["tick_out"] = span["tick_in"] - 1
        assert any("tick_out" in e for e in validate_trace(records))

    def test_unknown_record_type(self):
        records = trace_records(_sample_tracer())
        records.append({"type": "mystery"})
        assert any("unknown record type" in e for e in validate_trace(records))

    def test_two_metrics_records(self):
        reg = MetricsRegistry()
        records = trace_records(_sample_tracer(), registry=reg)
        records.append({"type": "metrics", **reg.snapshot()})
        assert any("metrics records" in e for e in validate_trace(records))

    def test_event_tick_must_be_int(self):
        records = trace_records(_sample_tracer())
        next(r for r in records if r["type"] == "event")["tick"] = "soon"
        assert any("tick" in e for e in validate_trace(records))


class TestPathsRecord:
    """The optional precomputed span-path aggregates: at most one, and
    every aggregate carries the four fields ``aggregate_paths`` writes."""

    def test_two_paths_records_is_error(self):
        records = trace_records(_sample_tracer())
        paths = next(r for r in records if r["type"] == "paths")
        records.append(dict(paths))
        assert any("paths records" in e for e in validate_trace(records))

    def test_malformed_paths_aggregate_is_error(self):
        records = trace_records(_sample_tracer())
        paths = next(r for r in records if r["type"] == "paths")
        paths["paths"]["outer"] = {"count": 1}
        assert any("aggregate must carry" in e for e in validate_trace(records))


class TestEnvironmentStamp:
    def test_required_keys(self):
        stamp = environment_stamp()
        assert set(stamp) == {
            "git_sha", "python", "platform", "cpu_count", "cpu_affinity"
        }
        assert stamp["cpu_count"] >= 1

    def test_git_sha_none_outside_work_tree(self, tmp_path):
        stamp = environment_stamp(repo_root=str(tmp_path))
        assert stamp["git_sha"] is None
