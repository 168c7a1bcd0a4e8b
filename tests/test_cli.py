"""The command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_crash_parsing(self):
        args = build_parser().parse_args(
            ["consensus", "--crash", "1:5", "--crash", "2:10"]
        )
        from repro.cli import _parse_crashes

        assert _parse_crashes(args.crash) == {1: 5, 2: 10}

    def test_bad_crash_spec_rejected(self):
        from repro.cli import _parse_crashes

        with pytest.raises(SystemExit):
            _parse_crashes(["nonsense"])


class TestCommands:
    def test_consensus_anuc(self, capsys):
        code = main(["consensus", "--n", "3", "--crash", "2:10", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "decided" in out
        assert "nonuniform: ok" in out

    def test_consensus_stack_with_transcript(self, capsys):
        code = main(
            [
                "consensus",
                "--n",
                "2",
                "--algorithm",
                "stack",
                "--transcript",
                "3",
                "--seed",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "emulated Sigma^nu+" in out
        assert "t=0" in out

    def test_adversary_breaks_half(self, capsys):
        code = main(["adversary", "--n", "4", "--t", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "VIOLATED" in out

    def test_adversary_survives_minority(self, capsys):
        code = main(["adversary", "--n", "5", "--t", "2"])
        assert code == 0
        assert "survived" in capsys.readouterr().out

    def test_contamination_naive(self, capsys):
        code = main(["contamination", "naive"])
        out = capsys.readouterr().out
        assert code == 0
        assert "CONTAMINATED (as the paper predicts)" in out

    def test_contamination_anuc(self, capsys):
        code = main(["contamination", "anuc"])
        out = capsys.readouterr().out
        assert code == 0
        assert "safe (as the paper predicts)" in out

    def test_experiment_quick(self, capsys):
        code = main(["experiment", "exp5", "--quick"])
        out = capsys.readouterr().out
        assert code == 0
        assert "EXP-5" in out

    def test_extract(self, capsys):
        code = main(["extract", "--n", "3", "--crash", "2:15"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Thm 5.4" in out and "ok" in out


class TestTraceCommand:
    def test_experiment_trace_roundtrip(self, capsys, tmp_path):
        trace_file = tmp_path / "exp6.jsonl"
        code = main(
            ["experiment", "exp6", "--quick", "--trace-out", str(trace_file)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "trace:" in out
        assert trace_file.exists()

        code = main(["trace", str(trace_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "experiment:exp6" in out
        assert "span aggregates" in out
        # exp6 merges abstract runs (no live kernel), so its trace shows
        # the sweep span plus automaton round counters
        assert "exp.exp6" in out
        assert "consensus.rounds.quorum-mr" in out

    def test_extract_trace_roundtrip(self, capsys, tmp_path):
        trace_file = tmp_path / "extract.jsonl"
        code = main(
            [
                "extract",
                "--n",
                "3",
                "--crash",
                "2:15",
                "--trace-out",
                str(trace_file),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["trace", str(trace_file), "--no-timeline"]) == 0
        out = capsys.readouterr().out
        assert "extract.quorum" in out

    def test_trace_rejects_invalid_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "span", "sid": 0}\n')
        assert main(["trace", str(bad)]) == 1
        assert "invalid" in capsys.readouterr().out

    def test_tracing_left_disabled_after_command(self, tmp_path):
        from repro import obs

        trace_file = tmp_path / "t.jsonl"
        main(["experiment", "exp6", "--quick", "--trace-out", str(trace_file)])
        assert not obs.enabled()


class TestReproduceCommand:
    def test_quick_report_covers_all_experiments(self, capsys, tmp_path):
        out_file = tmp_path / "report.txt"
        code = main(["reproduce", "--quick", "--output", str(out_file)])
        assert code == 0
        report = out_file.read_text()
        for i in range(1, 10):
            assert f"EXP-{i}" in report
        assert "REPRODUCTION REPORT" in report


class TestChaosCommand:
    FIXTURE = "tests/chaos/fixtures/split-quorums-nonuniform-agreement-seed0.json"

    def test_list_configs(self, capsys):
        assert main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        assert "split-quorums" in out
        assert "[honest]" in out and "[injected]" in out

    def test_unknown_config_rejected(self):
        import pytest

        with pytest.raises(SystemExit):
            main(["chaos", "--config", "martian"])

    def test_single_config_matrix(self, capsys):
        code = main(
            ["chaos", "--config", "omega-crashed", "--budget", "35000"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "omega-crashed" in out
        assert "matrix exact" in out

    def test_replay_fixture(self, capsys):
        code = main(["chaos", "--replay", self.FIXTURE])
        out = capsys.readouterr().out
        assert code == 0
        assert "reproduced" in out
        assert "nonuniform agreement" in out

    def test_shrink_writes_artifact(self, capsys, tmp_path):
        code = main(
            [
                "chaos",
                "--config",
                "omega-crashed",
                "--budget",
                "35000",
                "--shrink",
                "--out",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "shrunk" in out
        artifacts = list(tmp_path.glob("*.json"))
        assert len(artifacts) == 1
        from repro.chaos import load_counterexample

        document = load_counterexample(artifacts[0])
        assert document["config"] == "omega-crashed"
        assert document["property"] == "termination"


class TestSweepCommand:
    SPEC = """
[sweep]
name = "exp6-cli"
experiment = "exp6"

[params]
seeds = [0, 1]
"""

    def write_spec(self, tmp_path):
        spec = tmp_path / "sweep.toml"
        spec.write_text(self.SPEC)
        return str(spec)

    def test_cold_then_warm(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path)
        store_dir = str(tmp_path / "store")
        assert main(["sweep", spec, "--store-dir", store_dir]) == 0
        cold = capsys.readouterr().out
        assert "2 miss(es)" in cold and "2 written" in cold

        code = main(
            ["sweep", spec, "--store-dir", store_dir, "--require-warm", "0.99"]
        )
        warm = capsys.readouterr().out
        assert code == 0
        assert "2 hit(s)" in warm
        # The rendered table (everything above the stats line) is identical.
        strip = lambda text: [
            line for line in text.splitlines() if not line.startswith("store:")
        ]
        assert strip(warm) == strip(cold)

    def test_require_warm_fails_cold(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path)
        code = main(
            [
                "sweep",
                spec,
                "--store-dir",
                str(tmp_path / "store"),
                "--require-warm",
                "0.99",
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "warm-cache requirement failed" in err

    def test_no_store_runs_without_touching_disk(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path)
        store_dir = tmp_path / "store"
        code = main(
            ["sweep", spec, "--no-store", "--store-dir", str(store_dir)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "store:" not in out
        assert not store_dir.exists()

    def test_output_and_stats_json(self, capsys, tmp_path):
        import json

        spec = self.write_spec(tmp_path)
        table_file = tmp_path / "table.txt"
        stats_file = tmp_path / "stats.json"
        code = main(
            [
                "sweep",
                spec,
                "--store-dir",
                str(tmp_path / "store"),
                "--output",
                str(table_file),
                "--stats-json",
                str(stats_file),
            ]
        )
        capsys.readouterr()
        assert code == 0
        stats = json.loads(stats_file.read_text())
        assert stats["sweeps"] == ["exp6-cli"]
        assert stats["misses"] == 2
        import hashlib

        rendered = table_file.read_text()
        assert stats["table_sha256"] == hashlib.sha256(
            rendered.encode("utf-8")
        ).hexdigest()

    def test_bad_spec_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.toml"
        bad.write_text("[sweep]\nexperiment = 'exp42'\n")
        assert main(["sweep", str(bad)]) == 2
        assert "exp42" in capsys.readouterr().err


class TestStoreCommand:
    def populate(self, tmp_path, capsys):
        spec = tmp_path / "sweep.toml"
        spec.write_text(TestSweepCommand.SPEC)
        store_dir = str(tmp_path / "store")
        assert main(["sweep", str(spec), "--store-dir", store_dir]) == 0
        capsys.readouterr()
        return str(spec), store_dir

    def test_ls(self, capsys, tmp_path):
        _, store_dir = self.populate(tmp_path, capsys)
        assert main(["store", "ls", "--store-dir", store_dir]) == 0
        out = capsys.readouterr().out
        assert "objects: 2 record(s)" in out

    def test_ls_json(self, capsys, tmp_path):
        import json

        _, store_dir = self.populate(tmp_path, capsys)
        assert main(["store", "ls", "--json", "--store-dir", store_dir]) == 0
        document = json.loads(capsys.readouterr().out)
        assert len(document["objects"]) == 2

    def test_diff_reports_cached_rows(self, capsys, tmp_path):
        spec, store_dir = self.populate(tmp_path, capsys)
        assert main(["store", "diff", spec, "--store-dir", store_dir]) == 0
        out = capsys.readouterr().out
        assert "2 cached, 0 new" in out
        assert "would execute 0 task(s)" in out

    def test_diff_requires_spec(self, capsys, tmp_path):
        assert main(["store", "diff", "--store-dir", str(tmp_path)]) == 2
        assert "needs a spec" in capsys.readouterr().err

    def test_gc_all(self, capsys, tmp_path):
        spec, store_dir = self.populate(tmp_path, capsys)
        assert main(["store", "gc", "--all", "--store-dir", store_dir]) == 0
        assert "removed 2 record(s)" in capsys.readouterr().out
        assert main(["store", "diff", spec, "--store-dir", store_dir]) == 0
        assert "2 new" in capsys.readouterr().out


class TestExperimentStoreFlag:
    def test_experiment_store_roundtrip(self, capsys, tmp_path):
        store_dir = str(tmp_path / "store")
        args = [
            "experiment",
            "exp6",
            "--quick",
            "--store",
            "--store-dir",
            store_dir,
        ]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "miss(es)" in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "0 miss(es)" in warm and "hit rate 100.0%" in warm


class TestTraceAnalyticsCommands:
    def _trace(self, tmp_path, capsys, name="a.jsonl"):
        path = tmp_path / name
        assert (
            main(["experiment", "exp6", "--quick", "--trace-out", str(path)])
            == 0
        )
        capsys.readouterr()
        return str(path)

    def test_diff_same_seed_run_is_tick_exact(self, capsys, tmp_path):
        a = self._trace(tmp_path, capsys, "a.jsonl")
        b = self._trace(tmp_path, capsys, "b.jsonl")
        assert main(["trace", "diff", a, b, "--expect-equal-ticks"]) == 0
        out = capsys.readouterr().out
        assert "EXACT" in out
        assert "0 differ" in out.split("wall noise floor")[0]

    def test_diff_different_workloads_fails_equal_ticks_gate(
        self, capsys, tmp_path
    ):
        a = self._trace(tmp_path, capsys, "a.jsonl")
        other = tmp_path / "extract.jsonl"
        assert (
            main(
                ["extract", "--n", "3", "--crash", "2:15",
                 "--trace-out", str(other)]
            )
            == 0
        )
        capsys.readouterr()
        code = main(["trace", "diff", a, str(other), "--expect-equal-ticks"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out

    def test_diff_needs_exactly_two_traces(self, capsys, tmp_path):
        a = self._trace(tmp_path, capsys)
        with pytest.raises(SystemExit, match="TRACE_A TRACE_B"):
            main(["trace", "diff", a])

    def test_flame_renders_path_tree(self, capsys, tmp_path):
        a = self._trace(tmp_path, capsys)
        assert main(["trace", "flame", a]) == 0
        out = capsys.readouterr().out
        assert "flame (" in out
        assert "exp.exp6" in out
        assert "#" in out

    def test_plain_file_form_rejects_extra_arguments(self, capsys, tmp_path):
        a = self._trace(tmp_path, capsys)
        with pytest.raises(SystemExit, match="unexpected extra"):
            main(["trace", a, a])

    def test_diff_rejects_invalid_trace(self, capsys, tmp_path):
        a = self._trace(tmp_path, capsys)
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "span", "sid": 0}\n')
        assert main(["trace", "diff", a, str(bad)]) == 1
        assert "invalid" in capsys.readouterr().out


class TestObsReportCommand:
    def test_report_is_written_and_self_contained(self, capsys, tmp_path):
        trace = tmp_path / "exp6.jsonl"
        assert (
            main(
                ["experiment", "exp6", "--quick", "--trace-out", str(trace)]
            )
            == 0
        )
        capsys.readouterr()
        out_html = tmp_path / "obs.html"
        assert (
            main(
                [
                    "obs", "report",
                    "--trace", str(trace),
                    "--output", str(out_html),
                    "--title", "unit report",
                ]
            )
            == 0
        )
        assert "report written" in capsys.readouterr().out
        html = out_html.read_text()
        assert html.lstrip().lower().startswith("<!doctype html")
        assert "unit report" in html
        assert "exp.exp6" in html
        assert "no ledger files given" in html
        # Self-contained: no external scripts, stylesheets or images.
        for marker in ("<script src=", "http://", "https://", "<img src="):
            assert marker not in html

    def test_report_notes_unreadable_inputs_instead_of_failing(
        self, capsys, tmp_path
    ):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "span", "sid": 0}\n')
        out_html = tmp_path / "obs.html"
        assert (
            main(
                [
                    "obs", "report",
                    "--trace", str(bad),
                    "--ledger", str(tmp_path / "absent.json"),
                    "--output", str(out_html),
                ]
            )
            == 0
        )
        html = out_html.read_text()
        assert "skipped" in html


class TestStoreDiffCounters:
    def test_untraced_rows_report_no_telemetry(self, capsys, tmp_path):
        spec = tmp_path / "sweep.toml"
        spec.write_text(TestSweepCommand.SPEC)
        store_dir = str(tmp_path / "store")
        assert main(["sweep", str(spec), "--store-dir", store_dir]) == 0
        capsys.readouterr()
        assert (
            main(
                ["store", "diff", str(spec), "--store-dir", store_dir,
                 "--counters"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "no rows carry telemetry under both signatures" in out

    def test_counter_delta_summation(self, capsys):
        from repro.store.cli import _print_counter_deltas

        entry = {
            "tasks": [
                {
                    "telemetry": {"counters": {"x": 5, "y": 3}},
                    "previous_telemetry": {"counters": {"x": 2, "y": 3}},
                },
                {
                    "telemetry": {"counters": {"x": 1}},
                    "previous_telemetry": {"counters": {"x": 0}},
                },
                {"telemetry": None, "previous_telemetry": None},
            ]
        }
        _print_counter_deltas(entry)
        out = capsys.readouterr().out
        assert "counter deltas over 2 telemetry row(s)" in out
        assert "2 -> 6 (+4)" in out  # x summed across rows
        # unchanged counters are elided
        assert not any(line.strip().startswith("y") for line in out.splitlines())

    def test_identical_telemetry_reports_identical(self, capsys):
        from repro.store.cli import _print_counter_deltas

        entry = {
            "tasks": [
                {
                    "telemetry": {"counters": {"x": 5}},
                    "previous_telemetry": {"counters": {"x": 5}},
                }
            ]
        }
        _print_counter_deltas(entry)
        assert "identical across 1" in capsys.readouterr().out
