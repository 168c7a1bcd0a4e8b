"""The command-line interface."""

import json
from pathlib import Path

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

    def test_quick_report_is_the_experiment_quick_tables(self, capsys, tmp_path):
        out_file = tmp_path / "report.txt"
        assert main(["reproduce", "--quick", "--output", str(out_file)]) == 0
        tables = []
        for i in range(1, 10):
            capsys.readouterr()
            assert main(["experiment", f"exp{i}", "--quick"]) == 0
            tables.append(capsys.readouterr().out)
        header, body = out_file.read_text().split("=" * 70 + "\n\n", 1)
        assert header.startswith("REPRODUCTION REPORT\n")
        assert body == "\n".join(tables)


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

    @pytest.mark.parametrize(
        "damage",
        [
            "missing",
            "format",
            "delivery",
            "delivery-type",
            "delivery-age",
            "crash",
            "config",
        ],
    )
    def test_replay_refuses_malformed_artifact(self, damage, capsys, tmp_path):
        """A malformed artifact exits 2 with one error line, apart from
        exit 1 ("NOT reproduced") and without a traceback."""
        document = json.loads(Path(self.FIXTURE).read_text())
        if damage == "format":
            document = {"format": "nope"}
        elif damage == "delivery":
            document["case"]["delivery"] = ["per-sender-fifo", 0.218]
        elif damage == "delivery-type":
            document["case"]["delivery"] = ["per-sender-fifo", "x", 5]
        elif damage == "delivery-age":
            document["case"]["delivery"] = ["per-sender-fifo", 0.218, -3]
        elif damage == "crash":
            assert document["case"]["n"] == 5
            document["case"]["crash_times"] = [[9, 13]]
        elif damage == "config":
            document["config"] = "martian"
        path = tmp_path / "ce.json"
        if damage != "missing":
            path.write_text(json.dumps(document))
        code = main(["chaos", "--replay", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err + captured.out

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
    SPEC = 'experiment,name,seeds\nexp6,exp6-cli,"[0, 1]"\n'

    def write_spec(self, tmp_path):
        spec = tmp_path / "sweep.csv"
        spec.write_text(self.SPEC)
        return str(spec)

    def test_output_writes_rendered_table(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path)
        table_file = tmp_path / "table.txt"
        assert main(["sweep", spec, "--output", str(table_file)]) == 0
        out = capsys.readouterr().out
        rendered = table_file.read_text()
        assert rendered.startswith("EXP-6: Lemma 2.2")
        assert out.startswith(rendered)

    def test_parallel_table_matches_serial(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path)
        assert main(["sweep", spec]) == 0
        serial = capsys.readouterr().out
        assert main(["sweep", spec, "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_bad_spec_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("experiment,seeds\nexp42,range(2)\n")
        assert main(["sweep", str(bad)]) == 2
        assert "exp42" in capsys.readouterr().err


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
        # Wall time may differ between the runs; logical ticks may not.
        assert "0 tick-differing" in out

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

