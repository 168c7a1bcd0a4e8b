"""The CI gate scripts in ``benchmarks/`` behave as documented.

Each script must expose a usable ``--help`` (exit 0, names its options) and
exit nonzero on the failure it is designed to catch, so a CI misconfiguration
surfaces as a loud failure instead of a silently green step.
"""

import importlib.util
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARKS = os.path.join(REPO_ROOT, "benchmarks")


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.run(
        [sys.executable, os.path.join(BENCHMARKS, name), *argv],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        name[: -len(".py")], os.path.join(BENCHMARKS, name)
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCheckTraceSchema:
    def test_help(self):
        proc = run_script("check_trace_schema.py", "--help")
        assert proc.returncode == 0
        assert "usage" in proc.stdout
        assert "repro-trace/2" in proc.stdout

    def test_missing_argument_is_usage_error(self):
        proc = run_script("check_trace_schema.py")
        assert proc.returncode == 2
        assert "usage" in proc.stderr

    def test_invalid_trace_fails(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "span"}\n')  # missing required fields
        proc = run_script("check_trace_schema.py", str(bad))
        assert proc.returncode == 1

    def test_unreadable_file_fails(self, tmp_path):
        proc = run_script("check_trace_schema.py", str(tmp_path / "absent.jsonl"))
        assert proc.returncode == 1


class TestCheckDeterminism:
    def test_help(self):
        proc = run_script("check_determinism.py", "--help")
        assert proc.returncode == 0
        for token in ("--exp", "--jobs", "--full", "usage"):
            assert token in proc.stdout

    def test_unknown_experiment_is_usage_error(self):
        proc = run_script("check_determinism.py", "--exp", "exp99")
        assert proc.returncode == 2
        assert "usage" in proc.stderr

    def test_help_names_service_mode(self):
        proc = run_script("check_determinism.py", "--help")
        assert proc.returncode == 0
        assert "--service" in proc.stdout

    def test_service_excludes_chaos(self):
        proc = run_script("check_determinism.py", "--service", "--chaos")
        assert proc.returncode == 2

    @pytest.mark.parametrize("exp", ["exp4", "exp8"])
    def test_quick_runs_the_experiment_quick_parameterization(self, exp, capsys):
        # The quick run is the one ``repro experiment EXP --quick`` prints.
        from repro.cli import main

        assert main(["experiment", exp, "--quick"]) == 0
        printed = capsys.readouterr().out
        script = load_script("check_determinism.py")
        rendered = script.run_once(exp, quick=True, jobs=1)["rendered"]
        assert rendered + "\n" == printed


class TestStepOpcodes:
    def test_help(self):
        proc = run_script("step_opcodes.py", "--help")
        assert proc.returncode == 0
        for token in ("--commands", "--functions", "usage"):
            assert token in proc.stdout

    def test_layers_sum_to_the_total(self):
        proc = run_script("step_opcodes.py", "--commands", "4")
        assert proc.returncode == 0, proc.stderr
        rows = {
            line[:12].strip(): float(line.split()[-2])
            for line in proc.stdout.splitlines()[2:]
        }
        script = load_script("step_opcodes.py")
        assert set(rows) == set(script.LAYERS) | {"total"}
        assert all(rows[layer] > 0 for layer in script.LAYERS)
        assert abs(sum(rows[layer] for layer in script.LAYERS) - rows["total"]) < 0.5
