"""The CI gate scripts in ``benchmarks/`` behave as documented.

Each script must expose a usable ``--help`` (exit 0, names its options) and
exit nonzero on the failure it is designed to catch, so a CI misconfiguration
surfaces as a loud failure instead of a silently green step.
"""

import os
import subprocess
import sys

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


class TestCheckTraceSchema:
    def test_help(self):
        proc = run_script("check_trace_schema.py", "--help")
        assert proc.returncode == 0
        assert "usage" in proc.stdout
        assert "repro-trace/1" in proc.stdout

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

    def test_service_excludes_chaos_and_store(self):
        proc = run_script("check_determinism.py", "--service", "--chaos")
        assert proc.returncode == 2
        proc = run_script("check_determinism.py", "--service", "--store")
        assert proc.returncode == 2
