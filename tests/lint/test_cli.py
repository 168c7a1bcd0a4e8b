"""End-to-end CLI tests for ``python -m repro lint``.

Includes the two acceptance gates: the repository lints clean under
``--strict``, and the committed fixture of seeded violations exits nonzero
naming every rule code, each at its seeded line.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.cli import main
from repro.lint.registry import known_codes

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
FIXTURE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "fixtures",
    "kernel_violations.py.txt",
)


def run_cli(*argv, cwd=REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


class TestSelfLint:
    def test_src_lints_clean_strict(self):
        proc = run_cli("lint", "src", "--strict")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 finding(s)" in proc.stdout


class TestSeededFixture:
    #: (code, line) of every finding the fixture must produce, in report
    #: order (path, line, col, code) — one seeded violation per code.
    EXPECTED = [
        ("RPR101", 21),
        ("RPR102", 25),
        ("RPR103", 30),
        ("RPR104", 36),
        ("RPR201", 41),
        ("RPR301", 46),
        ("RPR401", 53),
        ("RPR501", 58),
    ]

    @pytest.fixture()
    def fixture_file(self, tmp_path):
        # Under a repro/kernel/ directory so package-scoped rules fire.
        pkg = tmp_path / "repro" / "kernel"
        pkg.mkdir(parents=True)
        target = pkg / "seeded_violations.py"
        shutil.copyfile(FIXTURE, target)
        return target

    def test_every_code_fires_and_exit_is_nonzero(self, fixture_file):
        proc = run_cli("lint", str(fixture_file), "--format", "json")
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        found = [(f["code"], f["line"]) for f in report["findings"]]
        assert found == self.EXPECTED
        assert {code for code, _ in found} == set(known_codes())

    def test_text_report_names_every_code(self, fixture_file):
        proc = run_cli("lint", str(fixture_file))
        assert proc.returncode == 1
        for code in known_codes():
            assert code in proc.stdout


class TestCliOptions:
    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in known_codes():
            assert code in out

    def test_json_format_is_valid_and_versioned(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert main(["lint", str(target), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro-lint/3"
        assert report["summary"]["files_checked"] == 1

    def test_output_artifact_written(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        artifact = tmp_path / "report.json"
        code = main(["lint", str(target), "--output", str(artifact)])
        capsys.readouterr()
        assert code == 0
        assert json.loads(artifact.read_text())["schema"] == "repro-lint/3"

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["lint", "no/such/path"]) == 2
        assert "error" in capsys.readouterr().err
