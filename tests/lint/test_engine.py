"""Engine behaviour: suppressions, file collection, reporters."""

import json

import pytest

from repro.lint import lint_source
from repro.lint.engine import collect_files, run_lint
from repro.lint.noqa import parse_suppressions
from repro.lint.reporters import JSON_SCHEMA, render_json, render_text

KERNEL = "repro.kernel.fixture"

VIOLATION = "import time\nt = time.time()\n"


def write_kernel_file(tmp_path, source, name="fixture.py"):
    """Place ``source`` under a ``repro/kernel/`` directory so the module
    name resolves inside the package-scoped rules' scope."""
    pkg = tmp_path / "repro" / "kernel"
    pkg.mkdir(parents=True, exist_ok=True)
    target = pkg / name
    target.write_text(source)
    return target


class TestNoqa:
    def test_bare_noqa_suppresses_everything(self):
        src = "import time\nt = time.time()  # repro: noqa\n"
        assert lint_source(src, module=KERNEL) == []

    def test_code_specific_noqa_suppresses_that_code(self):
        src = "import time\nt = time.time()  # repro: noqa RPR102 -- test\n"
        assert lint_source(src, module=KERNEL) == []

    def test_wrong_code_does_not_suppress(self):
        src = "import time\nt = time.time()  # repro: noqa RPR103 -- test\n"
        assert [f.code for f in lint_source(src, module=KERNEL)] == ["RPR102"]

    def test_noqa_on_other_line_does_not_suppress(self):
        src = "import time  # repro: noqa\nt = time.time()\n"
        assert [f.code for f in lint_source(src, module=KERNEL)] == ["RPR102"]

    def test_multiple_codes(self):
        supps = parse_suppressions(
            ["x = 1  # repro: noqa RPR102, RPR103 -- two birds"]
        )
        assert supps[1].codes == frozenset({"RPR102", "RPR103"})
        assert supps[1].reason == "two birds"

    def test_reason_parsed(self):
        supps = parse_suppressions(
            ["x  # repro: noqa RPR104 -- identity memo over pinned states"]
        )
        assert supps[1].reason == "identity memo over pinned states"

    def test_bare_marker_without_reason(self):
        supps = parse_suppressions(["x  # repro: noqa"])
        assert supps[1].codes == frozenset()
        assert supps[1].reason == ""

    def test_plain_comment_is_not_a_suppression(self):
        assert parse_suppressions(["x = 1  # a normal comment"]) == {}


class TestRunLint:
    def test_finding_surfaces(self, tmp_path):
        target = write_kernel_file(tmp_path, VIOLATION)
        result = run_lint([str(target)])
        assert [f.code for f in result.findings] == ["RPR102"]
        assert result.files_checked == 1
        assert result.exit_code() == 1

    def test_clean_file_exits_zero(self, tmp_path):
        target = write_kernel_file(tmp_path, "x = 1\n")
        result = run_lint([str(target)])
        assert result.findings == []
        assert result.exit_code(strict=True) == 0

    def test_syntax_error_reported_not_raised(self, tmp_path):
        target = write_kernel_file(tmp_path, "def broken(:\n")
        result = run_lint([str(target)])
        assert result.parse_errors
        assert result.exit_code() == 1

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            run_lint(["no/such/dir"])

    def test_unreasoned_noqa_strict_only(self, tmp_path):
        src = "import time\nt = time.time()  # repro: noqa RPR102\n"
        target = write_kernel_file(tmp_path, src)
        result = run_lint([str(target)])
        assert result.findings == []
        assert len(result.unreasoned_noqa) == 1
        assert result.exit_code(strict=False) == 0
        assert result.exit_code(strict=True) == 1

    def test_unknown_noqa_code_strict_only(self, tmp_path):
        # Built by concatenation so this line is no suppression itself.
        src = "x = 1  # repro: noqa " + "RPR999 -- no such rule\n"
        target = write_kernel_file(tmp_path, src)
        result = run_lint([str(target)])
        assert result.findings == []
        assert [(s.line, sorted(s.codes)) for _, s in result.unknown_noqa] == [
            (1, ["RPR999"])
        ]
        assert result.exit_code(strict=False) == 0
        assert result.exit_code(strict=True) == 1
        assert "RPR999" in render_text(result)

    def test_collect_files_sorted_and_deduped(self, tmp_path):
        write_kernel_file(tmp_path, "x = 1\n", name="b.py")
        write_kernel_file(tmp_path, "x = 1\n", name="a.py")
        (tmp_path / "repro" / "kernel" / "__pycache__").mkdir()
        (tmp_path / "repro" / "kernel" / "__pycache__" / "a.py").write_text("")
        files = collect_files([str(tmp_path), str(tmp_path)])
        names = [f.rsplit("/", 1)[-1] for f in files]
        assert names == ["a.py", "b.py"]


class TestReporters:
    def test_json_schema_and_shape(self, tmp_path):
        target = write_kernel_file(tmp_path, VIOLATION)
        result = run_lint([str(target)])
        report = json.loads(render_json(result))
        assert report["schema"] == JSON_SCHEMA
        assert report["summary"]["findings"] == 1
        assert report["summary"]["by_code"] == {"RPR102": 1}
        (entry,) = report["findings"]
        for key in ("code", "path", "module", "line", "col", "message", "evidence"):
            assert key in entry
        assert "fingerprint" not in entry
        assert entry["code"] == "RPR102"

    def test_text_report_names_code_and_location(self, tmp_path):
        target = write_kernel_file(tmp_path, VIOLATION)
        text = render_text(run_lint([str(target)]))
        assert "RPR102" in text
        assert f"{target}:2:" in text
        assert "1 finding(s)" in text

    def test_verbose_lists_suppressions(self, tmp_path):
        src = "import time\nt = time.time()  # repro: noqa RPR102 -- why\n"
        target = write_kernel_file(tmp_path, src)
        text = render_text(run_lint([str(target)]), verbose=True)
        assert "suppressed RPR102" in text
        assert "why" in text
