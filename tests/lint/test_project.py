"""Whole-program lint: cross-module flow legs, CHA, cycle tolerance and
the RPR401 fork-safety rule.

Every ``proj_*`` fixture under ``tests/lint/fixtures/`` is a small
committed module tree.  Each flow-aware scenario asserts two things:

* **no single file shows it** — linting every file of the tree
  *individually* yields no findings;
* **the whole-program view catches it** — linting the tree together
  yields the expected code, at the expected module and line, with an
  evidence chain that crosses files.
"""

import json
import os
import shutil

from repro.lint import lint_source
from repro.lint.engine import collect_files, run_lint
from repro.lint.reporters import render_json

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def deploy(tmp_path, scenario):
    """Copy a committed fixture tree into ``tmp_path`` and return it."""
    shutil.copytree(
        os.path.join(FIXTURES, scenario), tmp_path, dirs_exist_ok=True
    )
    return str(tmp_path)


def sites(findings):
    return [(f.code, f.module, f.line) for f in findings]


def per_file_findings(tree):
    """Findings from linting every file of the tree *individually* —
    exactly what the pre-whole-program linter could see."""
    out = []
    for path in collect_files([tree]):
        out.extend(run_lint([path]).findings)
    return out


class TestCrossModuleFlow:
    def test_rng_binding_reexport_only_whole_program_sees(self, tmp_path):
        tree = deploy(tmp_path, "proj_rng")
        assert per_file_findings(tree) == []

        findings = run_lint([tree]).findings
        assert sites(findings) == [("RPR101", "repro.kernel.stepper", 8)]
        (finding,) = findings
        assert finding.rule_name == "global-random"
        assert "random.choice" in finding.message
        assert finding.evidence

    def test_clock_taint_through_helper_call(self, tmp_path):
        tree = deploy(tmp_path, "proj_clock")
        assert per_file_findings(tree) == []

        findings = run_lint([tree]).findings
        assert sites(findings) == [("RPR102", "repro.kernel.clocked", 7)]
        (finding,) = findings
        assert finding.rule_name == "wall-clock"
        # The chain bottoms out at the concrete read in the helper module.
        assert finding.evidence[-1]["module"] == "repro.harness.timeutil"
        assert "time.time" in finding.evidence[-1]["snippet"]

    def test_lazy_export_table_forwards_like_an_import(self, tmp_path):
        # The package re-exports ``stamp`` through a repro._exports table;
        # the kernel caller imports it from the package.
        tree = deploy(tmp_path, "proj_clock")
        kernel = os.path.join(tree, "repro", "kernel", "clocked.py")
        with open(kernel) as handle:
            source = handle.read()
        with open(kernel, "w") as handle:
            handle.write(source.replace("repro.harness.timeutil", "repro.harness"))
        package = os.path.join(tree, "repro", "harness", "__init__.py")
        with open(package, "w") as handle:
            handle.write(
                "from repro._exports import lazy_exports\n"
                "\n"
                "__all__, __getattr__, __dir__ = lazy_exports(__name__, {\n"
                '    "repro.harness.timeutil": "stamp",\n'
                "})\n"
            )
        findings = run_lint([tree]).findings
        assert sites(findings) == [("RPR102", "repro.kernel.clocked", 7)]
        assert findings[0].evidence[-1]["module"] == "repro.harness.timeutil"

    def test_set_into_cross_module_order_sink(self, tmp_path):
        tree = deploy(tmp_path, "proj_order")
        assert per_file_findings(tree) == []

        findings = run_lint([tree]).findings
        assert sites(findings) == [("RPR103", "repro.kernel.combine", 8)]
        (finding,) = findings
        assert finding.rule_name == "unordered-iteration"
        assert finding.evidence[-1]["module"] == "repro.harness.agg"

    def test_cha_discovers_automaton_two_modules_deep(self, tmp_path):
        tree = deploy(tmp_path, "proj_cha")
        assert per_file_findings(tree) == []

        findings = run_lint([tree]).findings
        assert sites(findings) == [("RPR201", "repro.harness.leaf", 15)]
        (finding,) = findings
        assert finding.rule_name == "automaton-purity"
        assert "LoggingLeaf" in finding.message

    def test_import_cycle_tolerated_and_still_traced(self, tmp_path):
        tree = deploy(tmp_path, "proj_cycle")
        assert per_file_findings(tree) == []

        findings = run_lint([tree]).findings
        assert sites(findings) == [("RPR102", "repro.kernel.user", 8)]
        (finding,) = findings
        assert finding.evidence[-1]["module"] == "repro.harness.alpha"
        assert "getpid" in finding.evidence[-1]["snippet"]

    def test_evidence_survives_into_json_report(self, tmp_path):
        tree = deploy(tmp_path, "proj_clock")
        report = json.loads(render_json(run_lint([tree])))
        (entry,) = report["findings"]
        hops = [(hop["module"], hop["line"]) for hop in entry["evidence"]]
        assert hops == [
            ("repro.kernel.clocked", 7),
            ("repro.harness.timeutil", 11),
        ]
        assert entry["evidence"][-1]["path"].endswith("timeutil.py")


class TestParallelSafetyRules:
    WORKER = (
        "from repro.harness.parallel import SweepTask\n"
        "\n"
        "_TALLY = {}\n"
        "\n"
        "\n"
        "def worker(seed):\n"
        "    _TALLY[seed] = seed\n"
        "    return seed\n"
        "\n"
        "\n"
        "TASK = SweepTask(name='t', fn=worker)\n"
    )

    def test_rpr401_worker_reachable_global_write(self):
        codes = [
            f.code
            for f in lint_source(self.WORKER, module="repro.harness.work")
        ]
        assert "RPR401" in codes

    def test_rpr401_silent_outside_the_cone(self):
        src = self.WORKER.replace("fn=worker", "fn=other")
        codes = [f.code for f in lint_source(src, module="repro.harness.work")]
        assert "RPR401" not in codes
