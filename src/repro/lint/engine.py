"""Lint engine: file collection, the facts pass, the rules, suppressions.

One pure, deterministic pipeline: every file is parsed once and distilled
into :class:`~repro.lint.project.facts.FileFacts` (the one AST pass); the
:class:`~repro.lint.project.graph.Project` is built from all facts; every
rule runs over it once.  Files are visited in sorted order, findings are
sorted by (path, line, col, code, message), and inline ``# repro: noqa``
suppressions apply on each finding's reported line.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.noqa import Suppression, suppression_for
from repro.lint.project.facts import FileFacts, extract_facts
from repro.lint.project.graph import build_project
from repro.lint.registry import all_rules, known_codes

#: Directory names never descended into.  ``fixtures`` holds committed
#: multi-file lint fixtures (intentionally violating rules); tests copy
#: them into temp trees before linting them.
SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", "results", ".github", "fixtures"}


@dataclass
class LintResult:
    """Outcome of one engine run."""

    findings: List[Finding] = field(default_factory=list)  # actionable
    suppressed: List[Tuple[Finding, Suppression]] = field(default_factory=list)
    #: (path, suppression) of used suppressions that give no reason
    unreasoned_noqa: List[Tuple[str, Suppression]] = field(default_factory=list)
    #: (path, suppression) of suppressions naming a code no rule has
    unknown_noqa: List[Tuple[str, Suppression]] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: List[str] = field(default_factory=list)

    def exit_code(self, strict: bool = False) -> int:
        if self.findings or self.parse_errors:
            return 1
        if strict and (self.unreasoned_noqa or self.unknown_noqa):
            return 1
        return 0


def collect_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            out.append(path)
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in SKIP_DIRS
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        out.append(os.path.join(dirpath, name))
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(dict.fromkeys(out))


def _assemble(files: Sequence[FileFacts], result: LintResult) -> None:
    """Run every rule over the project and fold in the suppressions."""
    project = build_project(files)
    found = [finding for rule in all_rules() for finding in rule.check(project)]
    found.sort(key=lambda f: (f.path, f.line, f.col, f.code, f.message))

    tables: Dict[str, Dict[int, Suppression]] = {
        facts.path: facts.suppressions for facts in files
    }
    used: Dict[Tuple[str, int], Suppression] = {}
    for finding in found:
        hit = suppression_for(tables.get(finding.path, {}), finding.line, finding.code)
        if hit is None:
            result.findings.append(finding)
        else:
            finding.suppressed = True
            used[(finding.path, hit.line)] = hit
            result.suppressed.append((finding, hit))

    result.unreasoned_noqa = [
        (path, supp) for (path, _), supp in sorted(used.items()) if not supp.reason
    ]
    known = set(known_codes())
    result.unknown_noqa = [
        (facts.path, supp)
        for facts in project.files
        for _, supp in sorted(facts.suppressions.items())
        if supp.codes - known
    ]


def lint_source(
    source: str, path: str = "<string>", module: Optional[str] = None
) -> List[Finding]:
    """Lint one source string as a one-file project; returns the findings
    left after suppressions.  The rule fixture tests build on this."""
    result = LintResult()
    _assemble([extract_facts(FileContext(path, source, module=module))], result)
    return result.findings


def run_lint(paths: Sequence[str]) -> LintResult:
    """Lint files/directories and fold in suppressions."""
    result = LintResult()
    files: List[FileFacts] = []
    for path in collect_files(paths):
        try:
            with open(path, "rb") as fh:
                source = fh.read().decode("utf-8")
            files.append(extract_facts(FileContext(path, source)))
        except (SyntaxError, UnicodeDecodeError) as exc:
            result.parse_errors.append(f"{path}: {exc}")
            continue
        result.files_checked += 1
    _assemble(files, result)
    return result
