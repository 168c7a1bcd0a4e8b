"""``repro.lint`` — determinism & model-fidelity static analysis.

Every load-bearing feature of this reproduction — prefix replay in the
simulation trie, byte-identical ``--jobs N`` sweeps, the traced-vs-untraced
oracle tests — is sound only because the codebase
follows the determinism discipline of the paper's step/schedule/run
formalism: seeded RNGs only, no wall clock in the kernel, ordered iteration
over unordered containers, pure automata, guarded instrumentation,
fork-safe workers.  This package makes those rules *checkable*.

One AST pass per file (:mod:`repro.lint.project.facts`) records every site
any rule needs; each rule is one class over the whole-program
:class:`~repro.lint.project.graph.Project`, reporting its direct sites and
its cross-module legs.

Rule codes
----------

``RPR1xx``
    Determinism: global/unseeded randomness (101), wall-clock and
    environment reads (102), unordered iteration (103), identity-based
    keys (104).
``RPR2xx``
    Model fidelity: automaton purity (201).
``RPR3xx``
    Observability hygiene: instrumentation guarded by the ``_ENABLED``
    module flag (301).
``RPR4xx``
    Fork safety: module-global writes in sweep-worker code (401).

Usage
-----

``python -m repro lint [PATHS] [--format json] [--output FILE] [--strict]``

or programmatically::

    from repro.lint import run_lint
    result = run_lint(["src"])
    for finding in result.findings:
        print(finding.render())

Inline suppressions use ``# repro: noqa RPR103 -- <reason>`` on the
offending line.  The rule catalog (with rationale) and the suppression
policy are in ``docs/linting.md``.
"""

from __future__ import annotations

from repro.lint.findings import Finding
from repro.lint.registry import Rule, all_rules, get_rule, known_codes, register
from repro.lint.engine import LintResult, lint_source, run_lint

__all__ = [
    "Finding",
    "LintResult",
    "Rule",
    "all_rules",
    "get_rule",
    "known_codes",
    "lint_source",
    "register",
    "run_lint",
]
