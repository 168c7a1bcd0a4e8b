"""Rule base class and the global rule registry.

A rule is a class with a unique ``code`` (``RPRnnn``), a short ``name``
slug, a one-line ``summary`` (the catalog entry), an optional package
``scope`` (dotted-module prefixes the rule is confined to; ``None`` means
every linted file), and a ``check(ctx)`` generator yielding
:class:`~repro.lint.findings.Finding` objects.

Register with the :func:`register` decorator::

    @register
    class NoWallClock(Rule):
        code = "RPR102"
        name = "wall-clock"
        summary = "..."
        scope = KERNEL_PACKAGES

        def check(self, ctx):
            ...

Importing :mod:`repro.lint.rules` populates the registry.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Type

from repro.lint.findings import Finding

#: Packages where the step/schedule/run formalism demands full determinism:
#: anything here executes inside (or feeds) replayed, cached, or merged runs.
KERNEL_PACKAGES: Tuple[str, ...] = (
    "repro.kernel",
    "repro.core",
    "repro.detectors",
    "repro.consensus",
)

#: Everything shipped under ``repro.`` except the observability layer itself
#: and this linter (neither executes on a replayed hot path).
REPRO_PACKAGES: Tuple[str, ...] = ("repro",)

_CODE_RE = re.compile(r"^RPR\d{3}$")


class Rule:
    """Base class for lint rules."""

    code: str = ""
    name: str = ""
    summary: str = ""
    #: dotted-module prefixes this rule applies to; ``None`` = everywhere
    scope: Optional[Tuple[str, ...]] = None

    def applies_to(self, module: str) -> bool:
        if self.scope is None:
            return True
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.scope
        )

    def check(self, ctx) -> Iterator[Finding]:
        raise NotImplementedError

    # Helper: build a finding anchored at an AST node.
    def finding(self, ctx, node, message: str) -> Finding:
        return ctx.make_finding(self, node, message)


class ProjectRule:
    """Base class for whole-program (flow-aware) rules.

    A project rule sees the :class:`~repro.lint.project.graph.Project`
    built from every linted file at once and yields findings with
    cross-file evidence chains.  Project rules may *share* a code with a
    single-file rule (the flow-aware RPR101/102/103/201 companions extend
    the same contract interprocedurally), so they live in a separate
    registry; :func:`known_codes` is the union.
    """

    code: str = ""
    name: str = ""
    summary: str = ""

    def check(self, project) -> Iterator[Finding]:
        raise NotImplementedError


_REGISTRY: Dict[str, Rule] = {}
_PROJECT_REGISTRY: Dict[str, ProjectRule] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    if not _CODE_RE.match(rule_cls.code or ""):
        raise ValueError(
            f"rule {rule_cls.__name__} has invalid code {rule_cls.code!r}"
        )
    if rule_cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {rule_cls.code}")
    _REGISTRY[rule_cls.code] = rule_cls()
    return rule_cls


def register_project(rule_cls: Type[ProjectRule]) -> Type[ProjectRule]:
    if not _CODE_RE.match(rule_cls.code or ""):
        raise ValueError(
            f"project rule {rule_cls.__name__} has invalid code "
            f"{rule_cls.code!r}"
        )
    key = f"{rule_cls.code}/{rule_cls.name}"
    if key in _PROJECT_REGISTRY:
        raise ValueError(f"duplicate project rule {key}")
    _PROJECT_REGISTRY[key] = rule_cls()
    return rule_cls


def _ensure_loaded() -> None:
    # Importing the rules package runs every single-file @register
    # decorator; the project-rule modules are imported separately because
    # they depend on repro.lint.project (which imports rule helpers — a
    # cycle if rules/__init__ pulled them in directly).
    import repro.lint.rules  # noqa: F401  (import for side effect)
    from repro.lint.rules import (  # noqa: F401
        flow,
        parallel_safety,
        store_soundness,
    )


def all_rules() -> List[Rule]:
    _ensure_loaded()
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def all_project_rules() -> List[ProjectRule]:
    _ensure_loaded()
    return [_PROJECT_REGISTRY[key] for key in sorted(_PROJECT_REGISTRY)]


def get_rule(code: str) -> Rule:
    _ensure_loaded()
    return _REGISTRY[code]


def known_codes() -> List[str]:
    """Every code either registry can emit (union, sorted)."""
    _ensure_loaded()
    codes = set(_REGISTRY)
    codes.update(rule.code for rule in _PROJECT_REGISTRY.values())
    return sorted(codes)
