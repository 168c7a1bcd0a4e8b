"""The rule base class and the registry: one class per code.

A rule has a unique ``code`` (``RPRnnn``), a short ``name`` slug, a
one-line ``summary`` (the catalog entry), a package ``scope`` (dotted-module
prefixes whose sites it reports; ``None`` means every linted module) minus
``exempt`` prefixes, and a ``check(project)`` generator yielding
:class:`~repro.lint.findings.Finding` objects.  A rule sees the whole
:class:`~repro.lint.project.graph.Project`, so it reports its direct sites
and its cross-module legs from the same facts::

    @register
    class NoWallClock(Rule):
        code = "RPR102"
        name = "wall-clock"
        summary = "..."
        scope = KERNEL_PACKAGES

        def check(self, project):
            ...

Importing :mod:`repro.lint.rules` populates the registry.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Type

from repro.lint.findings import Finding

#: Packages where the step/schedule/run formalism demands full determinism:
#: anything here executes inside (or feeds) replayed, cached, or merged runs.
KERNEL_PACKAGES: Tuple[str, ...] = (
    "repro.kernel",
    "repro.core",
    "repro.detectors",
    "repro.consensus",
)

_CODE_RE = re.compile(r"^RPR\d{3}$")


def in_packages(module: str, prefixes: Sequence[str]) -> bool:
    """Is ``module`` one of ``prefixes`` or inside one of them?"""
    return any(
        module == prefix or module.startswith(prefix + ".") for prefix in prefixes
    )


class Rule:
    """Base class for lint rules."""

    code: str = ""
    name: str = ""
    summary: str = ""
    #: dotted-module prefixes this rule reports in; ``None`` = everywhere
    scope: Optional[Tuple[str, ...]] = None
    #: prefixes carved out of ``scope``
    exempt: Tuple[str, ...] = ()

    def applies_to(self, module: str) -> bool:
        if self.scope is not None and not in_packages(module, self.scope):
            return False
        return not in_packages(module, self.exempt)

    def describe_scope(self) -> str:
        where = "everywhere" if self.scope is None else ", ".join(self.scope)
        if self.exempt:
            where += " except " + ", ".join(self.exempt)
        return where

    def check(self, project) -> Iterator[Finding]:
        raise NotImplementedError

    def sites(self, project, *kinds: str) -> Iterator[Tuple[Any, Dict[str, Any]]]:
        """``(facts, site)`` for every ``kinds`` fact site in the modules
        this rule covers, over every linted file."""
        for facts in project.files:
            if self.applies_to(facts.module):
                for fn in facts.functions.values():
                    for kind in kinds:
                        for site in fn[kind]:
                            yield facts, site

    def finding(
        self,
        facts,
        site: Dict[str, Any],
        message: str,
        evidence: Optional[List[Dict[str, Any]]] = None,
    ) -> Finding:
        """A finding at ``site`` (a facts site record) of file ``facts``."""
        return Finding(
            code=self.code,
            path=facts.path,
            module=facts.module,
            line=site.get("line", 1),
            col=site.get("col", 0),
            message=message,
            rule_name=self.name,
            snippet=site.get("snippet", ""),
            evidence=list(evidence or []),
        )


_REGISTRY: Dict[str, Rule] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    if not _CODE_RE.match(rule_cls.code or ""):
        raise ValueError(
            f"rule {rule_cls.__name__} has invalid code {rule_cls.code!r}"
        )
    if rule_cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {rule_cls.code}")
    _REGISTRY[rule_cls.code] = rule_cls()
    return rule_cls


def _ensure_loaded() -> None:
    import repro.lint.rules  # noqa: F401  (import for side effect)


def all_rules() -> List[Rule]:
    _ensure_loaded()
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def get_rule(code: str) -> Rule:
    _ensure_loaded()
    return _REGISTRY[code]


def known_codes() -> List[str]:
    """Every code a rule can emit, sorted."""
    _ensure_loaded()
    return sorted(_REGISTRY)
