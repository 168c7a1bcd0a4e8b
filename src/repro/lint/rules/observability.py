"""RPR3xx — observability hygiene.

The tracing layer is sound because every instrumentation site is guarded
by the ``obs._ENABLED`` module flag: with tracing off the hot paths execute
zero extra work, and the traced/untraced oracle tests prove bit-identical
runs.  An unguarded ``obs.metrics()`` / ``obs.tracer()`` call erodes both
properties one site at a time — this rule keeps the idiom mechanical.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.registry import Rule, register


@register
class GuardedInstrumentationRule(Rule):
    """RPR301: obs calls must sit behind the ``_ENABLED`` flag."""

    code = "RPR301"
    name = "guarded-instrumentation"
    summary = (
        "obs.metrics()/obs.tracer() call not guarded by the _ENABLED module "
        "flag (enclosing `if <alias>._ENABLED:` or an early bail-out); "
        "unguarded sites tax the hot path and can skew traced-vs-untraced "
        "equivalence"
    )
    scope = ("repro",)
    #: the obs package itself and the linter are not instrumented code
    exempt = ("repro.obs", "repro.lint")

    def check(self, project) -> Iterator[Finding]:
        for facts, site in self.sites(project, "obs"):
            alias = site["alias"]
            yield self.finding(
                facts,
                site,
                f"unguarded {site['detail']} instrumentation; wrap the site in "
                f"`if {alias}._ENABLED:` (or bail out early) so untraced runs "
                f"pay zero overhead",
            )
