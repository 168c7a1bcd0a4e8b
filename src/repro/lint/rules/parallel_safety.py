"""RPR4xx — fork/parallel-safety rules.

``run_sweep --jobs N`` forks workers and assumes worker code leaves *no
trace in module-level state*: results cross the fork boundary by return
value, and observability crosses it through the obs delta-shipping
protocol (workers return registry deltas, the parent merges them in task
order).  RPR401 checks exactly that, over the dependency cone of the real
worker entry points (``SweepTask`` fn registrations and the ``exp<N>``
experiment runners): mutable module-global state written by any function
reachable from one lands in a short-lived child under ``--jobs N`` and
silently diverges from serial runs.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.project.dataflow import reachable_cone, root_note
from repro.lint.project.graph import Project, module_of
from repro.lint.registry import Rule, register


@register
class ForkGlobalStateRule(Rule):
    """RPR401: worker-reachable writes to module-global state."""

    code = "RPR401"
    name = "fork-global-state"
    summary = (
        "module-global state mutated by a function reachable from a sweep "
        "worker entry point (SweepTask fn / experiment runner) without a "
        "merge path: under --jobs N the write dies with the forked child "
        "and serial vs parallel runs silently diverge"
    )
    #: the delta-shipping protocol's own machinery
    exempt = ("repro.obs", "repro.harness.parallel", "repro.lint")

    def check(self, project: Project) -> Iterator[Finding]:
        cone = reachable_cone(project, project.sweep_entry_points())
        for fid in sorted(cone):
            module = module_of(fid)
            fn = project.functions.get(fid)
            if fn is None or not self.applies_to(module):
                continue
            chain = cone[fid]
            for site in fn["gwrites"]:
                yield self.finding(
                    project.facts[module],
                    site,
                    f"{site['detail']} inside worker-reachable code "
                    f"({root_note(chain)}); forked workers drop this state — "
                    f"return it and merge parent-side instead",
                    evidence=chain + [project.hop(fid, site)],
                )
