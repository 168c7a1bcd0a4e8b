"""RPR4xx — fork/parallel-safety rules.

``run_sweep --jobs N`` forks workers and assumes worker code leaves *no
trace in module-level state*: results cross the fork boundary by return
value, and observability crosses it through the obs delta-shipping
protocol (workers return registry deltas, the parent merges them in task
order — the only sanctioned mutation path).  These rules check exactly
that, over the dependency cone of the real worker entry points
(``SweepTask`` fn registrations and the ``exp<N>`` experiment runners):

* RPR401 — mutable module-global state written by any function reachable
  from a worker entry point: under ``--jobs N`` the write lands in a
  short-lived child and silently diverges from serial runs.
* RPR402 — lambdas/closures registered as sweep-task fns: they cannot
  cross the fork boundary (unpicklable) and capture state with no merge
  semantics.
* RPR403 — obs registry writes outside the delta-shipping protocol
  (``merge``/``reset`` or private-table access outside ``repro.obs`` and
  the sweep driver): merging is the parent's job, in task order, once.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Tuple

from repro.lint.findings import Finding
from repro.lint.project.dataflow import reachable_cone
from repro.lint.project.graph import (
    Project,
    in_packages,
    is_run_sweep,
    is_sweep_task_ctor,
)
from repro.lint.registry import ProjectRule, register_project

#: The delta-shipping protocol's own machinery: the only modules allowed to
#: touch registries and (for the driver) module state around a fork.
PROTOCOL_MODULES = ("repro.obs", "repro.harness.parallel", "repro.lint")


def _protocol(module: str) -> bool:
    return in_packages(module, PROTOCOL_MODULES)


def _root_note(chain: List[Dict[str, Any]]) -> str:
    first = chain[0]
    return first.get("note") or f"{first.get('module', '?')}:{first.get('line', '?')}"


@register_project
class ForkGlobalStateRule(ProjectRule):
    """RPR401: worker-reachable writes to module-global state."""

    code = "RPR401"
    name = "fork-global-state"
    summary = (
        "module-global state mutated by a function reachable from a sweep "
        "worker entry point (SweepTask fn / experiment runner) without a "
        "merge path: under --jobs N the write dies with the forked child "
        "and serial vs parallel runs silently diverge"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        cone = reachable_cone(project, project.sweep_entry_points())
        for fid in sorted(cone):
            module = fid.split(":", 1)[0]
            if _protocol(module):
                continue
            fn = project.functions.get(fid)
            if fn is None:
                continue
            chain = cone[fid]
            for site in fn.get("gwrites", []):
                yield project.make_finding(
                    self,
                    module,
                    site,
                    f"{site.get('detail', 'module-global write')} inside "
                    f"worker-reachable code ({_root_note(chain)}); forked "
                    f"workers drop this state — return it and merge "
                    f"parent-side instead",
                    evidence=chain + [project.hop(fid, site)],
                )


@register_project
class UnmergeableClosureRule(ProjectRule):
    """RPR402: closures registered as parallel work units."""

    code = "RPR402"
    name = "unmergeable-closure"
    summary = (
        "lambda or locally-defined closure registered as a SweepTask fn or "
        "passed to run_sweep: it cannot cross the fork boundary (pickle) "
        "and anything it captures has no mergeable semantics — use a "
        "module-level function taking explicit kwargs"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for fid in sorted(project.functions):
            module = fid.split(":", 1)[0]
            for call, _target in project.call_edges.get(fid, []):
                res = project.resolve(module, call["callee"])
                if not (is_sweep_task_ctor(res) or is_run_sweep(res)):
                    continue
                shapes: List[Tuple[str, Dict[str, Any]]] = [
                    (f"positional #{i}", shape)
                    for i, shape in enumerate(call.get("args", []))
                ]
                shapes += sorted(call.get("kwargs", {}).items())
                for label, shape in shapes:
                    closure = shape.get("closure")
                    if not closure:
                        continue
                    what = (
                        "a lambda"
                        if closure == "<lambda>"
                        else f"locally-defined '{closure}'"
                    )
                    yield project.make_finding(
                        self,
                        module,
                        call,
                        f"{call['callee']}({label}={closure}) registers "
                        f"{what} as parallel work; closures cannot cross "
                        f"the fork boundary — use a module-level function",
                        evidence=[project.hop(fid, call)],
                    )


@register_project
class ObsOutOfBandRule(ProjectRule):
    """RPR403: obs registry mutation outside the delta-shipping protocol."""

    code = "RPR403"
    name = "obs-oob-write"
    summary = (
        "metrics-registry merge()/reset() or private-table access outside "
        "repro.obs and the sweep driver: deltas are merged by the parent, "
        "in task order, exactly once — out-of-band writes double-count or "
        "drop counters under --jobs N"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for fid in sorted(project.functions):
            module = fid.split(":", 1)[0]
            if _protocol(module):
                continue
            fn = project.functions.get(fid)
            for site in fn.get("obs_oob", []):
                yield project.make_finding(
                    self,
                    module,
                    site,
                    f"{site.get('detail', 'registry write')} outside the "
                    f"delta-shipping protocol; only repro.obs and the sweep "
                    f"driver may merge/reset registries",
                    evidence=[project.hop(fid, site)],
                )
