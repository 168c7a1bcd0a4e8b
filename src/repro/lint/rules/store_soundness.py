"""RPR5xx — store-signature soundness rules.

``repro.store`` decides "this row need not re-run" by hashing the *static*
import closure of the task function's module
(:mod:`repro.store.signature`).  That is sound exactly as long as the code
a task executes is the code the AST can see.  RPR501 flags dynamic code
loading (``importlib.import_module``, ``__import__``, ``exec``/``eval``,
``getattr(module, <computed>)`` dispatch) reachable from a store-keyed
entry point: the loaded module's source is invisible to the signature, so
editing it leaves every dependent row a (stale) cache hit.  Each finding
names the poisonable entry point and carries the call path to the dynamic
site.

The paired test in ``tests/lint/test_store_soundness.py`` demonstrates the
hole end-to-end: a dynamically-imported plugin is edited, the signature
stays identical, the store serves a stale hit — and RPR501 flags the
import site.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.project.dataflow import reachable_cone, root_note
from repro.lint.project.facts import MODULE_SCOPE
from repro.lint.project.graph import Project, module_of
from repro.lint.registry import Rule, register


@register
class DynamicImportInConeRule(Rule):
    """RPR501: dynamic code loading inside a store-keyed dependency cone."""

    code = "RPR501"
    name = "dynamic-import-in-cone"
    summary = (
        "__import__/importlib/exec/eval/getattr-module-dispatch reachable "
        "from a store-keyed sweep entry point: the loaded code is outside "
        "repro.store.signature's static import closure, so editing it "
        "leaves every dependent row a (stale) cache hit"
    )
    #: the linter imports its own rule modules; it is no store-keyed code
    exempt = ("repro.lint",)

    def check(self, project: Project) -> Iterator[Finding]:
        cone = reachable_cone(project, project.sweep_entry_points())
        # Module bodies run on worker import, inside the same signature.
        for module in sorted({module_of(fid) for fid in cone}):
            fid = f"{module}:{MODULE_SCOPE}"
            if fid in project.functions and fid not in cone:
                cone[fid] = [
                    {
                        "path": project.facts[module].path,
                        "module": module,
                        "function": MODULE_SCOPE,
                        "line": 1,
                        "snippet": "",
                        "note": f"import-time code of worker module {module}",
                    }
                ]
        for fid in sorted(cone):
            module = module_of(fid)
            fn = project.functions.get(fid)
            if fn is None or not self.applies_to(module):
                continue
            chain = cone[fid]
            for site in fn["dynamic"]:
                yield self.finding(
                    project.facts[module],
                    site,
                    f"{site['detail']} is reachable from store-keyed entry "
                    f"point ({root_note(chain)}); the loaded code escapes the "
                    f"store's import-closure signature — import statically or "
                    f"key the store on the loaded source explicitly",
                    evidence=chain + [project.hop(fid, site)],
                )
