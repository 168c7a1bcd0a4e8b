"""RPR2xx — model-fidelity rules.

The paper's algorithms are I/O automata: a step reads one observation,
updates local state, and emits sends — nothing else.  RPR201 holds every
``Automaton``/``Process`` subclass to that contract, wherever its ancestry
is found (class-hierarchy analysis across modules), both in its own
methods and through the functions they call in other modules.
"""

from __future__ import annotations

from typing import Iterator, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.project.dataflow import chain_source, taint_from
from repro.lint.project.graph import Project
from repro.lint.registry import Rule, register


@register
class AutomatonPurityRule(Rule):
    """RPR201: automaton steps are pure — no I/O, no module globals."""

    code = "RPR201"
    name = "automaton-purity"
    summary = (
        "Automaton/Process subclass methods (ancestry resolved across "
        "modules) performing I/O (print/open/input, sys.stdout), writing "
        "module globals or declaring them global, or calling into functions "
        "that transitively perform I/O; steps must be pure functions of "
        "(state, observation) or replay and merging break"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        methods = [
            f"{cid}.{method}"
            for cid in sorted(project.automaton_classes)
            for method in project.classes[cid]["methods"]
        ]
        flagged: Set[Tuple[str, int]] = set()
        for fid in methods:
            module, owner = fid.split(":", 1)
            facts = project.facts[module]
            fn = project.functions[fid]
            for site in fn["io"]:
                flagged.add((module, site["line"]))
                yield self.finding(
                    facts,
                    site,
                    f"{owner} {site['detail']}; automaton steps must not "
                    f"perform I/O",
                )
            for site in fn["globals"]:
                flagged.add((module, site["line"]))
                yield self.finding(
                    facts,
                    site,
                    f"{owner} rebinds module globals ({site['detail']}); keep "
                    f"all mutable state in the automaton state object",
                )
            for site in fn["gwrites"]:
                if site.get("rebind"):
                    continue  # reported at its ``global`` statement
                flagged.add((module, site["line"]))
                yield self.finding(
                    facts,
                    site,
                    f"{owner} mutates module-level '{site['name']}' "
                    f"({site['detail']}); automaton state must live in the "
                    f"state object",
                )

        io_taint = taint_from(project, "io")
        for fid in methods:
            module, owner = fid.split(":", 1)
            for call, target in project.call_edges[fid]:
                if target is None or target not in io_taint or target in methods:
                    continue  # a callee method gets its own direct finding
                chain = io_taint[target]
                if chain_source(chain) in flagged:
                    continue
                yield self.finding(
                    project.facts[module],
                    call,
                    f"{owner} calls {call['callee']}() which transitively "
                    f"performs I/O "
                    f"(source: {chain[-1]['module']}:{chain[-1]['line']}); "
                    f"automaton steps must not perform I/O",
                    evidence=[project.hop(fid, call, note="automaton method")]
                    + chain,
                )
