"""RPR1xx — determinism rules.

The step/schedule/run formalism (Section 2) makes a run a pure function of
(initial configuration, schedule, detector history, seed).  Prefix replay,
``--jobs N`` parity and the traced/untraced oracle all assume exactly
that.  These rules catch the patterns that break it:
ambient randomness, wall-clock and environment reads, iteration order
leaking out of unordered containers, and identity-based keys.

Each rule reports its *direct* sites (recognised by the facts pass) in the
modules it covers, and — for RPR101/102/103 — the *kernel boundary*: a
kernel-scope call whose callee in another module draws, reads or observes
the hazard, with an evidence chain of call hops down to the concrete
source line.  A boundary finding whose source is already a direct site is
dropped: one finding per defect.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.project.dataflow import (
    TAINT_EXEMPT,
    Chain,
    callee_param_index,
    chain_source,
    order_sink_params,
    taint_from,
)
from repro.lint.project.facts import GLOBAL_RANDOM_FNS
from repro.lint.project.graph import Project, module_of
from repro.lint.registry import KERNEL_PACKAGES, Rule, in_packages, register

Site = Tuple[str, int]  # (module, line)


def kernel_calls(project: Project):
    """``(fid, call, target)`` for every call site in kernel scope."""
    for fid in sorted(project.functions):
        if in_packages(module_of(fid), KERNEL_PACKAGES):
            for call, target in project.call_edges[fid]:
                yield fid, call, target


def _boundary_chain(
    target: Optional[str], taint: Dict[str, Chain], flagged: Set[Site]
) -> Optional[Chain]:
    """The taint chain of a callee outside kernel scope, unless its source
    is one of the rule's direct sites (already reported)."""
    if (
        target is None
        or target not in taint
        or in_packages(module_of(target), KERNEL_PACKAGES)
    ):
        return None
    chain = taint[target]
    return None if chain_source(chain) in flagged else chain


def _rng_binding(project: Project, fid: str, call: Dict[str, Any]) -> Optional[str]:
    """What an unresolved call draws, when its name resolves (through
    imports, re-exports or value bindings) into ``random``."""
    res = project.resolve(module_of(fid), call["callee"])
    if res is None or res[0] != "external":
        return None
    head, _, leaf = res[1].rpartition(".")
    if head != "random":
        return None
    if leaf in GLOBAL_RANDOM_FNS:
        return f"the global-RNG random.{leaf}"
    if leaf == "Random" and call.get("noseed"):
        return "an unseeded random.Random()"
    return None


@register
class GlobalRandomRule(Rule):
    """RPR101: the process-global ``random`` RNG is ambient state."""

    code = "RPR101"
    name = "global-random"
    summary = (
        "draws from the module-global random RNG (random.random(), "
        "random.choice(), from-imports of its functions) or an unseeded "
        "random.Random() — everywhere; plus kernel-scope calls reaching one "
        "through a binding or another module; draw from an explicitly "
        "seeded random.Random instead"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        flagged: Set[Site] = set()
        for facts, site in self.sites(project, "rng", "rng_imports"):
            flagged.add((facts.module, site["line"]))
            yield self.finding(
                facts,
                site,
                f"{site['detail']}; use an explicitly seeded random.Random",
            )

        def binding_source(fid: str) -> Optional[Dict[str, Any]]:
            for call, target in project.call_edges[fid]:
                what = None if target else _rng_binding(project, fid, call)
                if what:
                    return dict(call, detail=f"{call['callee']}() resolves to {what}")
            return None

        taint = taint_from(project, "rng", binding_source)
        for fid, call, target in kernel_calls(project):
            module = module_of(fid)
            facts = project.facts[module]
            if target is None:
                what = _rng_binding(project, fid, call)
                if what and (module, call["line"]) not in flagged:
                    yield self.finding(
                        facts,
                        call,
                        f"{call['callee']}() resolves to {what} through a "
                        f"cross-module binding; draw from an explicitly "
                        f"seeded random.Random",
                        evidence=[project.hop(fid, call, note=f"resolves to {what}")],
                    )
                continue
            chain = _boundary_chain(target, taint, flagged)
            if chain is not None:
                yield self.finding(
                    facts,
                    call,
                    f"{call['callee']}() transitively draws from the process-"
                    f"global RNG (source: {chain[-1]['module']}:"
                    f"{chain[-1]['line']}); kernel runs must be pure "
                    f"functions of (config, schedule, seed)",
                    evidence=[project.hop(fid, call, note="kernel boundary")] + chain,
                )


@register
class WallClockRule(Rule):
    """RPR102: wall clock / environment reads in replayed packages."""

    code = "RPR102"
    name = "wall-clock"
    summary = (
        "wall-clock, PID, or environment reads (time.time, datetime.now, "
        "os.environ, os.urandom, ...) inside the kernel-adjacent packages, "
        "or reached from them through calls into other modules; their runs "
        "must be pure functions of (config, schedule, seed)"
    )
    scope = KERNEL_PACKAGES

    def check(self, project: Project) -> Iterator[Finding]:
        flagged: Set[Site] = set()
        for facts, site in self.sites(project, "clock"):
            flagged.add((facts.module, site["line"]))
            yield self.finding(
                facts,
                site,
                f"{site['detail']}; kernel time is the logical step counter",
            )
        taint = taint_from(project, "clock")
        for fid, call, target in kernel_calls(project):
            chain = _boundary_chain(target, taint, flagged)
            if chain is None:
                continue
            yield self.finding(
                project.facts[module_of(fid)],
                call,
                f"{call['callee']}() transitively reads ambient state "
                f"({chain[-1].get('note') or 'wall clock'}; source: "
                f"{chain[-1]['module']}:{chain[-1]['line']}); kernel "
                f"time is the logical step counter",
                evidence=[project.hop(fid, call, note="kernel boundary")] + chain,
            )


@register
class UnorderedIterationRule(Rule):
    """RPR103: iteration order must never leak out of a set."""

    code = "RPR103"
    name = "unordered-iteration"
    summary = (
        "order-sensitive use (for, comprehension, list()/tuple(), .pop()) of "
        "an evident set or a bare .keys() without sorted(), in the kernel "
        "packages or in a callee they pass a set to; set order varies with "
        "hash seeding and insertion history, breaking replay and --jobs "
        "parity"
    )
    scope = KERNEL_PACKAGES

    def check(self, project: Project) -> Iterator[Finding]:
        flagged: Set[Site] = set()
        for facts, site in self.sites(project, "unordered"):
            flagged.add((facts.module, site["line"]))
            yield self.finding(
                facts,
                site,
                f"{site['detail']}: the order is arbitrary; iterate sorted(...) "
                f"(or use min()/max()) instead",
            )
        sinks = order_sink_params(project)
        for fid, call, target in kernel_calls(project):
            if target not in sinks or in_packages(module_of(target), TAINT_EXEMPT):
                continue
            for param, shape in callee_param_index(project, target, call):
                chain = sinks[target].get(param)
                if (
                    not shape.get("set")
                    or chain is None
                    or chain_source(chain) in flagged
                ):
                    continue
                yield self.finding(
                    project.facts[module_of(fid)],
                    call,
                    f"set passed into {call['callee']}({param}=...) has "
                    f"its iteration order observed at "
                    f"{chain[-1]['module']}:{chain[-1]['line']}; sort "
                    f"before the call or inside the sink",
                    evidence=[
                        project.hop(fid, call, note=f"evident set bound to '{param}'")
                    ]
                    + chain,
                )


@register
class IdentityOrderingRule(Rule):
    """RPR104: ``id()`` values depend on the allocator, not the model."""

    code = "RPR104"
    name = "identity-ordering"
    summary = (
        "id()-based ordering, keys, or hashing; object addresses vary "
        "between runs and interpreters, so any order or key derived from "
        "them is unreplayable"
    )
    scope = KERNEL_PACKAGES

    def check(self, project: Project) -> Iterator[Finding]:
        for facts, site in self.sites(project, "ids"):
            yield self.finding(
                facts,
                site,
                "id() exposes the allocator; derive ordering/keys from "
                "model data (pids, times, payloads) instead",
            )
