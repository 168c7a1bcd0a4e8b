"""Forward dataflow over the call graph: taint, cones, order-sink params.

Three fixpoints, all deterministic (BFS by rounds, sorted iteration, first
assignment wins) so every run reports byte-identical evidence chains:

* :func:`propagate_taint` — the caller-directed taint lattice.  A function
  is tainted when it contains a source site (global-RNG draw, wall-clock
  read, I/O, ...) or calls a tainted function.  Each tainted function
  carries an evidence chain of call hops down to the concrete source line.
* :func:`reachable_cone` — the callee-directed dependency cone of a set of
  entry points (sweep-task fns, experiment runners), with a call-hop path
  back to the registering root.
* :func:`order_sink_params` — a parameter-level summary: which parameters
  of which functions flow into order-fixing operations (for-loops,
  comprehensions, ``list()``/``tuple()``, ``.pop()``), directly or by being
  forwarded positionally/by-keyword into another function's order-sink
  parameter.

Chains are lists of hops (``Project.hop`` dicts); the first hop is nearest
the reporting site, the last is the concrete source.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.lint.project.graph import Project, module_of
from repro.lint.registry import in_packages

Hop = Dict[str, Any]
Chain = List[Hop]

#: Modules that never seed taint: the guarded observability layer (its
#: effects are delta-merged, not model state) and the linter itself.
TAINT_EXEMPT = ("repro.obs", "repro.lint")


def propagate_taint(
    project: Project, sources: Dict[str, Chain], max_rounds: int = 64
) -> Dict[str, Chain]:
    """Spread taint from ``sources`` (fid -> evidence chain) to callers.

    Returns ``{fid: chain}`` for every function that can reach a source
    through calls; chains grow one call hop per propagation round, so the
    chain kept for each function is a shortest one (ties broken by sorted
    fid order and call-site order, both deterministic).
    """
    taint: Dict[str, Chain] = {fid: list(chain) for fid, chain in sources.items()}
    round_of: Dict[str, int] = {fid: 0 for fid in taint}
    for current_round in range(1, max_rounds + 1):
        changed = False
        for fid in sorted(project.functions):
            if fid in taint:
                continue
            for call, target in project.call_edges.get(fid, []):
                if target is None or target == fid:
                    continue
                if round_of.get(target, max_rounds + 1) < current_round:
                    hop = project.hop(
                        fid, call, note=f"calls {call['callee']} (tainted)"
                    )
                    taint[fid] = [hop] + taint[target]
                    round_of[fid] = current_round
                    changed = True
                    break
        if not changed:
            break
    return taint


def taint_from(
    project: Project,
    kind: str,
    fallback: Optional[Callable[[str], Optional[Hop]]] = None,
) -> Dict[str, Chain]:
    """Taint seeded at each function's first ``kind`` site (or, without one,
    at the site ``fallback(fid)`` names), spread to its callers."""
    sources: Dict[str, Chain] = {}
    for fid in sorted(project.functions):
        if in_packages(module_of(fid), TAINT_EXEMPT):
            continue
        sites = project.functions[fid][kind]
        site = sites[0] if sites else (fallback(fid) if fallback else None)
        if site is not None:
            sources[fid] = [project.hop(fid, site)]
    return propagate_taint(project, sources)


def reachable_cone(
    project: Project, roots: Dict[str, Hop], max_rounds: int = 64
) -> Dict[str, Chain]:
    """The callee closure of ``roots`` (fid -> registration-site hop).

    Returns ``{fid: chain}`` where the chain walks from the root's
    registration site through call hops down to ``fid``.  Roots map to a
    single-hop chain (their registration site).
    """
    cone: Dict[str, Chain] = {fid: [hop] for fid, hop in sorted(roots.items())}
    round_of: Dict[str, int] = {fid: 0 for fid in cone}
    for current_round in range(1, max_rounds + 1):
        changed = False
        for fid in sorted(round_of):
            if round_of[fid] != current_round - 1:
                continue
            for call, target in project.call_edges.get(fid, []):
                if target is None or target in cone:
                    continue
                hop = project.hop(fid, call, note=f"calls {call['callee']}")
                cone[target] = cone[fid] + [hop]
                round_of[target] = current_round
                changed = True
        if not changed:
            break
    return cone


def chain_source(chain: Chain) -> Tuple[str, int]:
    """(module, line) of a chain's concrete source site (its last hop)."""
    return (chain[-1]["module"], chain[-1]["line"])


def root_note(chain: Chain) -> str:
    """How a cone chain's root was registered (its first hop)."""
    first = chain[0]
    return first.get("note") or f"{first['module']}:{first['line']}"


def callee_param_index(
    project: Project, target: str, call: Dict[str, Any]
) -> List[Tuple[str, Dict[str, Any]]]:
    """``[(callee_param_name, arg_shape)]`` pairs for one resolved call."""
    params = list(project.functions[target].get("params", []))
    target_qual = target.split(":", 1)[1]
    if "." in target_qual and params and params[0] in ("self", "cls"):
        params = params[1:]
    out: List[Tuple[str, Dict[str, Any]]] = []
    for i, shape in enumerate(call.get("args", [])):
        if shape and i < len(params):
            out.append((params[i], shape))
    for kw, shape in sorted(call.get("kwargs", {}).items()):
        if shape and kw in params:
            out.append((kw, shape))
    return out


def order_sink_params(
    project: Project, max_rounds: int = 64
) -> Dict[str, Dict[str, Chain]]:
    """Which parameters eventually have their iteration order observed?

    Returns ``{fid: {param: chain}}``.  Directly order-fixing parameters
    (recorded per-file in ``order_params`` facts) seed the fixpoint; a
    parameter forwarded by name into an order-sink parameter of a resolved
    callee becomes a sink itself, with the forwarding call prepended to the
    chain.
    """
    sinks: Dict[str, Dict[str, Chain]] = {}
    for fid in sorted(project.functions):
        direct = project.functions[fid].get("order_params", {})
        if direct:
            sinks[fid] = {
                param: [project.hop(fid, site)]
                for param, site in sorted(direct.items())
            }
    for _ in range(max_rounds):
        changed = False
        for fid in sorted(project.functions):
            params = set(project.functions[fid].get("params", []))
            if not params:
                continue
            own = sinks.setdefault(fid, {})
            for call, target in project.call_edges.get(fid, []):
                if target is None or target not in sinks or target == fid:
                    continue
                for callee_param, shape in callee_param_index(
                    project, target, call
                ):
                    name = shape.get("name")
                    if (
                        name in params
                        and name not in own
                        and callee_param in sinks[target]
                    ):
                        hop = project.hop(
                            fid,
                            call,
                            note=(
                                f"forwards '{name}' into "
                                f"{call['callee']}({callee_param}=...)"
                            ),
                        )
                        own[name] = [hop] + sinks[target][callee_param]
                        changed = True
            if not own:
                sinks.pop(fid, None)
        if not changed:
            break
    return sinks
