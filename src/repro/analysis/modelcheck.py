"""Bounded exhaustive exploration of tiny systems (model-checking flavour).

Sampled runs (the harness) cover many schedules of big-ish systems; this
module covers *all* schedules of tiny ones, up to a step bound: from the
initial configuration, branch over every enabled step — each alive process
times each pending message for it (plus lambda) — and check a safety
invariant in every reachable configuration.

A configuration is a :class:`~repro.kernel.runs.PureSystemSimulator`, and
a successor is its :meth:`~repro.kernel.runs.PureSystemSimulator.fork`
plus one ``apply_step``; the fork's copy-on-write rule means a successor
copies only the stepping process's state.  Configurations are
deduplicated by a canonical digest (process-state snapshots + multiset of
pending messages + clock), which collapses the many interleavings that
lead to the same configuration and keeps small instances tractable.
Detector values are taken from a time-indexed history like everywhere
else; the exploration clock is the simulator's ``steps_applied``, one tick
per step, exactly as in the live system.

This is *bounded* checking: it proves safety of every run prefix up to
``max_depth`` steps, not of infinite runs — the right tool for agreement
and validity (violations are finitely witnessed), not for termination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.kernel.automaton import Automaton
from repro.kernel.failures import FailurePattern
from repro.kernel.runs import HistoryFn, PureSystemSimulator
from repro.kernel.steps import Step
from repro import obs as _obs


@dataclass
class Violation:
    """A reachable configuration breaking the invariant."""

    depth: int
    trace: List[str]
    detail: str


@dataclass
class ExplorationReport:
    """Outcome of one bounded exploration."""

    configurations: int
    transitions: int
    max_depth: int
    truncated: bool
    violation: Optional[Violation] = None

    @property
    def ok(self) -> bool:
        return self.violation is None

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"VIOLATION@{self.violation.depth}"
        return (
            f"ExplorationReport({status}, configs={self.configurations}, "
            f"transitions={self.transitions}, depth<={self.max_depth})"
        )


def explore(
    automaton: Automaton,
    pattern: FailurePattern,
    proposals: Mapping[int, Any],
    history: HistoryFn,
    invariant: Callable[[Dict[int, Any], "_MessageView"], Optional[str]],
    max_depth: int = 8,
    max_configs: int = 200_000,
) -> ExplorationReport:
    """Explore every schedule prefix up to ``max_depth`` steps.

    ``invariant(decisions, view)`` receives the per-process decision map and
    a read-only view of the configuration; returning a string marks a
    violation (the string is the explanation), ``None`` means fine.

    Exploration is depth-first with global deduplication on a configuration
    digest, so equivalent interleavings are visited once.  Each process
    steps first with lambda, then once per message pending for it, in send
    order; trace labels name the message by its index in the pending
    buffer (``p1:m2``).
    """
    if not _obs._ENABLED:
        return _explore_impl(
            automaton, pattern, proposals, history, invariant,
            max_depth, max_configs,
        )
    with _obs.tracer().span(
        "modelcheck.explore", n=pattern.n, max_depth=max_depth
    ) as span:
        report = _explore_impl(
            automaton, pattern, proposals, history, invariant,
            max_depth, max_configs,
        )
        span.set(
            configurations=report.configurations,
            transitions=report.transitions,
            truncated=report.truncated,
            ok=report.ok,
        )
        reg = _obs.metrics()
        reg.inc("modelcheck.explorations")
        reg.inc("modelcheck.configurations", report.configurations)
        reg.inc("modelcheck.transitions", report.transitions)
        return report


def _explore_impl(
    automaton: Automaton,
    pattern: FailurePattern,
    proposals: Mapping[int, Any],
    history: HistoryFn,
    invariant: Callable[[Dict[int, Any], "_MessageView"], Optional[str]],
    max_depth: int = 8,
    max_configs: int = 200_000,
) -> ExplorationReport:
    n = pattern.n

    def digest(sim: PureSystemSimulator) -> Tuple:
        # repr-normalize snapshots: automaton states may embed unhashable
        # structures (dict-valued message payloads); equal reprs collapse
        # equal configurations, unequal ones merely cost extra exploration.
        snaps = tuple(repr(sim.snapshot(p)) for p in range(n))
        msgs = tuple(
            sorted((m.sender, m.dest, repr(m.payload)) for m in sim.pending.values())
        )
        return (snaps, msgs, sim.steps_applied)

    def successors(sim: PureSystemSimulator):
        t = sim.steps_applied
        for pid in range(n):
            if not pattern.is_alive(pid, t):
                continue
            d = history(pid, t)
            yield None, Step(pid, None, d)
            for i, (uid, message) in enumerate(sim.pending.items()):
                if message.dest == pid:
                    yield i, Step(pid, uid, d)

    root = PureSystemSimulator(automaton, n, proposals)
    seen: Set[Tuple] = {digest(root)}
    configurations = 1
    transitions = 0
    truncated = False

    stack: List[Tuple[PureSystemSimulator, int, List[str]]] = [(root, 0, [])]
    while stack:
        sim, depth, trace = stack.pop()
        problem = invariant(sim.decided_pids(), _MessageView(sim.pending.values()))
        if problem is not None:
            return ExplorationReport(
                configurations=configurations,
                transitions=transitions,
                max_depth=max_depth,
                truncated=truncated,
                violation=Violation(depth=depth, trace=trace, detail=problem),
            )
        if depth >= max_depth:
            continue
        for choice, step in successors(sim):
            transitions += 1
            nxt = sim.fork()
            nxt.apply_step(step, time=sim.steps_applied)
            key = digest(nxt)
            if key in seen:
                continue
            if configurations >= max_configs:
                truncated = True
                continue
            seen.add(key)
            configurations += 1
            label = f"p{step.pid}:" + ("λ" if choice is None else f"m{choice}")
            stack.append((nxt, depth + 1, trace + [label]))

    return ExplorationReport(
        configurations=configurations,
        transitions=transitions,
        max_depth=max_depth,
        truncated=truncated,
    )


class _MessageView:
    """Read-only view of pending messages for invariants."""

    def __init__(self, pending):
        self._pending = tuple(pending)

    def __len__(self) -> int:
        return len(self._pending)

    def payloads(self) -> List[Any]:
        return [message.payload for message in self._pending]


# ----------------------------------------------------------------------
# Ready-made invariants
# ----------------------------------------------------------------------


def agreement_invariant(correct: FrozenSet[int], uniform: bool = False):
    """No two (correct) deciders disagree."""

    def check(decisions: Dict[int, Any], view) -> Optional[str]:
        relevant = {
            p: v
            for p, v in decisions.items()
            if uniform or p in correct
        }
        values = set(relevant.values())
        if len(values) > 1:
            return f"deciders disagree: {relevant}"
        return None

    return check


def validity_invariant(proposed: FrozenSet[Any]):
    """Every decided value was proposed."""

    def check(decisions: Dict[int, Any], view) -> Optional[str]:
        for p, v in decisions.items():
            if v not in proposed:
                return f"process {p} decided unproposed value {v!r}"
        return None

    return check


def conjoin(*invariants):
    def check(decisions, view) -> Optional[str]:
        for invariant in invariants:
            problem = invariant(decisions, view)
            if problem is not None:
                return problem
        return None

    return check
