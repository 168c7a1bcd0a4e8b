"""Bounded exhaustive exploration of tiny systems (model-checking flavour).

Sampled runs (the harness) cover many schedules of big-ish systems; this
module covers *all* schedules of tiny ones, up to a step bound: from the
initial configuration, branch over every enabled step — each alive process
times each pending message for it (plus lambda) — and check a safety
invariant in every reachable configuration.

Configurations are deduplicated by a canonical digest (process-state
snapshots + multiset of pending messages), which collapses the many
interleavings that lead to the same configuration and keeps small instances
tractable.  Detector values are taken from a time-indexed history like
everywhere else; the exploration clock advances one tick per step, exactly
as in the live system.

This is *bounded* checking: it proves safety of every run prefix up to
``max_depth`` steps, not of infinite runs — the right tool for agreement
and validity (violations are finitely witnessed), not for termination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.kernel.automaton import Automaton, DeliveredMessage
from repro.kernel.failures import FailurePattern
from repro import obs as _obs

HistoryFn = Callable[[int, int], Any]


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


class _LiveState:
    """A mutable exploration state: automaton states + pending messages."""

    __slots__ = ("states", "pending", "seq", "time")

    def __init__(self, states, pending, seq, time):
        self.states = states  # dict pid -> state
        self.pending = pending  # list of Message-like tuples
        self.seq = seq  # dict pid -> next send seq
        self.time = time


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
    digest, so equivalent interleavings are visited once.  Successor
    configurations copy only the stepping process's state (transitions may
    mutate in place; the others are shared by reference).
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

    def initial() -> _LiveState:
        states = {
            p: automaton.initial_state(p, n, proposals[p]) for p in range(n)
        }
        return _LiveState(states=states, pending=[], seq={}, time=0)

    def digest(state: _LiveState) -> Tuple:
        # repr-normalize snapshots: automaton states may embed unhashable
        # structures (dict-valued message payloads); equal reprs collapse
        # equal configurations, unequal ones merely cost extra exploration.
        snaps = tuple(
            repr(automaton.snapshot(state.states[p])) for p in range(n)
        )
        msgs = tuple(
            sorted((m[0], m[1], repr(m[2])) for m in state.pending)
        )
        return (snaps, msgs, state.time)

    def successors(state: _LiveState):
        alive = [p for p in range(n) if pattern.is_alive(p, state.time)]
        for pid in alive:
            choices: List[Optional[int]] = [None]
            for i, (sender, dest, payload) in enumerate(state.pending):
                if dest == pid:
                    choices.append(i)
            for choice in choices:
                yield pid, choice

    def apply(state: _LiveState, pid: int, choice: Optional[int]) -> _LiveState:
        # Only the stepping process's state can change; copy it (transition
        # may mutate in place) and share the rest by reference.
        states = dict(state.states)
        states[pid] = automaton.copy_state(states[pid])
        new = _LiveState(
            states=states,
            pending=list(state.pending),
            seq=dict(state.seq),
            time=state.time + 1,
        )
        delivered = None
        if choice is not None:
            sender, dest, payload = new.pending.pop(choice)
            delivered = DeliveredMessage(sender, payload)
        d = history(pid, state.time)
        outcome = automaton.transition(new.states[pid], pid, delivered, d)
        new.states[pid] = outcome.state
        for dest, payload in outcome.sends:
            new.pending.append((pid, dest, payload))
        return new

    def decisions_of(state: _LiveState) -> Dict[int, Any]:
        found = {}
        for p in range(n):
            value = automaton.decision(state.states[p])
            if value is not None:
                found[p] = value
        return found

    root = initial()
    seen: Set[Tuple] = {digest(root)}
    configurations = 1
    transitions = 0
    truncated = False

    stack: List[Tuple[_LiveState, int, List[str]]] = [(root, 0, [])]
    while stack:
        state, depth, trace = stack.pop()
        problem = invariant(decisions_of(state), _MessageView(state.pending))
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
        for pid, choice in successors(state):
            transitions += 1
            nxt = apply(state, pid, choice)
            key = digest(nxt)
            if key in seen:
                continue
            if configurations >= max_configs:
                truncated = True
                continue
            seen.add(key)
            configurations += 1
            label = f"p{pid}:" + ("λ" if choice is None else f"m{choice}")
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
        return [payload for _, _, payload in self._pending]


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
