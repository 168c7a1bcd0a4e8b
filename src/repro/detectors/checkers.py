"""Independent property checkers for detector histories.

Each checker takes a history (synthetic or recorded from a run), a failure
pattern, and a finite horizon, and verifies the detector's defining
properties over that horizon.  Eventual properties ("there is a time after
which ...") are finitized: the checker locates the stabilization time and
fails if the property has not stabilized strictly before the horizon.

The checkers deliberately share no code with the history generators or the
transformation algorithms — they are the other side of every differential
test in this repository.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.detectors.base import History, RecordedHistory, ScheduleHistory
from repro.kernel.failures import FailurePattern


@dataclass
class CheckResult:
    """Outcome of one property check."""

    detector: str
    ok: bool
    violations: List[str] = field(default_factory=list)
    stabilization_time: Optional[int] = None
    details: Dict[str, Any] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"FAIL({len(self.violations)})"
        return f"CheckResult({self.detector}: {status}, stab={self.stabilization_time})"


# ----------------------------------------------------------------------
# History segment extraction
# ----------------------------------------------------------------------


def segments(history: History, p: int, horizon: int) -> List[Tuple[int, Any]]:
    """The piecewise-constant segments of ``H(p, .)`` over ``[0, horizon]``.

    Returns ``(from_time, value)`` pairs.  Structured histories expose their
    breakpoints; arbitrary histories are sampled at every time step.
    """
    if isinstance(history, ScheduleHistory):
        return [
            (t, v) for t, v in history.breakpoints_of(p) if t <= horizon
        ]
    if isinstance(history, RecordedHistory):
        result: List[Tuple[int, Any]] = []
        try:
            result.append((0, history.value(p, 0)))
        except KeyError:
            pass
        for t, v in history.events_of(p):
            if 0 < t <= horizon:
                result.append((t, v))
        return result
    # Fallback: sample densely with run-length compression.
    result = []
    last: Any = object()
    for t in range(horizon + 1):
        v = history.value(p, t)
        if v != last:
            result.append((t, v))
            last = v
    return result


def _values_with_times(
    history: History, p: int, horizon: int
) -> List[Tuple[int, Any]]:
    return segments(history, p, horizon)


# ----------------------------------------------------------------------
# Omega
# ----------------------------------------------------------------------


def check_omega(
    history: History, pattern: FailurePattern, horizon: int
) -> CheckResult:
    """Check the leader property of Omega over ``[0, horizon]``.

    There must be a correct process ``l`` and a time ``t < horizon`` such
    that every correct process outputs ``l`` at all times in
    ``(t, horizon]``.
    """
    result = CheckResult(detector="Omega", ok=True)
    correct = sorted(pattern.correct)
    if not correct:
        result.details["vacuous"] = True
        return result

    finals = {q: history.value(q, horizon) for q in correct}
    leaders = set(finals.values())
    if len(leaders) != 1:
        result.ok = False
        result.violations.append(
            f"correct processes disagree on the eventual leader at the "
            f"horizon: {finals}"
        )
        return result
    (leader,) = leaders
    if leader not in pattern.correct:
        result.ok = False
        result.violations.append(
            f"eventual leader {leader} is faulty (correct={correct})"
        )
        return result

    # The stabilization time is the start of the last all-leader suffix,
    # computed from the segment structure.
    last_bad = -1
    for q in correct:
        segs = _values_with_times(history, q, horizon)
        for i, (t, v) in enumerate(segs):
            if v != leader:
                end = segs[i + 1][0] - 1 if i + 1 < len(segs) else horizon
                last_bad = max(last_bad, end)
    if last_bad >= horizon:
        result.ok = False
        result.violations.append(
            "a correct process still outputs a non-leader value at the horizon"
        )
    result.stabilization_time = last_bad + 1
    result.details["leader"] = leader
    return result


def check_eventually_perfect(
    history: History, pattern: FailurePattern, horizon: int
) -> CheckResult:
    """Check <>P over ``[0, horizon]``: values are suspect *sets*.

    * Strong completeness (finitized): at the horizon every correct process
      permanently suspects every faulty process.
    * Eventual accuracy (finitized): at the horizon no correct process
      suspects a correct process.

    The stabilization time is the start of the last suffix on which both
    clauses hold at every correct process.
    """
    result = CheckResult(detector="<>P", ok=True)
    correct = sorted(pattern.correct)
    if not correct:
        result.details["vacuous"] = True
        return result

    def bad(suspects: FrozenSet[int]) -> bool:
        suspects = frozenset(suspects)
        return not (
            pattern.faulty <= suspects and not (suspects & pattern.correct)
        )

    for q in correct:
        final = frozenset(history.value(q, horizon))
        missing = sorted(pattern.faulty - final)
        if missing:
            result.ok = False
            result.violations.append(
                f"completeness: correct process {q} does not suspect the "
                f"crashed processes {missing} at the horizon"
            )
        wrongly = sorted(final & pattern.correct)
        if wrongly:
            result.ok = False
            result.violations.append(
                f"accuracy: correct process {q} still suspects the correct "
                f"processes {wrongly} at the horizon"
            )

    last_bad = -1
    for q in correct:
        segs = _values_with_times(history, q, horizon)
        for i, (t, v) in enumerate(segs):
            if bad(v):
                end = segs[i + 1][0] - 1 if i + 1 < len(segs) else horizon
                last_bad = max(last_bad, end)
    result.stabilization_time = last_bad + 1
    return result


# ----------------------------------------------------------------------
# Quorum detectors
# ----------------------------------------------------------------------


def _quorum_values(
    history: History,
    pattern: FailurePattern,
    horizon: int,
    processes: Sequence[int],
) -> Dict[int, List[Tuple[int, FrozenSet[int]]]]:
    return {
        p: [(t, frozenset(v)) for t, v in _values_with_times(history, p, horizon)]
        for p in processes
    }


def _check_completeness(
    result: CheckResult,
    per_process: Dict[int, List[Tuple[int, FrozenSet[int]]]],
    pattern: FailurePattern,
    horizon: int,
) -> None:
    """Eventually, quorums of correct processes contain only correct
    processes.  Sets ``result.stabilization_time`` and appends violations."""
    last_bad = -1
    for p in pattern.correct:
        segs = per_process.get(p, [])
        for i, (t, quorum) in enumerate(segs):
            if not quorum <= pattern.correct:
                end = segs[i + 1][0] - 1 if i + 1 < len(segs) else horizon
                last_bad = max(last_bad, end)
    if last_bad >= horizon:
        result.ok = False
        result.violations.append(
            "completeness: a correct process still outputs a quorum with "
            "faulty members at the horizon"
        )
    result.stabilization_time = last_bad + 1


def check_sigma(
    history: History, pattern: FailurePattern, horizon: int
) -> CheckResult:
    """Check Sigma: (uniform) intersection + completeness."""
    result = CheckResult(detector="Sigma", ok=True)
    everyone = list(pattern.processes)
    per_process = _quorum_values(history, pattern, horizon, everyone)

    all_quorums: List[Tuple[int, int, FrozenSet[int]]] = []
    for p, segs in per_process.items():
        for t, q in segs:
            all_quorums.append((p, t, q))
    distinct = {}
    for p, t, q in all_quorums:
        distinct.setdefault(q, (p, t))
    quorum_list = list(distinct.items())
    for i in range(len(quorum_list)):
        for j in range(i, len(quorum_list)):
            qa, (pa, ta) = quorum_list[i]
            qb, (pb, tb) = quorum_list[j]
            if not qa & qb:
                result.ok = False
                result.violations.append(
                    f"intersection: H({pa},{ta})={sorted(qa)} and "
                    f"H({pb},{tb})={sorted(qb)} are disjoint"
                )
    _check_completeness(result, per_process, pattern, horizon)
    result.details["distinct_quorums"] = len(quorum_list)
    return result


def check_sigma_nu(
    history: History, pattern: FailurePattern, horizon: int
) -> CheckResult:
    """Check Sigma^nu: nonuniform intersection + completeness."""
    result = CheckResult(detector="Sigma^nu", ok=True)
    correct = sorted(pattern.correct)
    per_correct = _quorum_values(history, pattern, horizon, correct)

    distinct = {}
    for p, segs in per_correct.items():
        for t, q in segs:
            distinct.setdefault(q, (p, t))
    quorum_list = list(distinct.items())
    for i in range(len(quorum_list)):
        for j in range(i, len(quorum_list)):
            qa, (pa, ta) = quorum_list[i]
            qb, (pb, tb) = quorum_list[j]
            if not qa & qb:
                result.ok = False
                result.violations.append(
                    f"nonuniform intersection: correct processes' quorums "
                    f"H({pa},{ta})={sorted(qa)} and H({pb},{tb})={sorted(qb)} "
                    f"are disjoint"
                )
    _check_completeness(result, per_correct, pattern, horizon)
    result.details["distinct_correct_quorums"] = len(quorum_list)
    return result


def check_sigma_nu_plus(
    history: History, pattern: FailurePattern, horizon: int
) -> CheckResult:
    """Check Sigma^nu+: Sigma^nu properties + conditional nonintersection +
    self-inclusion."""
    result = check_sigma_nu(history, pattern, horizon)
    result.detector = "Sigma^nu+"

    everyone = list(pattern.processes)
    per_process = _quorum_values(history, pattern, horizon, everyone)

    # Self-inclusion: p is in every quorum it outputs.
    for p, segs in per_process.items():
        for t, q in segs:
            if p not in q:
                result.ok = False
                result.violations.append(
                    f"self-inclusion: H({p},{t})={sorted(q)} does not "
                    f"contain {p}"
                )

    # Conditional nonintersection: a quorum disjoint from some correct
    # process's quorum contains only faulty processes.
    correct_quorums = set()
    for p in pattern.correct:
        for _, q in per_process.get(p, []):
            correct_quorums.add(q)
    # Sort so the violation report (first offending pair) is deterministic.
    for p, segs in per_process.items():
        for t, q in segs:
            for cq in sorted(correct_quorums, key=sorted):
                if not q & cq and not q <= pattern.faulty:
                    result.ok = False
                    result.violations.append(
                        f"conditional nonintersection: H({p},{t})={sorted(q)} "
                        f"misses the correct quorum {sorted(cq)} yet contains "
                        f"correct processes"
                    )
                    break
    return result


# ----------------------------------------------------------------------
# Product detectors
# ----------------------------------------------------------------------


class _ProjectedHistory(History):
    """Component view of a history whose values are tuples."""

    def __init__(self, inner: History, index: int):
        self._inner = inner
        self._index = index

    def value(self, p: int, t: int) -> Any:
        return self._inner.value(p, t)[self._index]


def project_history(history: History, index: int) -> History:
    """The ``index``-th component of a tuple-valued history."""
    return _ProjectedHistory(history, index)
