"""The quorum failure detector Sigma (Section 3.2).

Sigma outputs a set of processes (a quorum) at each process such that

* Intersection: any two quorums, output at any times and any processes,
  intersect; and
* Completeness: there is a time after which quorums of correct processes
  contain only correct processes.

Quorums of correct processes need never converge; they may change forever.
"""

from __future__ import annotations

import random
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.detectors.base import FailureDetector, History, ScheduleHistory
from repro.kernel.failures import FailurePattern

Quorum = FrozenSet[int]


def _random_superset(
    rng: random.Random, core: Sequence[int], pool: Sequence[int]
) -> Quorum:
    """A random subset of ``pool`` that includes all of ``core``."""
    extras = [p for p in pool if p not in core]
    take = rng.randint(0, len(extras))
    return frozenset(core) | frozenset(rng.sample(extras, take))


class Sigma(FailureDetector):
    """Samples valid Sigma histories.

    Strategies (all yield histories in Sigma(F); validated by the checkers):

    * ``"pivot"`` — every quorum output anywhere contains one fixed correct
      *pivot* process, which makes intersection structural; after a
      per-process stabilization time, quorums of correct processes are
      subsets of ``correct(F)``.  Works in **any** environment.
    * ``"full"`` — every process outputs Pi until stabilization, then
      correct processes output ``correct(F)``.  Works in any environment.
    * ``"majority"`` — quorums are majority subsets (any two majorities
      intersect); valid only when a majority of processes are correct, the
      environment of Chandra-Hadzilacos-Toueg.  Falls back to ``"pivot"``
      when the pattern has a correct minority.
    * ``"shrinking"`` — every process starts at Pi and sheds members over
      time (breakpoint times randomized), never dropping the pivot, ending
      inside ``correct(F)``.  Intersection is via the shared pivot;
      exercises algorithms against quorums that change at many breakpoints.
    """

    name = "Sigma"

    def __init__(
        self,
        strategy: str = "pivot",
        stabilization_slack: int = 30,
        changes: int = 4,
        pivot: Optional[int] = None,
    ):
        if strategy not in ("pivot", "full", "majority", "shrinking"):
            raise ValueError(f"unknown Sigma strategy {strategy!r}")
        self.strategy = strategy
        self.stabilization_slack = stabilization_slack
        self.changes = changes
        self.pivot = pivot

    # ------------------------------------------------------------------

    def sample_history(self, pattern: FailurePattern, rng: random.Random) -> History:
        correct = sorted(pattern.correct)
        everyone = list(pattern.processes)
        if not correct:
            return ScheduleHistory(
                {p: [(0, frozenset(everyone))] for p in everyone}
            )
        strategy = self.strategy
        if strategy == "majority" and len(correct) * 2 <= pattern.n:
            strategy = "pivot"

        if strategy == "full":
            return self._full_history(pattern, rng, correct, everyone)
        if strategy == "majority":
            return self._majority_history(pattern, rng, correct, everyone)
        if strategy == "shrinking":
            return self._shrinking_history(pattern, rng, correct, everyone)
        return self._pivot_history(pattern, rng, correct, everyone)

    # ------------------------------------------------------------------

    def _stab_time(self, pattern: FailurePattern, rng: random.Random) -> int:
        return pattern.last_crash_time + rng.randint(1, self.stabilization_slack)

    def _full_history(self, pattern, rng, correct, everyone) -> ScheduleHistory:
        breakpoints = {}
        for p in everyone:
            stab = self._stab_time(pattern, rng)
            breakpoints[p] = [(0, frozenset(everyone)), (stab, frozenset(correct))]
        return ScheduleHistory(breakpoints)

    def _pivot_history(self, pattern, rng, correct, everyone) -> ScheduleHistory:
        pivot = self.pivot if self.pivot is not None else rng.choice(correct)
        if pivot not in pattern.correct:
            raise ValueError(f"pivot {pivot} is not correct in {pattern!r}")
        breakpoints = {}
        for p in everyone:
            stab = self._stab_time(pattern, rng)
            points: List[Tuple[int, Quorum]] = [
                (0, _random_superset(rng, [pivot], everyone))
            ]
            for _ in range(self.changes):
                t = rng.randrange(stab)
                points.append((t, _random_superset(rng, [pivot], everyone)))
            # After stabilization, quorums of every process are subsets of
            # correct(F) containing the pivot (stronger than required for
            # faulty p, which is harmless).
            points.append((stab, _random_superset(rng, [pivot], correct)))
            for _ in range(self.changes):
                t = stab + rng.randint(1, 50)
                points.append((t, _random_superset(rng, [pivot], correct)))
            breakpoints[p] = _dedup(points, keep_last_at=stab)
        return ScheduleHistory(breakpoints)

    def _majority_history(self, pattern, rng, correct, everyone) -> ScheduleHistory:
        n = pattern.n
        maj = n // 2 + 1
        breakpoints = {}
        for p in everyone:
            stab = self._stab_time(pattern, rng)
            points: List[Tuple[int, Quorum]] = [
                (0, frozenset(rng.sample(everyone, maj)))
            ]
            for _ in range(self.changes):
                t = rng.randrange(stab)
                points.append((t, frozenset(rng.sample(everyone, maj))))
            points.append((stab, frozenset(rng.sample(correct, maj))))
            for _ in range(self.changes):
                t = stab + rng.randint(1, 50)
                points.append((t, frozenset(rng.sample(correct, maj))))
            breakpoints[p] = _dedup(points, keep_last_at=stab)
        return ScheduleHistory(breakpoints)


    def _shrinking_history(self, pattern, rng, correct, everyone) -> ScheduleHistory:
        pivot = self.pivot if self.pivot is not None else rng.choice(correct)
        if pivot not in pattern.correct:
            raise ValueError(f"pivot {pivot} is not correct in {pattern!r}")
        breakpoints = {}
        for p in everyone:
            stab = self._stab_time(pattern, rng)
            current = set(everyone)
            points: List[Tuple[int, Quorum]] = [(0, frozenset(current))]
            # Shed members at randomized pre-stabilization times; every
            # emitted quorum keeps the pivot, so any two (even across
            # processes) intersect.
            sheddable = [q for q in everyone if q != pivot]
            rng.shuffle(sheddable)
            for q in sheddable:
                current.discard(q)
                t = rng.randrange(1, stab + 1)
                if set(current) >= {pivot} and len(current) >= 1:
                    points.append((t, frozenset(current | {pivot})))
            final = frozenset(
                {pivot}
                | {q for q in correct if rng.random() < 0.5}
            )
            points.append((stab, final))
            breakpoints[p] = _dedup(points, keep_last_at=stab)
        return ScheduleHistory(breakpoints)


def _dedup(
    points: List[Tuple[int, Quorum]], keep_last_at: int
) -> List[Tuple[int, Quorum]]:
    """Collapse equal-time breakpoints; on ties at ``keep_last_at`` the
    stabilized value (appended later) wins."""
    dedup = {}
    for t, v in sorted(points, key=lambda tv: tv[0]):
        dedup[t] = v
    # Drop pre-stabilization noise that landed exactly on the
    # stabilization time but was listed earlier: the sorted pass above
    # already keeps the last occurrence, which is the stabilized one for
    # ties at keep_last_at because stabilized entries are appended after
    # noise entries and Python's sort is stable.
    return sorted(dedup.items())
