"""The leader failure detector Omega (Section 3.1).

At each process Omega outputs a single trusted process id; there is a time
after which the same correct process is output at every correct process.
Before that time outputs are arbitrary (possibly faulty processes, possibly
different at different processes), and faulty processes' outputs are never
constrained.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.detectors.base import FailureDetector, History, ScheduleHistory
from repro.kernel.failures import FailurePattern


class Omega(FailureDetector):
    """Samples valid Omega histories.

    Parameters
    ----------
    stabilization_slack:
        Upper bound (exclusive) on how long *after* the last crash the
        pre-stabilization noise may continue.  Stabilization is drawn
        uniformly in ``[0, last_crash + stabilization_slack]``.
    noise_changes:
        How many arbitrary leader changes each process exhibits before
        stabilization.
    leader:
        Force a specific eventual leader (must be correct); ``None`` draws
        one uniformly from ``correct(F)``.
    """

    name = "Omega"

    def __init__(
        self,
        stabilization_slack: int = 30,
        noise_changes: int = 3,
        leader: Optional[int] = None,
    ):
        self.stabilization_slack = stabilization_slack
        self.noise_changes = noise_changes
        self.leader = leader

    def sample_history(self, pattern: FailurePattern, rng: random.Random) -> History:
        correct = sorted(pattern.correct)
        if not correct:
            # No correct process: Omega's property is vacuous; output anything.
            return ScheduleHistory({p: [(0, 0)] for p in pattern.processes})
        leader = self.leader if self.leader is not None else rng.choice(correct)
        if leader not in pattern.correct:
            raise ValueError(f"forced leader {leader} is not correct in {pattern!r}")
        stabilize_at = rng.randint(
            0, pattern.last_crash_time + self.stabilization_slack
        )
        breakpoints = {}
        for p in pattern.processes:
            points: List[Tuple[int, int]] = [(0, rng.randrange(pattern.n))]
            for _ in range(self.noise_changes):
                if stabilize_at == 0:
                    break
                t = rng.randrange(stabilize_at)
                points.append((t, rng.randrange(pattern.n)))
            points.append((stabilize_at, leader))
            # Later breakpoints shadow earlier ones at equal times; keep the
            # stabilization entry last so it wins.
            dedup = {}
            for t, v in sorted(points, key=lambda tv: tv[0]):
                dedup[t] = v
            dedup[stabilize_at] = leader
            breakpoints[p] = sorted(dedup.items())
        return ScheduleHistory(breakpoints)
