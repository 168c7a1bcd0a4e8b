"""Step-selection policies for the live system.

Asynchrony means steps of different processes interleave arbitrarily; an
admissible run additionally requires every correct process to take infinitely
many steps (property (6)).  The shipped policies realize this with fairness
guarantees: round-robin trivially, the random policy through an aging bound.

A scripted policy is provided for crafted scenarios (the contamination run of
Section 6.3 and the Theorem 7.1 adversary), where the step order *is* the
argument.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence


class SchedulingPolicy:
    """Chooses which alive process takes the next step."""

    def next_process(
        self, alive: Sequence[int], time: int, rng: random.Random
    ) -> Optional[int]:
        """Pick the next process among ``alive`` (sorted), or ``None`` to halt.

        ``alive`` excludes crashed processes; it is never empty unless every
        process has crashed.
        """
        raise NotImplementedError


class RoundRobinScheduler(SchedulingPolicy):
    """Cycle through process ids, skipping crashed processes."""

    def __init__(self) -> None:
        self._cursor = 0

    def next_process(self, alive, time, rng):
        if not alive:
            return None
        n = max(alive) + 1
        for _ in range(n):
            candidate = self._cursor % n
            self._cursor += 1
            if candidate in alive:
                return candidate
        return alive[0]


class RandomFairScheduler(SchedulingPolicy):
    """Uniform random choice with an aging bound.

    Any alive process that has not stepped within ``max_gap`` scheduler
    decisions is chosen first, so property (6) holds on every prefix, not
    just almost surely.

    The overdue scan is amortized: after a scan finds nobody overdue, no
    process can *become* overdue before decision ``min(last scheduled) +
    max_gap + 1`` (last-scheduled stamps only grow and the alive set only
    shrinks), so scans are skipped until that watermark.  Choices — and
    hence runs — are identical to scanning every decision.
    """

    def __init__(self, max_gap: int = 64):
        if max_gap < 1:
            raise ValueError("max_gap must be >= 1")
        self.max_gap = max_gap
        self._last_scheduled: Dict[int, int] = {}
        self._decisions = 0
        self._next_overdue_check = max_gap + 1

    def next_process(self, alive, time, rng):
        if not alive:
            return None
        self._decisions += 1
        d = self._decisions
        if d >= self._next_overdue_check:
            threshold = d - self.max_gap
            last = self._last_scheduled
            overdue = [p for p in alive if last.get(p, 0) < threshold]
            if overdue:
                choice = overdue[0]
                last[choice] = d
                self._next_overdue_check = d + 1  # others may still be overdue
                return choice
            self._next_overdue_check = (
                min(last.get(p, 0) for p in alive) + self.max_gap + 1
            )
        # rng.choice(alive), draw for draw: the stdlib's
        # _randbelow_with_getrandbits, inlined.
        count = len(alive)
        bits = count.bit_length()
        index = rng.getrandbits(bits)
        while index >= count:
            index = rng.getrandbits(bits)
        choice = alive[index]
        self._last_scheduled[choice] = d
        return choice


class WeightedScheduler(SchedulingPolicy):
    """Adversarially-skewed random choice with the same aging bound.

    Some processes step far more often than others (weights), which surfaces
    interleavings that round-robin never produces.
    """

    def __init__(self, weights: Dict[int, float], max_gap: int = 128):
        self.weights = dict(weights)
        self.max_gap = max_gap
        self._last_scheduled: Dict[int, int] = {}
        self._decisions = 0
        self._next_overdue_check = max_gap + 1
        self._weights_for: Dict[tuple, List[float]] = {}

    def next_process(self, alive, time, rng):
        if not alive:
            return None
        self._decisions += 1
        d = self._decisions
        if d >= self._next_overdue_check:
            threshold = d - self.max_gap
            last = self._last_scheduled
            overdue = [p for p in alive if last.get(p, 0) < threshold]
            if overdue:
                choice = overdue[0]
                last[choice] = d
                self._next_overdue_check = d + 1
                return choice
            self._next_overdue_check = (
                min(last.get(p, 0) for p in alive) + self.max_gap + 1
            )
        key = alive if type(alive) is tuple else tuple(alive)
        weights = self._weights_for.get(key)
        if weights is None:
            weights = [self.weights.get(p, 1.0) for p in key]
            self._weights_for[key] = weights
        choice = rng.choices(key, weights=weights, k=1)[0]
        self._last_scheduled[choice] = d
        return choice


class ScriptedScheduler(SchedulingPolicy):
    """Follow an explicit step script, then fall back to another policy.

    Script entries naming crashed processes are skipped (a crashed process
    takes no steps, whatever the script says).
    """

    def __init__(
        self,
        script: Sequence[int],
        fallback: Optional[SchedulingPolicy] = None,
    ):
        self._queue: List[int] = list(script)
        self._pos = 0
        self.fallback = fallback if fallback is not None else RoundRobinScheduler()

    def next_process(self, alive, time, rng):
        while self._pos < len(self._queue):
            candidate = self._queue[self._pos]
            self._pos += 1
            if candidate in alive:
                return candidate
        return self.fallback.next_process(alive, time, rng)


def build_scheduler(spec: Sequence[Any]) -> SchedulingPolicy:
    """A fresh scheduler instance from its serializable spec.

    Specs are tuples of primitives — ``("round-robin",)``,
    ``("random-fair", max_gap)``, ``("weighted", ((pid, weight), ...),
    max_gap)``, ``("scripted", script[, fallback_spec])`` — so a run's
    scheduler can be written into an artifact and rebuilt per execution
    (instances carry cursors and cannot be shared).  An unknown kind or a
    wrong number of fields raises ``ValueError``.
    """
    kind, *args = spec
    if kind == "round-robin" and not args:
        return RoundRobinScheduler()
    if kind == "random-fair" and len(args) == 1:
        return RandomFairScheduler(max_gap=args[0])
    if kind == "weighted" and len(args) == 2:
        weights = {int(p): w for p, w in args[0]}
        return WeightedScheduler(weights, max_gap=args[1])
    if kind == "scripted" and len(args) in (1, 2):
        fallback = build_scheduler(args[1]) if len(args) > 1 else None
        return ScriptedScheduler(list(args[0]), fallback=fallback)
    raise ValueError(
        f"bad scheduler spec {spec!r}: unknown kind or wrong number of fields"
    )
