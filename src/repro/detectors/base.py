"""Failure detector base classes and history representations.

Histories come in three flavours:

* :class:`ScheduleHistory` — piecewise-constant functions built from
  per-process ``(from_time, value)`` breakpoints; what the generators emit.
* :class:`RecordedHistory` — the finite history of an *emulated* detector,
  reconstructed from the ``output_p`` assignment log of a live run (the
  ``O_R`` of Section 2.9); what the property checkers consume.
* :class:`AdaptiveHistory` — a history computed on the fly by a scenario
  driver with access to the running system.  Formally a failure detector
  history is a fixed function; an adaptive history is simply a convenient way
  to *construct* one concrete function during a run, and the recorded values
  are validated post hoc against the detector's definition.
"""

from __future__ import annotations

import bisect
import random
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.kernel.failures import FailurePattern


class History:
    """``H : Pi x N -> range`` — the behaviour of a detector in one run."""

    def value(self, p: int, t: int) -> Any:
        raise NotImplementedError


class FunctionalHistory(History):
    """A history given directly as a function ``(p, t) -> value``."""

    def __init__(self, fn: Callable[[int, int], Any]):
        self._fn = fn

    def value(self, p: int, t: int) -> Any:
        return self._fn(p, t)


class ScheduleHistory(History):
    """Piecewise-constant history from per-process breakpoints.

    ``breakpoints[p]`` is a list of ``(from_time, value)`` pairs sorted by
    time, the first of which must start at 0.
    """

    def __init__(self, breakpoints: Mapping[int, Sequence[Tuple[int, Any]]]):
        self._times: Dict[int, List[int]] = {}
        self._values: Dict[int, List[Any]] = {}
        for p, points in breakpoints.items():
            points = sorted(points, key=lambda tv: tv[0])
            if not points or points[0][0] != 0:
                raise ValueError(
                    f"breakpoints for process {p} must start at time 0"
                )
            self._times[p] = [t for t, _ in points]
            self._values[p] = [v for _, v in points]

    def value(self, p: int, t: int) -> Any:
        times = self._times.get(p)
        if times is None:
            raise KeyError(f"no breakpoints for process {p}")
        i = bisect.bisect_right(times, t) - 1
        return self._values[p][i]

    def breakpoints_of(self, p: int) -> List[Tuple[int, Any]]:
        return list(zip(self._times[p], self._values[p]))


class RecordedHistory(History):
    """A finite history recorded from a run, with step-function semantics.

    The value of process ``p`` at time ``t`` is the last value assigned at or
    before ``t`` (falling back to the initial value).  ``horizon`` is the
    last time for which the history is meaningful.
    """

    def __init__(self, n: int, horizon: int, initial: Optional[Mapping[int, Any]] = None):
        self.n = n
        self.horizon = horizon
        self._events: Dict[int, List[Tuple[int, Any]]] = {p: [] for p in range(n)}
        self._initial: Dict[int, Any] = dict(initial or {})

    def record(self, p: int, t: int, value: Any) -> None:
        events = self._events[p]
        if events and t < events[-1][0]:
            raise ValueError(
                f"out-of-order record for process {p}: t={t} after {events[-1][0]}"
            )
        events.append((t, value))

    def value(self, p: int, t: int) -> Any:
        events = self._events[p]
        lo, hi = 0, len(events)
        while lo < hi:
            mid = (lo + hi) // 2
            if events[mid][0] <= t:
                lo = mid + 1
            else:
                hi = mid
        if lo == 0:
            if p in self._initial:
                return self._initial[p]
            raise KeyError(f"history of process {p} undefined at time {t}")
        return events[lo - 1][1]

    def events_of(self, p: int) -> List[Tuple[int, Any]]:
        return list(self._events[p])

    def all_values(self, p: int, t_from: int = 0) -> List[Any]:
        """Every value held by ``p`` at some time in ``[t_from, horizon]``:
        the value holding at ``t_from`` plus each later assignment."""
        values: List[Any] = []
        try:
            values.append(self.value(p, t_from))
        except KeyError:
            pass
        for t, v in self._events[p]:
            if t_from < t <= self.horizon:
                values.append(v)
        return values

    def final_value(self, p: int) -> Any:
        return self.value(p, self.horizon)

    def last_change_time(self, p: int) -> int:
        events = self._events[p]
        return events[-1][0] if events else 0


class AdaptiveHistory(History):
    """A history computed live by a strategy, with full recording.

    ``strategy(p, t) -> value`` may consult mutable scenario state.  Every
    returned value is recorded, and :meth:`recorded` rebuilds a checkable
    finite history afterwards.
    """

    def __init__(self, n: int, strategy: Callable[[int, int], Any]):
        self.n = n
        self._strategy = strategy
        self._samples: Dict[int, List[Tuple[int, Any]]] = {p: [] for p in range(n)}

    def value(self, p: int, t: int) -> Any:
        v = self._strategy(p, t)
        samples = self._samples[p]
        if not samples or samples[-1][0] != t or samples[-1][1] == v:
            samples.append((t, v))
        return v

    def recorded(self, horizon: int) -> RecordedHistory:
        initial = {
            p: samples[0][1] for p, samples in self._samples.items() if samples
        }
        recorded = RecordedHistory(self.n, horizon, initial=initial)
        for p, samples in self._samples.items():
            last_t = -1
            for t, v in samples:
                if t == last_t:
                    continue
                recorded.record(p, t, v)
                last_t = t
        return recorded


class FailureDetector:
    """A failure detector: samples histories from ``D(F)``."""

    name: str = "D"

    def sample_history(
        self, pattern: FailurePattern, rng: random.Random
    ) -> History:
        """Draw one history from ``D(F)`` for failure pattern ``F``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


# ----------------------------------------------------------------------
# Run histories
# ----------------------------------------------------------------------

#: Seed salt used by every runner when deriving a history RNG from a run
#: seed.
HISTORY_SEED_SALT = 0x5EED


def sample_run_history(
    detector: FailureDetector, pattern: FailurePattern, seed: int
) -> History:
    """The history ``H`` of the run with kernel seed ``seed``.

    A run fixes one history from ``D(F)``; the runners draw it with
    ``random.Random(seed ^ HISTORY_SEED_SALT)``, so a run is a pure function
    of ``(detector, pattern, seed)``.  Nothing is kept between calls: a
    caller that judges one run several times holds the history itself.
    """
    rng = random.Random(seed ^ HISTORY_SEED_SALT)
    return detector.sample_history(pattern, rng)


def clear_history_cache() -> None:
    """Does nothing: histories are sampled per run and never cached.

    Kept only because the perf ledger's ``extract_trie`` workload still
    calls it (ROADMAP item 6(g)).
    """
