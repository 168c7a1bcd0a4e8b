"""Failure patterns (Section 2.2 of the paper).

A failure pattern is a function ``F : N -> 2^Pi`` where ``F(t)`` is the set of
processes that have crashed through time ``t``.  Processes never recover, so
``F(t)`` is monotone in ``t``.  We represent a pattern compactly by the crash
time of each faulty process: ``p in F(t)`` iff ``crash_times[p] <= t``.

Time is the discrete global clock of the model; in our simulations the clock
ticks once per step, so crash times are expressed in step indices.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple


class FailurePattern:
    """An immutable crash-failure pattern over processes ``0 .. n-1``.

    Parameters
    ----------
    n:
        Number of processes in the system (``n >= 1``).
    crash_times:
        Mapping from process id to the first time at which the process is
        crashed.  Processes absent from the mapping are correct.
    """

    __slots__ = ("_n", "_crash_times", "_faulty", "_correct", "_epochs")

    def __init__(self, n: int, crash_times: Optional[Mapping[int, int]] = None):
        if n < 1:
            raise ValueError(f"a system needs at least one process, got n={n}")
        times: Dict[int, int] = dict(crash_times or {})
        for pid, t in times.items():
            if not 0 <= pid < n:
                raise ValueError(f"crash time given for unknown process {pid}")
            if t < 0:
                raise ValueError(f"crash time of process {pid} is negative ({t})")
        self._n = n
        self._crash_times = times
        self._faulty = frozenset(times)
        self._correct = frozenset(p for p in range(n) if p not in times)
        self._epochs: Optional[Tuple[Tuple[int, Tuple[int, ...]], ...]] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def no_failures(cls, n: int) -> "FailurePattern":
        """The failure-free pattern: ``F(t) = {}`` for all ``t``."""
        return cls(n, {})

    @classmethod
    def initial_crashes(cls, n: int, crashed: Iterable[int]) -> "FailurePattern":
        """A pattern in which ``crashed`` are down from time 0 onwards."""
        return cls(n, {p: 0 for p in crashed})

    def crashing(self, processes: Iterable[int], t: int) -> "FailurePattern":
        """This pattern with ``processes`` also crashing at time ``t``.

        A process that already crashes keeps its own time.  Scenario drivers
        pick crash times while the run goes (:meth:`System.crash
        <repro.kernel.system.System.crash>`); the pattern a finished run
        exhibited is its live pattern with the still-doomed processes
        crashing just past the horizon.
        """
        times = dict(self._crash_times)
        for p in processes:
            times.setdefault(p, t)
        return FailurePattern(self._n, times)

    # ------------------------------------------------------------------
    # The function F
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def processes(self) -> range:
        """Pi, the set of process ids."""
        return range(self._n)

    def crashed_at(self, t: int) -> FrozenSet[int]:
        """``F(t)``: the set of processes crashed through time ``t``."""
        return frozenset(p for p, ct in self._crash_times.items() if ct <= t)

    def is_crashed(self, p: int, t: int) -> bool:
        """Whether ``p in F(t)``."""
        ct = self._crash_times.get(p)
        return ct is not None and ct <= t

    def is_alive(self, p: int, t: int) -> bool:
        return not self.is_crashed(p, t)

    def alive_at(self, t: int) -> FrozenSet[int]:
        return frozenset(p for p in range(self._n) if not self.is_crashed(p, t))

    def alive_epochs(self) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
        """The alive-set timeline as ``((from_time, alive_ids), ...)`` epochs.

        Because processes never recover, ``F`` changes value at most once per
        distinct crash time; the returned epochs enumerate exactly those
        changes (first epoch starts at 0, alive ids sorted).  The live system
        steps through this timeline with a cursor, replacing the per-step
        ``alive_at(t)`` set construction with an O(1) lookup.
        """
        if self._epochs is None:
            crashes_by_time: Dict[int, list] = {}
            for p, ct in self._crash_times.items():
                crashes_by_time.setdefault(ct, []).append(p)
            alive = set(range(self._n))
            epochs = []
            times = sorted(crashes_by_time)
            if not times or times[0] != 0:
                epochs.append((0, tuple(sorted(alive))))
            for ct in times:
                alive.difference_update(crashes_by_time[ct])
                epochs.append((ct, tuple(sorted(alive))))
            self._epochs = tuple(epochs)
        return self._epochs

    @property
    def faulty(self) -> FrozenSet[int]:
        """``faulty(F)``: processes that crash at some time."""
        return self._faulty

    @property
    def correct(self) -> FrozenSet[int]:
        """``correct(F) = Pi - faulty(F)``."""
        return self._correct

    def crash_time(self, p: int) -> Optional[int]:
        """The time at which ``p`` crashes, or ``None`` if ``p`` is correct."""
        return self._crash_times.get(p)

    @property
    def last_crash_time(self) -> int:
        """The time by which every faulty process has crashed (0 if none)."""
        if not self._crash_times:
            return 0
        return max(self._crash_times.values())

    @property
    def crash_times(self) -> Mapping[int, int]:
        return dict(self._crash_times)

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FailurePattern):
            return NotImplemented
        return self._n == other._n and self._crash_times == other._crash_times

    def __hash__(self) -> int:
        return hash((self._n, tuple(sorted(self._crash_times.items()))))

    def __repr__(self) -> str:
        if not self._crash_times:
            return f"FailurePattern(n={self._n}, failure-free)"
        crashes = ", ".join(
            f"{p}@{t}" for p, t in sorted(self._crash_times.items())
        )
        return f"FailurePattern(n={self._n}, crashes=[{crashes}])"

