"""Failure patterns (Section 2.2): F(t), monotonicity, correct/faulty."""

import pytest
from hypothesis import given, strategies as st

from repro.kernel.failures import FailurePattern


class TestFailurePatternBasics:
    def test_failure_free_has_everyone_correct(self):
        pattern = FailurePattern.no_failures(5)
        assert pattern.correct == frozenset(range(5))
        assert pattern.faulty == frozenset()
        assert pattern.crashed_at(10**6) == frozenset()

    def test_crash_membership_from_crash_time_onwards(self):
        pattern = FailurePattern(3, {1: 7})
        assert not pattern.is_crashed(1, 6)
        assert pattern.is_crashed(1, 7)
        assert pattern.is_crashed(1, 8)

    def test_faulty_means_crashes_at_some_time(self):
        pattern = FailurePattern(4, {0: 100, 2: 0})
        assert pattern.faulty == {0, 2}
        assert pattern.correct == {1, 3}

    def test_initial_crashes_down_from_time_zero(self):
        pattern = FailurePattern.initial_crashes(4, [1, 3])
        assert pattern.crashed_at(0) == {1, 3}

    def test_alive_at_complements_crashed_at(self):
        pattern = FailurePattern(4, {0: 2, 1: 5})
        for t in range(8):
            assert pattern.alive_at(t) | pattern.crashed_at(t) == set(range(4))
            assert not pattern.alive_at(t) & pattern.crashed_at(t)

    def test_last_crash_time(self):
        assert FailurePattern(3, {0: 4, 1: 9}).last_crash_time == 9
        assert FailurePattern.no_failures(3).last_crash_time == 0

    def test_crash_time_lookup(self):
        pattern = FailurePattern(3, {2: 11})
        assert pattern.crash_time(2) == 11
        assert pattern.crash_time(0) is None

    def test_equality_and_hash(self):
        a = FailurePattern(3, {1: 5})
        b = FailurePattern(3, {1: 5})
        c = FailurePattern(3, {1: 6})
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_rejects_unknown_process(self):
        with pytest.raises(ValueError):
            FailurePattern(3, {3: 0})

    def test_rejects_negative_crash_time(self):
        with pytest.raises(ValueError):
            FailurePattern(3, {1: -1})

    def test_rejects_empty_system(self):
        with pytest.raises(ValueError):
            FailurePattern(0)

    @given(
        st.integers(min_value=1, max_value=8).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.dictionaries(
                    st.integers(0, n - 1), st.integers(0, 50), max_size=n
                ),
            )
        ),
        st.integers(0, 60),
    )
    def test_monotone_F(self, n_and_crashes, t):
        """F(t) ⊆ F(t+1) — processes never recover."""
        n, crashes = n_and_crashes
        pattern = FailurePattern(n, crashes)
        assert pattern.crashed_at(t) <= pattern.crashed_at(t + 1)

    @given(
        st.integers(min_value=2, max_value=8),
        st.data(),
    )
    def test_union_of_F_is_faulty(self, n, data):
        crashes = data.draw(
            st.dictionaries(st.integers(0, n - 1), st.integers(0, 30), max_size=n)
        )
        pattern = FailurePattern(n, crashes)
        union = frozenset()
        for t in range(35):
            union |= pattern.crashed_at(t)
        assert union == pattern.faulty


class TestDeferredCrashPattern:
    """Crash times a scenario driver fixes while the run goes: it grows the
    live pattern with :meth:`FailurePattern.crashing` (what ``System.crash``
    does) and reads the pattern the run exhibited off the result."""

    def test_doomed_alive_until_triggered(self):
        pattern = FailurePattern(3)
        assert pattern.is_alive(2, 100)
        pattern = pattern.crashing([2], 50)
        assert pattern.is_alive(2, 49)
        assert pattern.is_crashed(2, 50)
        assert pattern.faulty == {2} and pattern.correct == {0, 1}

    def test_crashing_returns_a_new_pattern(self):
        base = FailurePattern(4, {1: 3})
        grown = base.crashing([2], 9)
        assert base == FailurePattern(4, {1: 3})
        assert grown == FailurePattern(4, {1: 3, 2: 9})

    def test_trigger_is_idempotent(self):
        # A process that already crashes keeps its time, also a future one.
        pattern = FailurePattern(3).crashing([0], 5).crashing([0], 9)
        assert pattern.crash_time(0) == 5
        assert FailurePattern(3, {0: 20}).crashing([0], 9).crash_time(0) == 20

    def test_crashing_unknown_process_rejected(self):
        with pytest.raises(ValueError):
            FailurePattern(3).crashing([3], 5)

    def test_freeze_produces_equivalent_pattern(self):
        # What crashed keeps its time; the still-doomed processes crash
        # right past the horizon.
        live = FailurePattern(4).crashing([1], 7)
        frozen = live.crashing([1, 3], 21)
        assert frozen.crash_time(1) == 7
        assert frozen.crash_time(3) == 21
        assert frozen.faulty == {1, 3}
        for t in range(21):
            assert frozen.crashed_at(t) == live.crashed_at(t)

    def test_trigger_all(self):
        pattern = FailurePattern(4).crashing([0, 1], 3)
        assert pattern.crashed_at(3) == {0, 1}
        assert pattern.crashed_at(2) == frozenset()
