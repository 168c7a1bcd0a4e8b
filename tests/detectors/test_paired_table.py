"""``PairedHistory.value`` from the merged table == asking every component.

A pair of piecewise-constant components answers from one pre-merged
per-process table; anything else keeps asking its components.  Either way
the value must be the tuple of component values, at every time — on a
breakpoint, between two, past the last.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detectors import (
    FunctionalHistory,
    PairedHistory,
    ScheduleHistory,
    history_breakpoints,
    segment_merge,
)
from repro.kernel.batch import _segment_tables

N = 3


@st.composite
def schedule_histories(draw, processes=range(N)):
    breakpoints = {}
    for p in processes:
        times = draw(st.lists(st.integers(1, 40), max_size=6, unique=True))
        breakpoints[p] = [
            (t, draw(st.integers(0, 5)))
            for t in [0] + times  # every process starts at time 0
        ]
    return ScheduleHistory(breakpoints)


def componentwise(components, p, t):
    return tuple(component.value(p, t) for component in components)


@settings(max_examples=200, deadline=None)
@given(st.lists(schedule_histories(), min_size=2, max_size=3))
def test_merged_table_equals_component_values(components):
    paired = PairedHistory(components)
    assert set(paired._tables) == set(range(N))  # answered from the table
    for p in range(N):
        times, values = paired._tables[p]
        assert times == sorted(set(times)) and times[0] == 0
        assert len(values) == len(times)
        for t in range(-1, 45):  # every breakpoint is in range
            assert paired.value(p, t) == componentwise(components, p, t)


@settings(max_examples=100, deadline=None)
@given(schedule_histories(), schedule_histories(), schedule_histories())
def test_nested_pairs_merge_too(a, b, c):
    inner = PairedHistory([b, c])
    paired = PairedHistory([a, inner])
    assert set(paired._tables) == set(range(N))
    for p in range(N):
        for t in range(0, 45):
            assert paired.value(p, t) == (a.value(p, t), inner.value(p, t))
            assert paired.value(p, t)[1] == (b.value(p, t), c.value(p, t))


@settings(max_examples=100, deadline=None)
@given(schedule_histories(), schedule_histories())
def test_a_component_that_is_not_piecewise_constant(a, b):
    ramp = FunctionalHistory(lambda p, t: (p, t))
    paired = PairedHistory([a, ramp, b])
    assert paired._tables == {} and history_breakpoints(paired) is None
    for p in range(N):
        for t in range(0, 45):
            assert paired.value(p, t) == (a.value(p, t), (p, t), b.value(p, t))


@settings(max_examples=100, deadline=None)
@given(schedule_histories(), schedule_histories(processes=(0, 2)))
def test_a_process_missing_from_one_component(full, partial):
    paired = PairedHistory([full, partial])
    assert set(paired._tables) == {0, 2}
    for t in range(0, 45):
        for p in (0, 2):
            assert paired.value(p, t) == (full.value(p, t), partial.value(p, t))
        with pytest.raises(KeyError):  # the component's own complaint
            paired.value(1, t)
    assert _segment_tables(paired, N) is None  # no lane without process 1


def test_a_subclass_is_not_assumed_piecewise_constant():
    class Lying(ScheduleHistory):
        def value(self, p, t):
            return "lie"

    honest = ScheduleHistory({0: [(0, "a"), (5, "b")]})
    paired = PairedHistory([honest, Lying({0: [(0, "x")]})])
    assert history_breakpoints(paired) is None
    assert paired.value(0, 7) == ("b", "lie")


def test_both_engines_read_one_compiled_table():
    a = ScheduleHistory({p: [(0, p), (10, p + 1)] for p in range(N)})
    b = ScheduleHistory({p: [(0, "x"), (4, "y")] for p in range(N)})
    paired = PairedHistory([a, b])
    lanes = _segment_tables(paired, N)
    again = _segment_tables(paired, N)
    for p in range(N):
        assert lanes[p] is paired._tables[p] is again[p]
        assert lanes[p] == ([0, 4, 10], [(p, "x"), (p, "y"), (p + 1, "y")])
    # A bare schedule history hands out its own lists as well.
    assert _segment_tables(ScheduleHistory({0: [(0, 1)]}), 1) == [([0], [1])]


def test_segment_merge_keeps_the_later_of_two_equal_times():
    first = ([0, 3, 3], ["a", "b", "c"])  # value() answers "c" from t=3 on
    second = ([0, 5], [1, 2])
    assert segment_merge([first, second]) == (
        [0, 3, 5],
        [("a", 1), ("c", 1), ("c", 2)],
    )
