"""Shrinker soundness: scripted replay fidelity and minimality."""

import dataclasses

import pytest

from repro.chaos.fuzzer import execute_case, fuzz_config
from repro.chaos.shrinker import (
    SAFETY_PROPERTIES,
    _ddmin,
    scripted_case,
    shrink_schedule,
)
from repro.chaos.space import draw_case
from tests.chaos.test_fuzzer import (
    FAST_CRASHED,
    FAST_HONEST,
    FAST_SPLIT,
    counting_detector,
)

#: The script the ``FAST_SPLIT`` seed-0 shrink has always returned (69 of
#: the original 151 steps, in the full 400 evaluations).
SPLIT_SCRIPT = (
    2, 2, 0, 2, 0, 3, 5, 3, 0, 5, 2, 1, 3, 1, 5, 3, 1, 0, 0, 3, 5, 5, 3, 5,
    2, 3, 0, 0, 2, 2, 3, 0, 0, 5, 2, 5, 0, 2, 3, 5, 2, 5, 3, 5, 3, 0, 5, 5,
    3, 5, 2, 5, 5, 0, 3, 3, 0, 5, 0, 3, 3, 5, 3, 5, 3, 5, 3, 5, 5,
)


@pytest.fixture(scope="module")
def split_violation():
    """A deterministic split-quorums disagreement from the fast config."""
    report = fuzz_config(FAST_SPLIT, seed=0, stop_on="nonuniform agreement")
    violation = report.first("nonuniform agreement")
    assert violation is not None
    return violation


class TestScriptedReplay:
    def test_scripted_full_schedule_is_bit_identical(self):
        """The soundness property the whole shrinker rests on: replaying a
        run's extracted pid schedule through a ScriptedScheduler with the
        same kernel seed reproduces the run exactly."""
        case = draw_case(
            "test-nuc-honest", seed=1, index=2, ns=(3,), max_steps=6000
        )
        original = execute_case(FAST_HONEST, case, trace="full")
        replayed = execute_case(
            FAST_HONEST,
            scripted_case(case, original.schedule),
            trace="full",
        )
        assert replayed.schedule == original.schedule
        assert replayed.signature == original.signature
        assert replayed.steps == original.steps
        assert replayed.violations == tuple(
            v.__class__(
                config=v.config,
                property=v.property,
                message=v.message,
                case=replayed.case,
                steps=v.steps,
            )
            for v in original.violations
        )

    def test_scripted_case_round_trips_spec(self):
        case = draw_case("t", seed=0, index=0, ns=(3,), max_steps=50)
        scripted = scripted_case(case, [0, 1, 2], max_steps=3)
        assert scripted.scheduler[0] == "scripted"
        assert scripted.scheduler[1] == (0, 1, 2)
        assert scripted.scheduler[2] == case.scheduler
        assert scripted.max_steps == 3


class TestDdmin:
    def test_reduces_to_known_core(self):
        core = {3, 7}

        def test_fn(script):
            return core <= set(script)

        script, evals, certified = _ddmin(test_fn, list(range(10)), 500)
        assert set(script) == core
        assert certified
        assert evals > 0

    def test_respects_evaluation_cap(self):
        calls = []

        def test_fn(script):
            calls.append(1)
            return True

        _, evals, certified = _ddmin(test_fn, list(range(64)), 5)
        assert evals <= 5
        assert not certified

    def test_single_element_script_kept(self):
        script, _, certified = _ddmin(lambda s: bool(s), [4], 100)
        assert script == [4]
        assert certified


class TestShrinkSchedule:
    def test_safety_shrink_reproduces_and_minimizes(self, split_violation):
        result = shrink_schedule(
            FAST_SPLIT, split_violation.case, "nonuniform agreement"
        )
        assert result is not None
        assert result.property == "nonuniform agreement"
        assert len(result.script) <= result.original_schedule_len
        assert result.case.max_steps == max(len(result.script), 1)
        # The shrunk scripted case still violates, on its own.
        outcome = execute_case(FAST_SPLIT, result.case)
        assert any(
            v.property == "nonuniform agreement" for v in outcome.violations
        )
        assert "nonuniform agreement" in result.message

    def test_shrink_is_deterministic(self, split_violation):
        a = shrink_schedule(
            FAST_SPLIT, split_violation.case, "nonuniform agreement"
        )
        b = shrink_schedule(
            FAST_SPLIT, split_violation.case, "nonuniform agreement"
        )
        assert a == b

    def test_shrink_samples_the_history_once(self, split_violation):
        """Every evaluation is a scripted variant of one run, so the shrink
        draws that run's history once and judges all 400 with it."""
        calls = []
        counted = dataclasses.replace(
            FAST_SPLIT, detector=counting_detector(FAST_SPLIT.detector, calls)
        )
        result = shrink_schedule(
            counted, split_violation.case, "nonuniform agreement"
        )
        assert len(calls) == 1
        assert result.evaluations == 400
        assert result.script == SPLIT_SCRIPT

    def test_termination_shrinks_to_empty_when_lie_suffices(self):
        """The crashed-leader lie blocks under the original environment
        alone, so the shrinker reports the empty script — the diagnosis
        that the *detector*, not the schedule, causes the hang."""
        case = draw_case(
            "test-omega-crashed",
            seed=0,
            index=0,
            ns=(3,),
            max_steps=1500,
            min_faulty=1,
            max_crash_time=0,
        )
        result = shrink_schedule(FAST_CRASHED, case, "termination")
        assert result is not None
        assert result.script == ()
        assert result.one_minimal

    def test_unreproduced_property_returns_none(self):
        case = draw_case(
            "test-nuc-honest", seed=0, index=0, ns=(3,), max_steps=6000
        )
        assert (
            shrink_schedule(FAST_HONEST, case, "nonuniform agreement") is None
        )

    def test_safety_properties_vocabulary(self):
        from repro.chaos.fuzzer import PROPERTIES

        assert SAFETY_PROPERTIES < set(PROPERTIES)
        assert "termination" not in SAFETY_PROPERTIES
