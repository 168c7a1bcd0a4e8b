"""The fuzz loop and case executor: determinism, oracles, recheck."""

import dataclasses

import pytest

from repro import obs
from repro.chaos.fuzzer import (
    PROPERTIES,
    ChaosConfig,
    execute_case,
    fuzz_config,
    judge_case,
)
from repro.chaos.matrix import (
    CONFIGS,
    anuc_detector,
    crashed_omega_detector,
    register_detector,
    split_quorum_detector,
)
from repro.chaos.space import draw_case
from repro.detectors.base import sample_run_history


def _kw(**kwargs):
    return tuple(sorted(kwargs.items()))


FAST_HONEST = ChaosConfig(
    name="test-nuc-honest",
    kind="consensus",
    algorithm="anuc",
    detector=anuc_detector,
    case_kwargs=_kw(ns=(3,)),
    max_steps=6000,
    budget=15_000,
)

FAST_CRASHED = ChaosConfig(
    name="test-omega-crashed",
    kind="consensus",
    algorithm="anuc",
    detector=crashed_omega_detector,
    expected=frozenset({"termination"}),
    primary="termination",
    case_kwargs=_kw(ns=(3,), min_faulty=1, max_crash_time=0),
    max_steps=1500,
    budget=4000,
)

FAST_SPLIT = ChaosConfig(
    name="test-split-quorums",
    kind="consensus",
    algorithm="naive-sigma-nu",
    detector=split_quorum_detector,
    expected=frozenset({"nonuniform agreement", "uniform agreement"}),
    primary="nonuniform agreement",
    case_kwargs=_kw(
        ns=(4, 5, 6),
        min_correct=2,
        proposal_style="split-halves",
    ),
    max_steps=8000,
    budget=120_000,
)

FAST_REGISTER = ChaosConfig(
    name="test-register-honest",
    kind="register",
    algorithm="abd",
    detector=register_detector,
    case_kwargs=_kw(ns=(3,), proposal_style="register"),
    max_steps=6000,
    budget=15_000,
)


def counting_detector(factory, calls):
    """``factory`` whose detectors append to ``calls`` per sampled history."""

    def make():
        detector = factory()
        sample = detector.sample_history

        def counted(pattern, rng):
            calls.append(pattern)
            return sample(pattern, rng)

        detector.sample_history = counted
        return detector

    return make


class TestExecuteCase:
    def test_deterministic(self):
        """Reruns agree, and so does the judging body given the history
        sampled for the case's run."""
        case = draw_case(
            "test-nuc-honest", seed=0, index=0, ns=(3,), max_steps=6000
        )
        a = execute_case(FAST_HONEST, case)
        history = sample_run_history(
            FAST_HONEST.detector(), case.pattern(), case.run_seed()
        )
        for b in (
            execute_case(FAST_HONEST, case),
            judge_case(FAST_HONEST, case, history),
        ):
            assert a.signature == b.signature
            assert a.steps == b.steps
            assert a.violations == b.violations

    def test_honest_consensus_case_clean(self):
        case = draw_case(
            "test-nuc-honest", seed=0, index=0, ns=(3,), max_steps=6000
        )
        outcome = execute_case(FAST_HONEST, case)
        assert outcome.violations == ()
        assert outcome.signature[0] == "stop_condition"

    def test_full_trace_returns_schedule(self):
        case = draw_case(
            "test-nuc-honest", seed=0, index=0, ns=(3,), max_steps=6000
        )
        outcome = execute_case(FAST_HONEST, case, trace="full")
        assert len(outcome.schedule) == outcome.steps
        assert set(outcome.schedule) <= set(range(case.n))
        # The pid schedule is invisible to the metrics-mode signature.
        assert outcome.signature == execute_case(FAST_HONEST, case).signature

    def test_crashed_leader_blocks(self):
        case = draw_case(
            "test-omega-crashed",
            seed=0,
            index=0,
            ns=(3,),
            max_steps=1500,
            min_faulty=1,
            max_crash_time=0,
        )
        outcome = execute_case(FAST_CRASHED, case)
        props = {v.property for v in outcome.violations}
        assert "termination" in props
        assert props <= set(PROPERTIES)

    def test_unknown_kind_rejected(self):
        bad = dataclasses.replace(FAST_HONEST, kind="martian")
        case = draw_case("t", seed=0, index=0, ns=(3,), max_steps=100)
        with pytest.raises(ValueError):
            execute_case(bad, case)

    def test_unknown_algorithm_rejected(self):
        bad = dataclasses.replace(FAST_HONEST, algorithm="martian")
        case = draw_case("t", seed=0, index=0, ns=(3,), max_steps=100)
        with pytest.raises(ValueError):
            execute_case(bad, case)

    def test_termination_recheck_discards_starvation_artifacts(self):
        """An adversarially weighted schedule can starve one process past
        any finite budget; the fair-environment recheck must discard the
        suggested termination violation for non-liveness-attack configs.
        The recheck runs over the case's history, sampled once."""
        calls = []
        counted = dataclasses.replace(
            FAST_HONEST, detector=counting_detector(FAST_HONEST.detector, calls)
        )
        starved = dataclasses.replace(
            draw_case(
                "test-nuc-honest", seed=0, index=0, ns=(3,), max_steps=400
            ),
            scheduler=("weighted", ((0, 0.05), (1, 20.0), (2, 20.0)), 4096),
            delivery=("per-sender-fifo", 0.9, 60),
        )
        outcome = execute_case(counted, starved)
        assert not any(
            v.property == "termination" for v in outcome.violations
        )
        assert outcome.steps > starved.max_steps  # the fair rerun's steps
        assert len(calls) == 1

    def test_liveness_attack_rows_keep_raw_findings(self):
        """For configs that *expect* termination violations the bounded-fair
        fuzzed run is the witness; no fair-environment recheck applies."""
        case = draw_case(
            "test-omega-crashed",
            seed=0,
            index=0,
            ns=(3,),
            max_steps=1500,
            min_faulty=1,
            max_crash_time=0,
        )
        outcome = execute_case(FAST_CRASHED, case)
        # The crashed-leader lie blocks under *any* schedule, so the raw
        # finding stands and the steps are the single run's.
        assert outcome.steps == 1500


class TestFuzzLoop:
    def test_bit_identical_reruns(self):
        a = fuzz_config(FAST_HONEST, seed=3)
        b = fuzz_config(FAST_HONEST, seed=3)
        assert a.cases == b.cases
        assert a.steps == b.steps
        assert a.corpus_size == b.corpus_size
        assert a.violations == b.violations
        assert a.exhausted and b.exhausted

    def test_honest_config_exhausts_clean(self):
        report = fuzz_config(FAST_HONEST, seed=0)
        assert report.exhausted
        assert report.violations == []
        assert report.found == frozenset()
        assert report.cases >= 2

    def test_stop_on_primary(self):
        report = fuzz_config(
            FAST_CRASHED, seed=0, stop_on="termination"
        )
        assert not report.exhausted
        assert report.first("termination") is not None
        assert report.first("validity") is None

    def test_max_cases_bounds_the_loop(self):
        report = fuzz_config(FAST_HONEST, seed=0, max_cases=1)
        assert report.cases == 1

    def test_budget_override(self):
        report = fuzz_config(FAST_HONEST, seed=0, budget=1)
        assert report.budget == 1
        assert report.cases == 1  # one case always executes

    def test_split_quorums_finds_disagreement(self):
        report = fuzz_config(
            FAST_SPLIT, seed=0, stop_on="nonuniform agreement"
        )
        violation = report.first("nonuniform agreement")
        assert violation is not None
        assert report.found <= FAST_SPLIT.expected
        assert "decided differently" in violation.message

    def test_register_honest_clean(self):
        report = fuzz_config(FAST_REGISTER, seed=0)
        assert report.exhausted
        assert report.violations == []

    def test_obs_enabled_report_identical(self):
        """Observability adds a span and counters, never a different report."""
        config = CONFIGS["ct-honest"]
        kwargs = dict(seed=2, budget=3000)
        plain = fuzz_config(config, **kwargs)
        obs.enable(fresh_metrics=True)
        try:
            traced = fuzz_config(config, **kwargs)
            assert obs.metrics().snapshot()["counters"]["chaos.cases"] > 0
        finally:
            obs.disable()
            obs.reset_metrics()
        assert traced == plain


class TestRegistryConfigs:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_one_case_executes(self, name):
        """Every registry config's first drawn case executes end to end
        (capped tightly: this is a smoke test, not the matrix)."""
        config = CONFIGS[name]
        small = dataclasses.replace(config, max_steps=600)
        case = draw_case(
            config.name, seed=0, index=0, max_steps=600, **config.draw_kwargs()
        )
        outcome = execute_case(small, case)
        assert outcome.steps <= 2 * 600  # original plus at most one recheck
        assert {v.property for v in outcome.violations} <= set(PROPERTIES)
