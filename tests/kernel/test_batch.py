"""Oracle for ``repro.kernel.batch``: every lane equals ``System.run()``.

``BatchSystem`` has one contract — for every spec it returns exactly the
``RunResult`` the interpreted ``System.run()`` produces from the same
configuration and seed — and one routing rule: the shape the perf ledger
measures runs on the fused loop, everything else *is* a ``System.run()``.
These tests enforce the contract over hand-picked corners and the chaos
fuzzer's own case space (via hypothesis), and the rule with a table of
single deviations from the measured shape.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.consensus.chandra_toueg import ChandraTouegS
from repro.consensus.mostefaoui_raynal import MostefaouiRaynal
from repro.consensus.quorum_mr import NaiveSigmaNuConsensus, QuorumMR
from repro.detectors import (
    EventuallyPerfect,
    Omega,
    PairedDetector,
    Sigma,
    SigmaNu,
)
from repro.detectors.base import FunctionalHistory, sample_run_history
from repro.kernel.automaton import AutomatonProcess
from repro.kernel.batch import BatchSystem, LaneSpec, probe_spec
from repro.kernel.failures import FailurePattern
from repro.kernel.messages import build_delivery
from repro.kernel.scheduler import RoundRobinScheduler, build_scheduler
from repro.kernel.system import System, all_correct_decided
from tests.strategies import fuzz_cases

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def serial_reference(spec):
    """Run ``spec`` on the interpreted engine — the oracle's ground truth."""
    processes = {
        p: AutomatonProcess(spec.automaton, spec.proposals[p])
        for p in range(spec.pattern.n)
    }
    system = System(
        processes,
        spec.pattern,
        spec.history,
        scheduler=build_scheduler(spec.scheduler) if spec.scheduler else None,
        delivery=build_delivery(spec.delivery) if spec.delivery else None,
        seed=spec.seed,
        trace=spec.trace,
    )
    stop = all_correct_decided if spec.stop == "all-correct-decided" else None
    return system.run(
        max_steps=spec.max_steps, stop_when=stop, extra_steps=spec.extra_steps
    )


def assert_identical(ref, got):
    """Full RunResult equality, field by field so a failure names the field."""
    assert [s.pid for s in ref.steps] == [s.pid for s in got.steps]
    assert ref.steps == got.steps
    # items() comparisons also pin dict *insertion order*: downstream
    # consumers iterate these dicts, so byte-identity needs it.
    assert list(ref.decisions.items()) == list(got.decisions.items())
    assert list(ref.decision_times.items()) == list(got.decision_times.items())
    assert ref.queried == got.queried
    assert ref.stop_reason == got.stop_reason
    assert ref.final_time == got.final_time
    assert ref.total_steps == got.total_steps
    assert ref.messages_sent == got.messages_sent
    assert ref.messages_delivered == got.messages_delivered
    assert ref.outputs == got.outputs
    assert ref.initial_outputs == got.initial_outputs
    assert ref == got


PATTERN = FailurePattern(5, {})
PATTERN_CRASH = FailurePattern(5, {1: 40, 4: 0})
PROPS = {p: p % 2 for p in range(5)}
PAIRED = PairedDetector(Omega(), Sigma("pivot"))


def paired_history(pattern, seed):
    return sample_run_history(PAIRED, pattern, seed)


def measured_spec(**overrides):
    """The shape ``kernel_lanes`` measures — the one the rule fuses."""
    base = dict(
        pattern=PATTERN,
        history=paired_history(PATTERN, 2),
        seed=2,
        max_steps=300,
        automaton=QuorumMR(),
        proposals=PROPS,
        trace="metrics",
    )
    base.update(overrides)
    return LaneSpec(**base)


def corner_specs():
    """Fused-shape lanes with every stop/crash/parameter corner, plus
    interpreted lanes for each other policy, trace mode and automaton."""
    specs = []
    for seed in (0, 3):
        h = paired_history(PATTERN, seed)
        hc = paired_history(PATTERN_CRASH, seed)
        om = sample_run_history(Omega(), PATTERN_CRASH, seed)
        nu = sample_run_history(
            PairedDetector(Omega(), SigmaNu()), PATTERN_CRASH, seed
        )
        specs += [
            # The measured shape: full budget, stop condition, crashes +
            # extra steps, non-default policy parameters, both exact types.
            LaneSpec(PATTERN, h, seed, 400, QuorumMR(), PROPS),
            LaneSpec(PATTERN, h, seed, 4000, QuorumMR(), PROPS,
                     stop="all-correct-decided"),
            LaneSpec(PATTERN_CRASH, hc, seed, 4000, QuorumMR(), PROPS,
                     stop="all-correct-decided", extra_steps=13),
            LaneSpec(PATTERN, h, seed, 400, QuorumMR(), PROPS,
                     scheduler=("random-fair", 16),
                     delivery=("fair-random", 0.4, 20)),
            LaneSpec(PATTERN_CRASH, nu, seed, 600, NaiveSigmaNuConsensus(),
                     PROPS, scheduler=("random-fair", 8),
                     stop="all-correct-decided"),
            # Interpreted: full trace, the other policies, majority MR.
            LaneSpec(PATTERN_CRASH, hc, seed, 400, QuorumMR(), PROPS,
                     trace="full", stop="all-correct-decided",
                     extra_steps=13),
            LaneSpec(PATTERN_CRASH, hc, seed, 400, QuorumMR(), PROPS,
                     scheduler=("round-robin",), delivery=("oldest-first",)),
            LaneSpec(PATTERN, h, seed, 400, QuorumMR(), PROPS,
                     scheduler=("weighted",
                                ((0, 3.0), (1, 1.0), (2, 1.0), (3, 1.0),
                                 (4, 0.5)), 128),
                     delivery=("per-sender-fifo", 0.2, 60), trace="full"),
            LaneSpec(PATTERN_CRASH, om, seed, 600, MostefaouiRaynal(), PROPS,
                     stop="all-correct-decided"),
        ]
    return specs


class TestCornerMatrix:
    def test_every_supported_config_is_bit_identical(self):
        specs = corner_specs()
        batch = BatchSystem(specs)
        assert batch.stats["fast"] == 10 and batch.stats["fallback"] == 8
        results = batch.run()
        for spec, got in zip(specs, results):
            assert_identical(serial_reference(spec), got)

    def test_zero_budget_and_empty_correct_set_corners(self):
        zero = measured_spec(max_steps=0)
        all_faulty = FailurePattern(3, {0: 10, 1: 10, 2: 10})
        crashed = measured_spec(
            pattern=all_faulty,
            history=paired_history(all_faulty, 1),
            seed=1,
            max_steps=500,
            proposals={0: 0, 1: 1, 2: 0},
            stop="all-correct-decided",
        )
        for spec in (zero, crashed):
            batch = BatchSystem([spec])
            assert batch.stats["fast"] == 1
            assert_identical(serial_reference(spec), batch.run()[0])

    def test_lanes_retire_independently(self):
        # Different budgets per lane: early lanes must not perturb the
        # long one and results come back in spec order.
        specs = [
            measured_spec(
                history=paired_history(PATTERN, s), seed=s, max_steps=steps
            )
            for s, steps in ((0, 50), (1, 700), (2, 120))
        ]
        results = BatchSystem(specs).run()
        assert [r.total_steps for r in results] == [50, 700, 120]
        for spec, got in zip(specs, results):
            assert_identical(serial_reference(spec), got)


class TestHypothesisOracle:
    @SETTINGS
    @given(data=st.data())
    def test_fuzz_case_space_is_bit_identical(self, data):
        """Lanes drawn from the chaos fuzzer's own case space reproduce the
        interpreted engine exactly — whichever way the rule routes them."""
        case = data.draw(fuzz_cases(max_steps=400))
        pattern = FailurePattern(case.n, dict(case.crash_times))
        algorithms = [
            (QuorumMR(), PAIRED),
            (NaiveSigmaNuConsensus(), PairedDetector(Omega(), SigmaNu())),
            (MostefaouiRaynal(), Omega()),
        ]
        scheduler, delivery = case.scheduler, case.delivery
        traces = ["metrics", "full"]
        if data.draw(st.booleans(), label="fused_shape"):
            # Half the examples keep the case's crashes, proposals and seed
            # but take the fused shape's algorithm, policies and trace mode,
            # so the fused loop sits under the oracle as often as the
            # interpreted path.
            del algorithms[2], traces[1]
            scheduler = data.draw(
                st.sampled_from([None, ("random-fair", 8), ("random-fair", 64)])
            )
            delivery = data.draw(
                st.sampled_from(
                    [None, ("fair-random", 0.15, 15), ("fair-random", 0.9, 80)]
                )
            )
        automaton, detector = data.draw(
            st.sampled_from(algorithms), label="algorithm"
        )
        spec = LaneSpec(
            pattern,
            sample_run_history(detector, pattern, case.run_seed()),
            case.run_seed(),
            min(case.max_steps, 400),
            automaton,
            dict(case.proposals),
            scheduler=scheduler,
            delivery=delivery,
            trace=data.draw(st.sampled_from(traces)),
            stop=data.draw(st.sampled_from([None, "all-correct-decided"])),
            extra_steps=data.draw(st.sampled_from([0, 7])),
        )
        got = BatchSystem([spec]).run()[0]
        assert_identical(serial_reference(spec), got)

    @SETTINGS
    @given(data=st.data())
    def test_lane_results_do_not_depend_on_batch_packing(self, data):
        """A lane's result is identical whether it runs alone or packed
        with other lanes, fused and interpreted mixed — lanes are
        genuinely independent."""
        seeds = data.draw(
            st.lists(st.integers(0, 10**6), min_size=2, max_size=5, unique=True)
        )
        specs = [
            measured_spec(
                history=paired_history(PATTERN, s),
                seed=s,
                max_steps=250,
                trace=data.draw(st.sampled_from(["metrics", "full"])),
            )
            for s in seeds
        ]
        packed = BatchSystem(specs).run()
        for spec, got in zip(specs, packed):
            assert_identical(BatchSystem([spec]).run()[0], got)
            assert_identical(serial_reference(spec), got)


class _OverridingQuorumMR(QuorumMR):
    """A subclass may override the hooks the fused loop inlines."""

    def leader_of(self, d):
        return 0


#: (reason, overrides of the measured shape) — one deviation per row.  The
#: deviations that need more than a keyword (deferred crashes, a functional
#: history, a scripted scheduler, observability) have their own tests below.
DEVIATIONS = [
    ("automaton", dict(automaton=MostefaouiRaynal(),
                       history=sample_run_history(Omega(), PATTERN, 2))),
    ("automaton", dict(automaton=ChandraTouegS(),
                       history=sample_run_history(
                           EventuallyPerfect(), PATTERN, 2))),
    ("automaton", dict(automaton=_OverridingQuorumMR())),
    ("scheduler", dict(scheduler=("round-robin",))),
    ("scheduler", dict(
        scheduler=("weighted", tuple((p, 1.0 + p) for p in range(5)), 64))),
    ("delivery", dict(delivery=("oldest-first",))),
    ("delivery", dict(delivery=("per-sender-fifo", 0.25, 40))),
    ("delivery", dict(delivery=("coalescing", ("fair-random", 0.25, 40)))),
    ("trace", dict(trace="full")),
]


class TestCapabilityProbeAndFallback:
    def _assert_interpreted(self, spec, reason):
        """``spec`` packed next to a fused lane: routed by ``reason``,
        counted, and equal to ``System.run()``; returns its result."""
        assert probe_spec(spec) == reason
        batch = BatchSystem([measured_spec(), spec])
        stats = batch.stats
        assert stats["fallback_reasons"] == {reason: 1}
        assert (stats["fast"], stats["fallback"]) == (1, 1)
        assert stats["fast"] + stats["fallback"] == stats["lanes"]
        return batch.run()[1]

    def test_supported_probe_is_none(self):
        for spec in (
            measured_spec(),
            measured_spec(automaton=NaiveSigmaNuConsensus()),
            measured_spec(scheduler=("random-fair", 8),
                          delivery=("fair-random", 0.6, 15)),
        ):
            assert probe_spec(spec) is None
            batch = BatchSystem([spec])
            assert batch.stats["fast"] == 1 and batch.stats["fallback"] == 0
            assert batch.stats["fallback_reasons"] == {}
            assert_identical(serial_reference(spec), batch.run()[0])
            assert batch.stats["waves"] == 1

    @pytest.mark.parametrize(
        "reason,overrides", DEVIATIONS,
        ids=[f"{i}-{reason}" for i, (reason, _) in enumerate(DEVIATIONS)],
    )
    def test_single_deviation_runs_interpreted(self, reason, overrides):
        spec = measured_spec(**overrides)
        got = self._assert_interpreted(spec, reason)
        assert_identical(serial_reference(spec), got)

    def test_scripted_scheduler_falls_back_and_matches(self):
        spec = measured_spec(
            scheduler=("scripted", (0, 1, 2, 3, 4) * 8, ("random-fair", 64))
        )
        got = self._assert_interpreted(spec, "scheduler")
        assert_identical(serial_reference(spec), got)

    def test_functional_history_falls_back(self):
        spec = measured_spec(
            history=FunctionalHistory(lambda p, t: (0, frozenset({0, 1, 2})))
        )
        got = self._assert_interpreted(spec, "history")
        assert_identical(serial_reference(spec), got)

    def test_obs_enabled_forces_fallback_with_counter(self):
        spec = measured_spec()
        obs.enable(fresh_metrics=True)
        try:
            assert probe_spec(spec) == "obs-enabled"
            batch = BatchSystem([spec])
            assert batch.stats["fallback_reasons"] == {"obs-enabled": 1}
            assert obs.metrics().snapshot()["counters"]["batch.fallback"] == 1
            got = batch.run()[0]
        finally:
            obs.disable()
        assert_identical(serial_reference(spec), got)

    def test_instances_are_rejected(self):
        with pytest.raises(ValueError, match="spec tuple"):
            measured_spec(scheduler=RoundRobinScheduler())
        with pytest.raises(ValueError, match="spec tuple"):
            measured_spec(delivery=build_delivery(("oldest-first",)))

    def test_spec_validation(self):
        with pytest.raises(TypeError):
            LaneSpec(PATTERN, paired_history(PATTERN, 0), 0, 10)
        with pytest.raises(ValueError, match="stop"):
            measured_spec(stop="whenever")
        with pytest.raises(ValueError, match="trace"):
            measured_spec(trace="everything")

    def test_run_twice_executes_once(self):
        """``run(); run()`` returns the retained results; nothing is
        re-executed or double-counted."""
        batch = BatchSystem([measured_spec(), measured_spec(trace="full")])
        first = batch.run()
        stats = dict(batch.stats)
        assert stats["steps"] == sum(r.total_steps for r in first) == 600
        assert stats["waves"] == 1
        second = batch.run()
        assert second == first
        assert all(a is b for a, b in zip(first, second))
        assert batch.stats == stats


class TestWaveStats:
    """``stats["waves"]`` and what a traced batch records."""

    def test_traced_batch_bit_identical_with_span_and_fallback_events(self):
        specs = corner_specs()[:4]
        ref = BatchSystem(specs).run()
        obs.enable(fresh_metrics=True)
        try:
            batch = BatchSystem(specs)
            got = batch.run()
            records = list(obs.tracer().records)
        finally:
            obs.disable()
        assert got == ref
        # Tracing routes every lane to the interpreted engine ...
        assert batch.stats["fallback"] == len(specs)
        assert batch.stats["waves"] == 0
        # ... and the trace names the run and each interpreted lane.
        spans = [
            r for r in records
            if r.get("type") == "span" and r["name"] == "batch.run"
        ]
        assert len(spans) == 1
        assert spans[0]["attrs"]["fallback"] == len(specs)
        events = [
            r for r in records
            if r.get("type") == "event" and r["name"] == "batch.fallback"
        ]
        assert [e["attrs"]["lane"] for e in events] == list(range(len(specs)))
        assert {e["attrs"]["reason"] for e in events} == {"obs-enabled"}
