"""One-shot experiment runners.

Each function wires a complete live run — processes, detector history,
scheduler, delivery, failure pattern — executes it, and returns a structured
outcome with the run result, property-check verdicts and cost metrics.  The
experiment sweeps in :mod:`repro.harness.experiments`, the examples and the
benchmarks are all thin loops over these runners.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Sequence

from repro.analysis.metrics import (
    RunMetrics,
    collect_metrics,
    collect_search_counters,
)
from repro.consensus.interface import ConsensusOutcome, consensus_outcome
from repro.consensus.properties import (
    PropertyReport,
    check_nonuniform_consensus,
    check_uniform_consensus,
)
from repro.core.boosting import SigmaNuPlusBooster
from repro.core.extraction import ExtractionSearch, SigmaNuExtractor
from repro.core.nuc import AnucAutomaton
from repro.core.stack import StackedNucProcess
from repro.detectors.base import (
    FailureDetector,
    History,
    RecordedHistory,
    sample_run_history,
)
from repro.detectors.checkers import (
    CheckResult,
    check_sigma,
    check_sigma_nu,
    check_sigma_nu_plus,
)
from repro.detectors.emulated import recorded_output_history
from repro.detectors.omega import Omega
from repro.detectors.paired import PairedDetector
from repro.detectors.sigma import Sigma
from repro.detectors.sigma_nu import SigmaNu
from repro.detectors.sigma_nu_plus import SigmaNuPlus
from repro.kernel.automaton import Automaton, AutomatonProcess, Process
from repro.kernel.failures import FailurePattern
from repro.kernel.messages import CoalescingDelivery, DeliveryPolicy
from repro.kernel.scheduler import SchedulingPolicy
from repro.kernel.system import RunResult, System
from repro import obs as _obs


def _observed(kind: str, n: int, seed: int, thunk: Callable[[], Any]) -> Any:
    """Run a runner body under a ``runner.<kind>`` span when tracing is on."""
    if not _obs._ENABLED:
        return thunk()
    reg = _obs.metrics()
    reg.inc("runner.runs")
    reg.inc(f"runner.{kind}")
    with _obs.tracer().span(f"runner.{kind}", n=n, seed=seed):
        return thunk()


def random_pattern(
    n: int,
    rng: random.Random,
    max_faulty: Optional[int] = None,
    max_crash_time: int = 60,
) -> FailurePattern:
    """A random pattern with at most ``max_faulty`` crashes (default n-1)."""
    bound = n - 1 if max_faulty is None else max_faulty
    crashed = rng.sample(range(n), rng.randint(0, bound))
    return FailurePattern(n, {p: rng.randint(0, max_crash_time) for p in crashed})


def random_binary_proposals(n: int, rng: random.Random) -> Dict[int, int]:
    proposals = {p: rng.choice([0, 1]) for p in range(n)}
    return proposals


# ----------------------------------------------------------------------
# Consensus runners
# ----------------------------------------------------------------------


@dataclass
class ConsensusRunOutcome:
    """A consensus run plus its verdicts and costs."""

    result: RunResult
    outcome: ConsensusOutcome
    nonuniform: PropertyReport
    uniform: PropertyReport
    metrics: RunMetrics

    @property
    def ok(self) -> bool:
        return bool(self.nonuniform) and self.result.stop_reason == "stop_condition"


def _finish_consensus(
    system: System,
    proposals: Mapping[int, Any],
    max_steps: int,
) -> ConsensusRunOutcome:
    result = system.run(
        max_steps=max_steps, stop_when=lambda s: s.all_correct_decided()
    )
    outcome = consensus_outcome(result, proposals)
    return ConsensusRunOutcome(
        result=result,
        outcome=outcome,
        nonuniform=check_nonuniform_consensus(outcome),
        uniform=check_uniform_consensus(outcome),
        metrics=collect_metrics(result),
    )


def run_consensus_algorithm(
    automaton: Automaton,
    detector: FailureDetector,
    pattern: FailurePattern,
    proposals: Mapping[int, Any],
    seed: int = 0,
    max_steps: int = 20000,
    scheduler: Optional[SchedulingPolicy] = None,
    delivery: Optional[DeliveryPolicy] = None,
    trace: str = "full",
) -> ConsensusRunOutcome:
    """Run a pure-automaton consensus algorithm live."""

    def go() -> ConsensusRunOutcome:
        history = sample_run_history(detector, pattern, seed)
        processes = {
            p: AutomatonProcess(automaton, proposals[p]) for p in range(pattern.n)
        }
        system = System(
            processes,
            pattern,
            history,
            seed=seed,
            scheduler=scheduler,
            delivery=delivery,
            trace=trace,
        )
        return _finish_consensus(system, proposals, max_steps)

    return _observed("consensus", pattern.n, seed, go)


def run_nuc(
    pattern: FailurePattern,
    proposals: Mapping[int, Any],
    seed: int = 0,
    max_steps: int = 30000,
    detector: Optional[FailureDetector] = None,
    trace: str = "full",
) -> ConsensusRunOutcome:
    """Run A_nuc with a synthetic (Omega, Sigma^nu+) history (Thm 6.27)."""

    def go() -> ConsensusRunOutcome:
        d = PairedDetector(Omega(), SigmaNuPlus()) if detector is None else detector
        history = sample_run_history(d, pattern, seed)
        processes = {
            p: AutomatonProcess(AnucAutomaton(), proposals[p])
            for p in range(pattern.n)
        }
        system = System(processes, pattern, history, seed=seed, trace=trace)
        return _finish_consensus(system, proposals, max_steps)

    return _observed("nuc", pattern.n, seed, go)


@dataclass
class StackRunOutcome(ConsensusRunOutcome):
    """The full-stack run also validates the emulated Sigma^nu+ history."""

    boosted_check: CheckResult = None  # type: ignore[assignment]


def run_stack(
    pattern: FailurePattern,
    proposals: Mapping[int, Any],
    seed: int = 0,
    max_steps: int = 60000,
    detector: Optional[FailureDetector] = None,
    trace: str = "full",
) -> StackRunOutcome:
    """Run the composed (Omega, Sigma^nu) solver (Thm 6.28)."""

    def go() -> StackRunOutcome:
        d = PairedDetector(Omega(), SigmaNu()) if detector is None else detector
        history = sample_run_history(d, pattern, seed)
        processes = {
            p: StackedNucProcess(proposals[p], pattern.n) for p in range(pattern.n)
        }
        system = System(
            processes,
            pattern,
            history,
            seed=seed,
            delivery=CoalescingDelivery(),
            trace=trace,
        )
        base = _finish_consensus(system, proposals, max_steps)
        recorded = recorded_output_history(base.result)
        boosted = check_sigma_nu_plus(recorded, pattern, horizon=recorded.horizon)
        return StackRunOutcome(
            result=base.result,
            outcome=base.outcome,
            nonuniform=base.nonuniform,
            uniform=base.uniform,
            metrics=base.metrics,
            boosted_check=boosted,
        )

    return _observed("stack", pattern.n, seed, go)


# ----------------------------------------------------------------------
# Transformation runners
# ----------------------------------------------------------------------


@dataclass
class BoostRunOutcome:
    """A booster run plus the Sigma^nu+ verdict on its emitted history."""

    result: RunResult
    recorded: RecordedHistory
    check: CheckResult
    metrics: RunMetrics

    @property
    def ok(self) -> bool:
        return bool(self.check) and self.result.stop_reason == "stop_condition"


def run_boosting(
    pattern: FailurePattern,
    seed: int = 0,
    max_steps: int = 8000,
    min_outputs: int = 8,
    extra_steps: int = 200,
    detector: Optional[FailureDetector] = None,
    trace: str = "full",
) -> BoostRunOutcome:
    """Run T_{Sigma^nu -> Sigma^nu+} over a synthetic Sigma^nu history."""

    def go() -> BoostRunOutcome:
        d = SigmaNu() if detector is None else detector
        history = sample_run_history(d, pattern, seed)
        processes = {p: SigmaNuPlusBooster(pattern.n) for p in range(pattern.n)}
        system = System(
            processes,
            pattern,
            history,
            seed=seed,
            delivery=CoalescingDelivery(),
            trace=trace,
        )
        result = system.run(
            max_steps=max_steps,
            stop_when=lambda s: s.correct_output_count(min_outputs),
            extra_steps=extra_steps,
        )
        recorded = recorded_output_history(result)
        check = check_sigma_nu_plus(recorded, pattern, horizon=recorded.horizon)
        return BoostRunOutcome(
            result=result,
            recorded=recorded,
            check=check,
            metrics=collect_metrics(result),
        )

    return _observed("boosting", pattern.n, seed, go)


@dataclass
class ExtractionRunOutcome:
    """An extraction run plus Sigma^nu (and Sigma) verdicts."""

    result: RunResult
    recorded: RecordedHistory
    sigma_nu_check: CheckResult
    sigma_check: CheckResult
    metrics: RunMetrics
    #: Merged trie/search work counters of the extractor processes
    #: (``None`` on the from-scratch search path).
    search_counters: Optional[Dict[str, int]] = None

    @property
    def ok(self) -> bool:
        return bool(self.sigma_nu_check) and self.result.stop_reason == "stop_condition"


def run_extraction(
    subject: Automaton,
    detector: FailureDetector,
    pattern: FailurePattern,
    seed: int = 0,
    max_steps: int = 4000,
    min_outputs: int = 3,
    extra_steps: int = 150,
    search: Optional[ExtractionSearch] = None,
    trace: str = "full",
) -> ExtractionRunOutcome:
    """Run T_{D -> Sigma^nu} with subject algorithm ``subject`` over ``D``.

    The emitted history is checked against Sigma^nu (Thm 5.4) *and* against
    full Sigma (Thm 5.8 — expected to pass when the subject solves uniform
    consensus with ``D``).
    """

    def go() -> ExtractionRunOutcome:
        history = sample_run_history(detector, pattern, seed)
        processes = {
            p: SigmaNuExtractor(subject, pattern.n, search=search)
            for p in range(pattern.n)
        }
        system = System(
            processes,
            pattern,
            history,
            seed=seed,
            delivery=CoalescingDelivery(),
            trace=trace,
        )
        result = system.run(
            max_steps=max_steps,
            stop_when=lambda s: s.correct_output_count(min_outputs),
            extra_steps=extra_steps,
        )
        recorded = recorded_output_history(result)
        return ExtractionRunOutcome(
            result=result,
            recorded=recorded,
            sigma_nu_check=check_sigma_nu(recorded, pattern, horizon=recorded.horizon),
            sigma_check=check_sigma(recorded, pattern, horizon=recorded.horizon),
            metrics=collect_metrics(result),
            search_counters=collect_search_counters(processes.values()),
        )

    return _observed("extraction", pattern.n, seed, go)


def run_from_scratch_sigma(
    n: int,
    t: int,
    pattern: FailurePattern,
    seed: int = 0,
    max_steps: int = 6000,
    min_outputs: int = 6,
    extra_steps: int = 200,
    trace: str = "full",
) -> BoostRunOutcome:
    """Run the detector-free Sigma implementation (Thm 7.1, IF direction).

    Returns a :class:`BoostRunOutcome` whose check is against **Sigma**.
    """
    from repro.separation.from_scratch_sigma import FromScratchSigma

    def go() -> BoostRunOutcome:
        processes = {p: FromScratchSigma(n, t) for p in range(n)}
        system = System(
            processes,
            pattern,
            history=lambda p, t_: None,  # no failure detector at all
            seed=seed,
            trace=trace,
        )
        result = system.run(
            max_steps=max_steps,
            stop_when=lambda s: s.correct_output_count(min_outputs),
            extra_steps=extra_steps,
        )
        recorded = recorded_output_history(result)
        check = check_sigma(recorded, pattern, horizon=recorded.horizon)
        return BoostRunOutcome(
            result=result,
            recorded=recorded,
            check=check,
            metrics=collect_metrics(result),
        )

    return _observed("from_scratch_sigma", n, seed, go)
