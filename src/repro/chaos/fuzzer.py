"""Coverage-guided schedule fuzzer driving property checkers as oracles.

One :class:`ChaosConfig` names a (algorithm, detector, environment) triple
plus the properties its runs are *expected* to violate (empty for honest
detectors).  :func:`fuzz_config` explores the case space of
:mod:`repro.chaos.space` under a total kernel-step budget, executing every
case through the live kernel and judging the finished run with the
repository's independent property checkers:

* ``consensus`` runs — :func:`repro.consensus.properties.check_nonuniform_consensus`
  / ``check_uniform_consensus``;
* ``register`` runs — :func:`repro.registers.properties.check_register_safety`;
* ``smr`` runs — :func:`repro.smr.properties.check_smr`.

Coverage guidance is a corpus of cases whose runs produced a previously
unseen *signature* (stop reason, decision spread, violated properties, step
bucket); half of the draws mutate a corpus case, the rest explore fresh.
Everything is a pure function of ``(config, seed)`` — reruns are
bit-identical, which ``benchmarks/check_determinism.py --chaos`` gates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from dataclasses import replace as _dc_replace
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.chaos.space import FuzzCase, draw_case, mutate_case
from repro.consensus.interface import consensus_outcome
from repro.consensus.properties import (
    check_nonuniform_consensus,
    check_uniform_consensus,
)
from repro.detectors.base import FailureDetector, History, sample_run_history
from repro.kernel.automaton import AutomatonProcess
from repro.kernel.messages import build_delivery
from repro.kernel.scheduler import build_scheduler
from repro.kernel.system import RunResult, System
from repro import obs as _obs

#: The run-property vocabulary (the ``property`` field of a violation).
PROPERTIES = (
    "termination",
    "nonuniform agreement",
    "uniform agreement",
    "validity",
    "register safety",
    "smr safety",
)


@dataclass(frozen=True)
class Violation:
    """One property violation exhibited by one executed fuzz case."""

    config: str
    property: str
    message: str
    case: FuzzCase
    steps: int

    def __repr__(self) -> str:
        return (
            f"Violation({self.config}: {self.property} @ case "
            f"{self.case.index}, {self.steps} steps)"
        )


@dataclass(frozen=True)
class ChaosConfig:
    """One fuzzable scenario: algorithm + detector + environment + oracle.

    ``detector`` (and ``honest``, its uninjected counterpart) are
    module-level zero-argument factories so configs stay picklable for the
    parallel sweep driver.  ``expected`` is the set of run properties the
    injected lie may break — the matrix asserts the fuzzer finds the
    ``primary`` one and nothing outside ``expected``.  Honest configs have
    ``expected == frozenset()`` and must exhaust their budget clean.
    """

    name: str
    kind: str  # "consensus" | "register" | "smr"
    algorithm: str  # "anuc" | "ct" | "naive-sigma-nu" | "abd" | "replicated-log"
    detector: Callable[[], FailureDetector]
    honest: Optional[Callable[[], FailureDetector]] = None
    injector: Optional[type] = None
    expected: FrozenSet[str] = frozenset()
    primary: Optional[str] = None
    case_kwargs: Tuple[Tuple[str, Any], ...] = ()
    max_steps: int = 30000
    budget: int = 150_000
    description: str = ""

    def draw_kwargs(self) -> Dict[str, Any]:
        return dict(self.case_kwargs)

    def mutate_kwargs(self) -> Dict[str, Any]:
        kwargs = dict(self.case_kwargs)
        kwargs.pop("ns", None)
        return kwargs


@dataclass(frozen=True)
class CaseOutcome:
    """One executed fuzz case: its violations and coverage signature."""

    case: FuzzCase
    violations: Tuple[Violation, ...]
    steps: int
    signature: Tuple[Any, ...]
    schedule: Tuple[int, ...] = ()  # pid step order; only under trace="full"


@dataclass
class FuzzReport:
    """Outcome of one budgeted fuzz run over a config."""

    config: str
    seed: int
    budget: int
    cases: int = 0
    steps: int = 0
    corpus_size: int = 0
    exhausted: bool = False
    violations: List[Violation] = field(default_factory=list)

    @property
    def found(self) -> FrozenSet[str]:
        return frozenset(v.property for v in self.violations)

    def first(self, prop: Optional[str] = None) -> Optional[Violation]:
        for v in self.violations:
            if prop is None or v.property == prop:
                return v
        return None

    def __repr__(self) -> str:
        status = (
            "clean" if not self.violations else f"{len(self.violations)} violation(s)"
        )
        return (
            f"FuzzReport({self.config}/seed={self.seed}: {self.cases} cases, "
            f"{self.steps} steps, {status})"
        )


# ----------------------------------------------------------------------
# Case execution
# ----------------------------------------------------------------------


def _consensus_processes(config: ChaosConfig, case: FuzzCase):
    proposals = case.proposal_map()
    if config.algorithm == "anuc":
        from repro.core.nuc import AnucAutomaton

        automaton = AnucAutomaton()
    elif config.algorithm == "ct":
        from repro.consensus.chandra_toueg import ChandraTouegS

        automaton = ChandraTouegS()
    elif config.algorithm == "naive-sigma-nu":
        from repro.consensus.quorum_mr import NaiveSigmaNuConsensus

        automaton = NaiveSigmaNuConsensus()
    elif config.algorithm == "quorum-mr":
        from repro.consensus.quorum_mr import QuorumMR

        automaton = QuorumMR()
    else:
        raise ValueError(f"unknown consensus algorithm {config.algorithm!r}")
    return {
        p: AutomatonProcess(automaton, proposals[p]) for p in range(case.n)
    }


def _classify(report_violations: Sequence[str], config: str, case: FuzzCase, steps: int):
    """Map checker violation strings (``"<property>: detail"``) to records."""
    out = []
    for message in report_violations:
        prop = message.split(":", 1)[0].strip()
        out.append(
            Violation(
                config=config, property=prop, message=message, case=case, steps=steps
            )
        )
    return out


def _execute_consensus(
    config: ChaosConfig, case: FuzzCase, history: History, trace: str
) -> CaseOutcome:
    pattern = case.pattern()
    system = System(
        _consensus_processes(config, case),
        pattern,
        history,
        seed=case.run_seed(),
        scheduler=build_scheduler(case.scheduler),
        delivery=build_delivery(case.delivery),
        trace=trace,
    )
    result = system.run(
        max_steps=case.max_steps, stop_when=lambda s: s.all_correct_decided()
    )
    outcome = consensus_outcome(result, case.proposal_map())
    nonuniform = check_nonuniform_consensus(outcome)
    uniform = check_uniform_consensus(outcome, require_termination=False)
    violations = _classify(
        list(nonuniform.violations)
        + [m for m in uniform.violations if m.startswith("uniform agreement")],
        config.name,
        case,
        result.total_steps,
    )
    return _outcome(case, result, violations, trace)


def _execute_register(
    config: ChaosConfig, case: FuzzCase, history: History, trace: str
) -> CaseOutcome:
    from repro.registers.abd import RegisterClient, RegisterHarness
    from repro.registers.properties import check_register_safety

    pattern = case.pattern()
    scripts = case.proposal_map()
    processes = {p: RegisterClient(scripts.get(p, ())) for p in range(case.n)}
    system = System(
        processes,
        pattern,
        history,
        seed=case.run_seed(),
        scheduler=build_scheduler(case.scheduler),
        delivery=build_delivery(case.delivery),
        trace=trace,
    )

    def scripts_done(sys: System) -> bool:
        return all(
            len(processes[p].records) >= len(processes[p].script)
            for p in pattern.correct
        )

    result = system.run(max_steps=case.max_steps, stop_when=scripts_done)
    messages: List[str] = []
    unfinished = sorted(
        p
        for p in pattern.correct
        if len(processes[p].records) < len(processes[p].script)
    )
    if unfinished:
        messages.append(
            f"termination: correct clients {unfinished} never completed "
            f"their operation scripts"
        )
    records = [r for p in range(case.n) for r in processes[p].records]
    records.sort(key=lambda r: (r.invoked_at, r.pid))
    safety = check_register_safety(
        records, RegisterHarness.incomplete_writes(processes)
    )
    messages.extend(f"register safety: {m}" for m in safety.violations)
    violations = _classify(messages, config.name, case, result.total_steps)
    return _outcome(case, result, violations, trace)


def _execute_smr(
    config: ChaosConfig, case: FuzzCase, history: History, trace: str
) -> CaseOutcome:
    from repro.smr.properties import check_smr
    from repro.smr.replicated_log import ReplicatedLogProcess

    pattern = case.pattern()
    commands = case.proposal_map()
    slots = 2
    processes = {
        p: ReplicatedLogProcess(list(commands.get(p, ())), slots=slots)
        for p in range(case.n)
    }
    system = System(
        processes,
        pattern,
        history,
        seed=case.run_seed(),
        scheduler=build_scheduler(case.scheduler),
        delivery=build_delivery(case.delivery),
        trace=trace,
    )

    def logs_full(sys: System) -> bool:
        return all(len(processes[p].log) >= slots for p in pattern.correct)

    result = system.run(max_steps=case.max_steps, stop_when=logs_full)
    messages: List[str] = []
    lagging = sorted(
        p for p in pattern.correct if len(processes[p].log) < slots
    )
    if lagging:
        messages.append(
            f"termination: correct replicas {lagging} never filled all "
            f"{slots} log slots"
        )
    report = check_smr(pattern, processes, {p: list(c) for p, c in commands.items()})
    messages.extend(f"smr safety: {m}" for m in report.violations)
    violations = _classify(messages, config.name, case, result.total_steps)
    return _outcome(case, result, violations, trace)


def _outcome(
    case: FuzzCase, result: RunResult, violations: List[Violation], trace: str
) -> CaseOutcome:
    props = tuple(sorted({v.property for v in violations}))
    signature = (
        result.stop_reason,
        len(result.decisions),
        len(set(map(repr, result.decisions.values()))),
        props,
        min(result.total_steps // 2000, 20),
    )
    schedule: Tuple[int, ...] = ()
    if trace == "full":
        schedule = tuple(s.pid for s in result.steps)
    return CaseOutcome(
        case=case,
        violations=tuple(violations),
        steps=result.total_steps,
        signature=signature,
        schedule=schedule,
    )


_EXECUTORS = {
    "consensus": _execute_consensus,
    "register": _execute_register,
    "smr": _execute_smr,
}


def execute_case(
    config: ChaosConfig, case: FuzzCase, trace: str = "metrics"
) -> CaseOutcome:
    """Run one fuzz case through the live kernel and judge it.

    Pure in ``(config, case)``: the run seed, detector history, scheduler
    and delivery are all rebuilt from the case spec.  ``trace="full"``
    additionally returns the executed pid schedule (for the shrinker).
    The run is judged by :func:`judge_case`.
    """
    history = sample_run_history(
        config.detector(), case.pattern(), case.run_seed()
    )
    return judge_case(config, case, history, trace)


def judge_case(
    config: ChaosConfig, case: FuzzCase, history: History, trace: str = "metrics"
) -> CaseOutcome:
    """:func:`execute_case` over a given ``history`` of the case's run.

    ``history`` must be the one :func:`execute_case` samples for ``case``
    (any case with the same pattern and run seed draws the same one), so a
    caller that runs many scheduler variants of one case samples it once.

    Termination is a liveness property, so a finite budget-bounded run can
    only ever *suggest* a violation.  The kernel receives at most one
    message per step (the model of Section 2.4), so an adversarially
    weighted schedule can starve a slow process behind a flood from
    processes that already decided — a finitization artifact, not an
    algorithm defect: in the admissible infinite extension the laggard
    decides.  For configs whose declared lie is *not* a liveness attack
    (``"termination" not in config.expected``), a suggested termination
    violation is therefore re-checked under the canonical fair environment
    (round-robin scheduler, oldest-first delivery) over the same history:
    if the fair run decides, the termination finding is discarded as a
    budget artifact.  Liveness-attack rows keep their raw finding — there
    the bounded-fair fuzzed run (every process steps within ``max_gap``,
    every message arrives within ``max_age``) is the finite witness that
    non-terminating admissible extensions exist.
    """
    executor = _EXECUTORS.get(config.kind)
    if executor is None:
        raise ValueError(f"unknown chaos kind {config.kind!r}")
    outcome = executor(config, case, history, trace)
    suggested = any(v.property == "termination" for v in outcome.violations)
    if suggested and "termination" not in config.expected:
        fair_case = _dc_replace(
            case, scheduler=("round-robin",), delivery=("oldest-first",)
        )
        fair = executor(config, fair_case, history, "metrics")
        if not any(v.property == "termination" for v in fair.violations):
            kept = tuple(
                v for v in outcome.violations if v.property != "termination"
            )
            props = tuple(sorted({v.property for v in kept}))
            outcome = CaseOutcome(
                case=outcome.case,
                violations=kept,
                steps=outcome.steps + fair.steps,
                signature=outcome.signature[:3]
                + (props,)
                + outcome.signature[4:],
                schedule=outcome.schedule,
            )
            if _obs._ENABLED:
                _obs.metrics().inc("chaos.termination_rechecks")
    if _obs._ENABLED:
        reg = _obs.metrics()
        reg.inc("chaos.cases")
        reg.inc("chaos.steps", outcome.steps)
        if outcome.violations:
            reg.inc("chaos.violations", len(outcome.violations))
    return outcome


# ----------------------------------------------------------------------
# The fuzz loop
# ----------------------------------------------------------------------


def fuzz_config(
    config: ChaosConfig,
    seed: int = 0,
    budget: Optional[int] = None,
    stop_on: Optional[str] = None,
    max_cases: Optional[int] = None,
) -> FuzzReport:
    """Fuzz one config under a total kernel-step budget.

    ``stop_on`` stops the loop as soon as a violation of that property is
    recorded (the matrix passes the config's primary property); without it
    the loop runs until the step budget or ``max_cases`` is exhausted.
    Deterministic in ``(config, seed, budget, stop_on, max_cases)``.

    Every case is one ``System.run()`` through :func:`execute_case`, drawn
    after the previous one was judged: a case that grows the corpus changes
    what is drawn next, so there is nothing to run ahead of.
    """
    budget = config.budget if budget is None else budget
    rng = random.Random(f"chaos/loop/{config.name}/{seed}")
    report = FuzzReport(config=config.name, seed=seed, budget=budget)
    corpus: List[FuzzCase] = []
    seen: set = set()
    index = 0

    def body() -> None:
        nonlocal index
        while report.steps < budget:
            if max_cases is not None and report.cases >= max_cases:
                return
            if corpus and rng.random() < 0.5:
                base = corpus[rng.randrange(len(corpus))]
                case = mutate_case(
                    base, rng, index=index, **config.mutate_kwargs()
                )
            else:
                case = draw_case(
                    config.name,
                    seed,
                    index,
                    max_steps=config.max_steps,
                    **config.draw_kwargs(),
                )
            index += 1
            outcome = execute_case(config, case)
            report.cases += 1
            report.steps += outcome.steps
            if outcome.signature not in seen:
                seen.add(outcome.signature)
                corpus.append(case)
            report.violations.extend(outcome.violations)
            if stop_on is not None and any(
                v.property == stop_on for v in outcome.violations
            ):
                return
        report.exhausted = True

    if _obs._ENABLED:
        with _obs.tracer().span(
            "chaos.fuzz", config=config.name, seed=seed, budget=budget
        ):
            body()
    else:
        body()
    report.corpus_size = len(corpus)
    return report
