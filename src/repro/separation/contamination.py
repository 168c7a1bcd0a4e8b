"""The contamination scenario of Section 6.3, made executable.

Setup (n = 3): processes 0 and 1 are correct and propose ``v``; process 2 is
faulty and proposes ``w``.  The (Omega, Sigma^nu) history family:

* Sigma^nu quorums: ``0 -> {0}``, ``2 -> {2}`` (disjoint from everyone —
  legal, 2 is faulty), ``1 -> {0,1,2}`` until 2 crashes, then ``{0,1}``;
* Omega: process 2 always trusts itself; 0 and 1 trust 0, except during
  their *second* round, where they trust 2 — legal pre-stabilization noise.

Against the naive quorum algorithm (QuorumMR fed Sigma^nu) this plays out
exactly as the paper describes: 0 decides ``v`` alone in round 1 through its
quorum ``{0}``; 2 "decides" ``w`` through ``{2}``; in round 2 the leader
module points 0 and 1 at process 2, both adopt ``w``, 2 crashes, and 1 goes
on to decide ``w`` — a nonuniform-agreement violation between two *correct*
processes.

Against A_nuc, under the same history family, the LEAD message from 2
carries a quorum history showing ``{2}``, which misses ``{0} ∈ H[0]``; both
correct processes *distrust* 2, refuse the estimate, and decide ``v``.

The driver uses adaptive histories and a deferred crash (the formal pattern
and histories are frozen afterwards and re-validated by the independent
checkers), so the scenario is a genuine admissible run, not a hand-wave.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.consensus.interface import ConsensusOutcome
from repro.consensus.properties import PropertyReport, check_nonuniform_consensus
from repro.consensus.quorum_mr import NaiveSigmaNuConsensus
from repro.core.nuc import AnucAutomaton
from repro.detectors.base import AdaptiveHistory
from repro.detectors.checkers import (
    CheckResult,
    check_omega,
    check_sigma_nu,
    check_sigma_nu_plus,
    project_history,
)
from repro.kernel.automaton import AutomatonProcess
from repro.kernel.failures import DeferredCrashPattern, FailurePattern
from repro.kernel.system import System

V, W = "v", "w"
PROPOSALS = {0: V, 1: V, 2: W}


@dataclass
class ContaminationReport:
    """What happened when an algorithm faced the contamination scenario."""

    algorithm: str
    decisions: Dict[int, Any]
    pattern: FailurePattern
    agreement: PropertyReport
    contaminated: bool
    crash_time: Optional[int]
    omega_check: CheckResult
    sigma_check: CheckResult
    distrust_events: List[Tuple[int, int]] = field(default_factory=list)
    steps: int = 0

    def __repr__(self) -> str:
        verdict = "CONTAMINATED" if self.contaminated else "safe"
        return (
            f"ContaminationReport({self.algorithm}: {verdict}, "
            f"decisions={self.decisions})"
        )


class _ScenarioDriver:
    """Adaptive (Omega, Sigma^nu) strategy + crash trigger for the scenario."""

    def __init__(self, algorithm: str, processes: Dict[int, Any], pattern: DeferredCrashPattern):
        self.algorithm = algorithm
        self.processes = processes
        self.pattern = pattern

    # -- probes --------------------------------------------------------

    def round_of(self, p: int) -> int:
        state = self.processes[p].state
        if state is None:
            return 1
        if self.algorithm == "naive":
            return state.round
        return max(1, state.k)

    def passed_round2_lead(self, p: int) -> bool:
        state = self.processes[p].state
        if state is None:
            return False
        if self.algorithm == "naive":
            return state.round > 2 or (state.round == 2 and state.phase != "LEAD")
        # A_nuc never adopts from 2; "engaged" means it distrusted 2.
        return any(q == 2 for _, q in state.distrust_events)

    def should_crash_two(self) -> bool:
        return self.passed_round2_lead(0) and self.passed_round2_lead(1)

    # -- the history ----------------------------------------------------

    def detector_value(self, p: int, t: int) -> Tuple[int, FrozenSet[int]]:
        leader = self._leader(p)
        quorum = self._quorum(p, t)
        return (leader, quorum)

    def _leader(self, p: int) -> int:
        if p == 2:
            return 2
        return 2 if self.round_of(p) == 2 else 0

    def _quorum(self, p: int, t: int) -> FrozenSet[int]:
        if p == 0:
            return frozenset([0])
        if p == 2:
            return frozenset([2])
        if self.pattern.is_crashed(2, t):
            return frozenset([0, 1])
        return frozenset([0, 1, 2])


def run_contamination_scenario(
    algorithm: str = "naive",
    seed: int = 0,
    max_steps: int = 30000,
) -> ContaminationReport:
    """Run the Section 6.3 scenario against ``"naive"`` or ``"anuc"``.

    Returns a report whose ``contaminated`` flag says whether nonuniform
    agreement was violated (expected ``True`` for the naive algorithm and
    ``False`` for A_nuc), along with post-hoc validations that the adaptive
    history really was a legal (Omega, Sigma^nu) history for the exhibited
    failure pattern.
    """
    if algorithm not in ("naive", "anuc"):
        raise ValueError(f"unknown algorithm {algorithm!r}")

    pattern = DeferredCrashPattern(3, doomed=[2])
    automaton = NaiveSigmaNuConsensus() if algorithm == "naive" else AnucAutomaton()
    processes = {p: AutomatonProcess(automaton, PROPOSALS[p]) for p in range(3)}

    driver = _ScenarioDriver(algorithm, processes, pattern)
    history = AdaptiveHistory(3, driver.detector_value)
    system = System(
        processes=processes,
        pattern=pattern,
        history=history,
        seed=seed,
    )

    crash_time: Optional[int] = None
    cooldown: Optional[int] = None
    for _ in range(max_steps):
        if crash_time is None and driver.should_crash_two():
            crash_time = system.time
            pattern.trigger([2], crash_time)
        decided = (
            system.contexts[0].decision is not None
            and system.contexts[1].decision is not None
        )
        # After both correct processes decide, keep running until their
        # rounds pass 2, so the adaptive Omega history visibly stabilizes
        # on leader 0 before the horizon (the finite run must be a prefix
        # of an admissible run with a *valid* Omega history).
        if decided and driver.round_of(0) >= 3 and driver.round_of(1) >= 3:
            if cooldown is None:
                cooldown = 60
            elif cooldown == 0:
                break
            else:
                cooldown -= 1
        if system.step() is None:
            break

    result = system.result(stop_reason="scenario")
    horizon = max(0, system.time - 1)
    frozen = pattern.freeze(horizon)
    outcome = ConsensusOutcome(
        n=3,
        pattern=frozen,
        proposals=dict(PROPOSALS),
        decisions=dict(result.decisions),
        decision_times=dict(result.decision_times),
    )
    agreement = check_nonuniform_consensus(outcome)

    recorded = history.recorded(horizon)
    omega_check = check_omega(project_history(recorded, 0), frozen, horizon)
    sigma_checker = check_sigma_nu if algorithm == "naive" else check_sigma_nu_plus
    sigma_check = sigma_checker(project_history(recorded, 1), frozen, horizon)

    distrust: List[Tuple[int, int]] = []
    if algorithm == "anuc":
        for p in range(3):
            distrust.extend(processes[p].state.distrust_events)

    return ContaminationReport(
        algorithm=algorithm,
        decisions=dict(result.decisions),
        pattern=frozen,
        agreement=agreement,
        contaminated=not agreement.ok,
        crash_time=crash_time,
        omega_check=omega_check,
        sigma_check=sigma_check,
        distrust_events=distrust,
        steps=len(result.steps),
    )
