"""repro — an executable reproduction of
*The weakest failure detector to solve nonuniform consensus*
(Eisler, Hadzilacos, Toueg; PODC 2005 / Distributed Computing 2007).

The package builds the paper's model of asynchronous computation with
failure detectors as a deterministic, seedable simulator, implements every
algorithm in the paper (A_DAG, T_{D->Sigma^nu}, T_{Sigma^nu->Sigma^nu+},
A_nuc) plus the baselines it builds on, and validates each theorem
empirically.  See DESIGN.md for the system inventory and EXPERIMENTS.md for
the per-theorem experiment results.

Quickstart::

    import random
    from repro import (
        AnucAutomaton, AutomatonProcess, FailurePattern, Omega,
        PairedDetector, SigmaNuPlus, System,
    )

    pattern = FailurePattern(4, {3: 20})          # process 3 crashes at t=20
    detector = PairedDetector(Omega(), SigmaNuPlus())
    history = detector.sample_history(pattern, random.Random(1))
    processes = {
        p: AutomatonProcess(AnucAutomaton(), f"value-{p}") for p in range(4)
    }
    system = System(processes, pattern, history, seed=1)
    result = system.run(max_steps=20000,
                        stop_when=lambda s: s.all_correct_decided())
    print(result.decisions)
"""

from repro.consensus import (
    ConsensusOutcome,
    FloodSetPerfect,
    MostefaouiRaynal,
    NaiveSigmaNuConsensus,
    QuorumMR,
    check_nonuniform_consensus,
    check_uniform_consensus,
    consensus_outcome,
)
from repro.core import (
    AnucAutomaton,
    DagBuilder,
    DagCore,
    Sample,
    SampleDAG,
    SigmaNuExtractor,
    SigmaNuPlusBooster,
    StackedNucProcess,
)
from repro.detectors import (
    AdaptiveHistory,
    Omega,
    PairedDetector,
    Perfect,
    RecordedHistory,
    ScheduleHistory,
    Sigma,
    SigmaNu,
    SigmaNuPlus,
    check_omega,
    check_sigma,
    check_sigma_nu,
    check_sigma_nu_plus,
    recorded_output_history,
)
from repro.kernel import (
    Automaton,
    AutomatonProcess,
    Environment,
    FailurePattern,
    Message,
    Process,
    ProcessContext,
    RunResult,
    Schedule,
    Step,
    System,
)
from repro.kernel.messages import CoalescingDelivery
from repro.registers import (
    RegisterClient,
    RegisterHarness,
    check_register_safety,
    run_lost_write_scenario,
)
from repro.separation import (
    FromScratchSigma,
    run_contamination_scenario,
    run_partition_adversary,
)
from repro.smr import ReplicatedLogProcess, check_smr, run_replicated_log

__version__ = "1.0.0"

__all__ = [
    "AdaptiveHistory",
    "AnucAutomaton",
    "Automaton",
    "AutomatonProcess",
    "CoalescingDelivery",
    "ConsensusOutcome",
    "DagBuilder",
    "DagCore",
    "Environment",
    "FailurePattern",
    "FloodSetPerfect",
    "FromScratchSigma",
    "Message",
    "MostefaouiRaynal",
    "NaiveSigmaNuConsensus",
    "Omega",
    "PairedDetector",
    "Perfect",
    "Process",
    "ProcessContext",
    "QuorumMR",
    "RecordedHistory",
    "RegisterClient",
    "RegisterHarness",
    "ReplicatedLogProcess",
    "RunResult",
    "Sample",
    "SampleDAG",
    "Schedule",
    "ScheduleHistory",
    "Sigma",
    "SigmaNu",
    "SigmaNuExtractor",
    "SigmaNuPlus",
    "SigmaNuPlusBooster",
    "StackedNucProcess",
    "Step",
    "System",
    "check_nonuniform_consensus",
    "check_register_safety",
    "check_smr",
    "check_omega",
    "check_sigma",
    "check_sigma_nu",
    "check_sigma_nu_plus",
    "check_uniform_consensus",
    "consensus_outcome",
    "recorded_output_history",
    "run_contamination_scenario",
    "run_lost_write_scenario",
    "run_partition_adversary",
    "run_replicated_log",
    "__version__",
]
