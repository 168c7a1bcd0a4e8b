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

from repro._exports import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.consensus.interface": "ConsensusOutcome consensus_outcome",
    "repro.consensus.flood_p": "FloodSetPerfect",
    "repro.consensus.mostefaoui_raynal": "MostefaouiRaynal",
    "repro.consensus.quorum_mr": "NaiveSigmaNuConsensus QuorumMR",
    "repro.consensus.properties": "check_nonuniform_consensus check_uniform_consensus",
    "repro.core.nuc": "AnucAutomaton",
    "repro.core.sampling": "DagBuilder",
    "repro.core.dag": "DagCore Sample SampleDAG",
    "repro.core.extraction": "SigmaNuExtractor",
    "repro.core.boosting": "SigmaNuPlusBooster",
    "repro.core.stack": "StackedNucProcess",
    "repro.detectors.base": "AdaptiveHistory RecordedHistory ScheduleHistory",
    "repro.detectors.omega": "Omega",
    "repro.detectors.paired": "PairedDetector",
    "repro.detectors.perfect": "Perfect",
    "repro.detectors.sigma": "Sigma",
    "repro.detectors.sigma_nu": "SigmaNu",
    "repro.detectors.sigma_nu_plus": "SigmaNuPlus",
    "repro.detectors.checkers": (
        "check_omega check_sigma check_sigma_nu check_sigma_nu_plus"
    ),
    "repro.detectors.emulated": "recorded_output_history",
    "repro.kernel.automaton": "Automaton AutomatonProcess Process ProcessContext",
    "repro.kernel.environment": "Environment",
    "repro.kernel.failures": "FailurePattern",
    "repro.kernel.messages": "Message CoalescingDelivery",
    "repro.kernel.system": "RunResult System",
    "repro.kernel.steps": "Schedule Step",
    "repro.registers.abd": "RegisterClient RegisterHarness",
    "repro.registers.properties": "check_register_safety",
    "repro.registers.counterexample": "run_lost_write_scenario",
    "repro.separation.from_scratch_sigma": "FromScratchSigma",
    "repro.separation.contamination": "run_contamination_scenario",
    "repro.separation.adversary": "run_partition_adversary",
    "repro.smr.replicated_log": "ReplicatedLogProcess run_replicated_log",
    "repro.smr.properties": "check_smr",
})

__all__.append("__version__")
