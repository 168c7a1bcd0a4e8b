"""Experiment harness: one-shot runners, the EXP sweeps, load generation."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.harness.load": "LoadReport LoadSpec build_schedule run_service_load",
    "repro.harness.runner": (
        "BoostRunOutcome ConsensusRunOutcome ExtractionRunOutcome "
        "random_pattern run_boosting run_consensus_algorithm run_extraction "
        "run_from_scratch_sigma run_nuc run_stack"
    ),
    "repro.harness.experiments": (
        "exp1_nuc_sufficiency exp2_boosting exp3_extraction exp4_separation "
        "exp5_contamination exp6_merging exp7_scaling exp8_exhaustive "
        "exp9_registers"
    ),
})
