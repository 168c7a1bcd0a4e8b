"""Adversarial fault injection and schedule fuzzing (``repro.chaos``).

The paper's theorems are two-sided: (Omega, Sigma^nu) *suffices* for
nonuniform consensus, and each hypothesis is *necessary*.  This package turns
the necessity side into executable negative tests:

* :mod:`repro.chaos.injectors` — composable detector wrappers, each violating
  exactly one hypothesis (Omega stabilization, Omega leader correctness,
  Sigma^nu intersection at correct processes, Sigma^nu+ conditional
  nonintersection, <>P completeness/accuracy) and declaring which paper
  property it breaks;
* :mod:`repro.chaos.space` — the fuzz-case space: seeded draws over crash
  patterns x schedulers x delivery policies x detector histories, with
  JSON-serializable specs so any case can be replayed;
* :mod:`repro.chaos.fuzzer` — a coverage-guided random explorer driving the
  consensus / register / SMR property checkers and the detector hypothesis
  checkers as oracles, fully deterministic per ``(config, seed)``;
* :mod:`repro.chaos.shrinker` — delta-debugs a violating run to a locally
  minimal schedule prefix replayable through ``ScriptedScheduler``;
* :mod:`repro.chaos.artifact` — the versioned ``repro-counterexample/1``
  JSON format plus save / load / replay;
* :mod:`repro.chaos.matrix` — the injection-matrix runner behind
  ``python -m repro chaos``: asserts each injector flips *only* its declared
  property and that honest detectors fuzz clean.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.chaos.artifact": (
        "COUNTEREXAMPLE_SCHEMA load_counterexample replay_counterexample "
        "save_counterexample"
    ),
    "repro.chaos.fuzzer": "FuzzReport Violation fuzz_config",
    "repro.chaos.injectors": (
        "BlindSuspector CrashedLeaderOmega FaultInjector NeverStabilizingOmega "
        "ParanoidSuspector SplitQuorums TrustedUnionLiar"
    ),
    "repro.chaos.matrix": "CONFIGS ChaosConfig MatrixVerdict run_matrix",
    "repro.chaos.shrinker": "ShrinkResult shrink_schedule",
    "repro.chaos.space": "FuzzCase draw_case",
    "repro.kernel.messages": "build_delivery",
    "repro.kernel.scheduler": "build_scheduler",
})
