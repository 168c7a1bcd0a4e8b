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

from repro.chaos.artifact import (
    COUNTEREXAMPLE_SCHEMA,
    load_counterexample,
    replay_counterexample,
    save_counterexample,
)
from repro.chaos.fuzzer import FuzzReport, Violation, fuzz_config
from repro.chaos.injectors import (
    BlindSuspector,
    CrashedLeaderOmega,
    FaultInjector,
    NeverStabilizingOmega,
    ParanoidSuspector,
    SplitQuorums,
    TrustedUnionLiar,
)
from repro.chaos.matrix import (
    CONFIGS,
    ChaosConfig,
    MatrixVerdict,
    run_matrix,
)
from repro.chaos.shrinker import ShrinkResult, shrink_schedule
from repro.chaos.space import FuzzCase, draw_case
from repro.kernel.messages import build_delivery
from repro.kernel.scheduler import build_scheduler

__all__ = [
    "COUNTEREXAMPLE_SCHEMA",
    "CONFIGS",
    "BlindSuspector",
    "ChaosConfig",
    "CrashedLeaderOmega",
    "FaultInjector",
    "FuzzCase",
    "FuzzReport",
    "MatrixVerdict",
    "NeverStabilizingOmega",
    "ParanoidSuspector",
    "ShrinkResult",
    "SplitQuorums",
    "TrustedUnionLiar",
    "Violation",
    "build_delivery",
    "build_scheduler",
    "draw_case",
    "fuzz_config",
    "load_counterexample",
    "replay_counterexample",
    "run_matrix",
    "save_counterexample",
    "shrink_schedule",
]
