"""Failure detectors (Sections 2.3, 3 and 6.1 of the paper).

A failure detector ``D`` maps each failure pattern ``F`` to a set ``D(F)`` of
histories ``H : Pi x N -> range``.  We realize the *set* by sampling:
each detector owns one or more history-generation strategies, every one of
which produces histories provably in ``D(F)`` — and double-checked at test
time by the independent property checkers in :mod:`repro.detectors.checkers`.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.detectors.base": (
        "AdaptiveHistory FailureDetector FunctionalHistory History "
        "RecordedHistory ScheduleHistory clear_history_cache sample_run_history"
    ),
    "repro.detectors.checkers": (
        "CheckResult check_eventually_perfect check_omega check_sigma "
        "check_sigma_nu check_sigma_nu_plus"
    ),
    "repro.detectors.emulated": "recorded_output_history",
    "repro.detectors.omega": "Omega",
    "repro.detectors.paired": (
        "PairedDetector PairedHistory history_breakpoints segment_merge"
    ),
    "repro.detectors.perfect": "EventuallyPerfect Perfect",
    "repro.detectors.sigma": "Sigma",
    "repro.detectors.sigma_nu": "SigmaNu",
    "repro.detectors.sigma_nu_plus": "SigmaNuPlus",
})
