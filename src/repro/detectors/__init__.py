"""Failure detectors (Sections 2.3, 3 and 6.1 of the paper).

A failure detector ``D`` maps each failure pattern ``F`` to a set ``D(F)`` of
histories ``H : Pi x N -> range``.  We realize the *set* by sampling:
each detector owns one or more history-generation strategies, every one of
which produces histories provably in ``D(F)`` — and double-checked at test
time by the independent property checkers in :mod:`repro.detectors.checkers`.
"""

from repro.detectors.base import (
    AdaptiveHistory,
    FailureDetector,
    FunctionalHistory,
    History,
    RecordedHistory,
    ScheduleHistory,
    clear_history_cache,
    sample_run_history,
)
from repro.detectors.checkers import (
    CheckResult,
    check_eventually_perfect,
    check_omega,
    check_sigma,
    check_sigma_nu,
    check_sigma_nu_plus,
)
from repro.detectors.emulated import recorded_output_history
from repro.detectors.omega import Omega
from repro.detectors.paired import (
    PairedDetector,
    PairedHistory,
    history_breakpoints,
    segment_merge,
)
from repro.detectors.perfect import EventuallyPerfect, Perfect
from repro.detectors.sigma import Sigma
from repro.detectors.sigma_nu import SigmaNu
from repro.detectors.sigma_nu_plus import SigmaNuPlus

__all__ = [
    "AdaptiveHistory",
    "CheckResult",
    "EventuallyPerfect",
    "FailureDetector",
    "FunctionalHistory",
    "History",
    "Omega",
    "PairedDetector",
    "PairedHistory",
    "Perfect",
    "RecordedHistory",
    "ScheduleHistory",
    "Sigma",
    "SigmaNu",
    "SigmaNuPlus",
    "check_eventually_perfect",
    "check_omega",
    "check_sigma",
    "check_sigma_nu",
    "check_sigma_nu_plus",
    "clear_history_cache",
    "history_breakpoints",
    "recorded_output_history",
    "sample_run_history",
    "segment_merge",
]
