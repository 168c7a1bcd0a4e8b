"""Edge cases for the product detector: arity and projection."""

import random

import pytest

from repro.detectors import (
    Omega,
    PairedDetector,
    PairedHistory,
    Sigma,
    SigmaNu,
    SigmaNuPlus,
)
from repro.detectors.base import RecordedHistory
from repro.kernel.failures import FailurePattern


class TestArity:
    def test_detector_rejects_fewer_than_two(self):
        with pytest.raises(ValueError):
            PairedDetector(Omega())
        with pytest.raises(ValueError):
            PairedDetector()

    def test_history_rejects_fewer_than_two(self):
        inner = RecordedHistory(1, 10, initial={0: 0})
        with pytest.raises(ValueError):
            PairedHistory([inner])

    def test_triple_product(self):
        pattern = FailurePattern(3, {})
        detector = PairedDetector(Omega(), Sigma(), SigmaNu())
        history = detector.sample_history(pattern, random.Random(0))
        value = history.value(0, 50)
        assert len(value) == 3
        assert value == tuple(
            history.project(i).value(0, 50) for i in range(3)
        )

    def test_name_lists_components(self):
        detector = PairedDetector(Omega(), SigmaNuPlus())
        assert detector.name.startswith("(")
        assert Omega().name in detector.name


class TestSingleProcessSystems:
    """n = 1: the degenerate but legal environment (a quorum is {0},
    the leader is 0, every product projects consistently)."""

    def test_pair_over_single_process(self):
        pattern = FailurePattern(1, {})
        detector = PairedDetector(Omega(), SigmaNu())
        history = detector.sample_history(pattern, random.Random(3))
        for t in (0, 1, 100):
            leader, quorum = history.value(0, t)
            assert leader == 0
            assert quorum == frozenset({0})

    def test_single_process_checkers_accept(self):
        from repro.detectors import check_omega, check_sigma_nu

        pattern = FailurePattern(1, {})
        history = PairedDetector(Omega(), SigmaNu()).sample_history(
            pattern, random.Random(0)
        )
        assert check_omega(history.project(0), pattern, 100).ok
        assert check_sigma_nu(history.project(1), pattern, 100).ok
