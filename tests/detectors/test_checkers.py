"""Property checkers against hand-built valid and invalid histories.

These are the other side of every differential test in the repository, so
they get their own adversarial unit tests: for each detector property, one
history that satisfies it and ones that violate it in each possible way.
"""

from repro.detectors.base import ScheduleHistory
from repro.detectors.checkers import (
    check_omega,
    check_sigma,
    check_sigma_nu,
    check_sigma_nu_plus,
    project_history,
    segments,
)
from repro.kernel.failures import FailurePattern

H = 100  # horizon used throughout


def hist(mapping):
    return ScheduleHistory(
        {p: points for p, points in mapping.items()}
    )


def const(n, value):
    return ScheduleHistory({p: [(0, value)] for p in range(n)})


class TestSegments:
    def test_schedule_history_segments_clip_to_horizon(self):
        h = hist({0: [(0, "a"), (5, "b"), (200, "c")]})
        assert segments(h, 0, 100) == [(0, "a"), (5, "b")]

    def test_functional_history_run_length_compressed(self):
        from repro.detectors.base import FunctionalHistory

        h = FunctionalHistory(lambda p, t: "x" if t < 3 else "y")
        assert segments(h, 0, 6) == [(0, "x"), (3, "y")]


class TestCheckOmega:
    def test_valid_history_with_noise(self):
        pattern = FailurePattern(3, {2: 10})
        h = hist(
            {
                0: [(0, 2), (4, 1), (12, 0)],
                1: [(0, 1), (12, 0)],
                2: [(0, 2)],
            }
        )
        result = check_omega(h, pattern, H)
        assert result.ok
        assert result.details["leader"] == 0
        assert result.stabilization_time == 12

    def test_disagreeing_leaders_fail(self):
        pattern = FailurePattern.no_failures(2)
        h = hist({0: [(0, 0)], 1: [(0, 1)]})
        result = check_omega(h, pattern, H)
        assert not result.ok
        assert "disagree" in result.violations[0]

    def test_faulty_eventual_leader_fails(self):
        pattern = FailurePattern(3, {2: 5})
        h = const(3, 2)
        result = check_omega(h, pattern, H)
        assert not result.ok
        assert "faulty" in result.violations[0]

    def test_unstabilized_history_fails(self):
        pattern = FailurePattern.no_failures(2)
        h = hist({0: [(0, 0), (H, 1)], 1: [(0, 0)]})
        # process 0 flips to 1 at the horizon: no all-leader suffix
        result = check_omega(h, pattern, H)
        assert not result.ok

    def test_faulty_outputs_unconstrained(self):
        pattern = FailurePattern(3, {2: 0})
        h = hist({0: [(0, 0)], 1: [(0, 0)], 2: [(0, 2)]})
        assert check_omega(h, pattern, H).ok

    def test_vacuous_when_no_correct(self):
        pattern = FailurePattern.initial_crashes(2, [0, 1])
        assert check_omega(const(2, 0), pattern, H).ok


class TestCheckSigma:
    def test_valid_pivot_history(self):
        pattern = FailurePattern(3, {2: 10})
        h = hist(
            {
                0: [(0, frozenset({0, 1, 2})), (20, frozenset({0, 1}))],
                1: [(0, frozenset({1, 0})), (15, frozenset({0, 1}))],
                2: [(0, frozenset({0, 2}))],
            }
        )
        result = check_sigma(h, pattern, H)
        assert result.ok
        assert result.stabilization_time <= 20

    def test_disjoint_quorums_fail_intersection(self):
        pattern = FailurePattern.no_failures(4)
        h = hist(
            {
                0: [(0, frozenset({0, 1}))],
                1: [(0, frozenset({0, 1}))],
                2: [(0, frozenset({2, 3}))],
                3: [(0, frozenset({2, 3}))],
            }
        )
        result = check_sigma(h, pattern, H)
        assert not result.ok
        assert any("intersection" in v for v in result.violations)

    def test_faulty_quorums_also_constrained(self):
        """Sigma's intersection is uniform: faulty outputs count too."""
        pattern = FailurePattern(3, {2: 50})
        h = hist(
            {
                0: [(0, frozenset({0, 1}))],
                1: [(0, frozenset({0, 1}))],
                2: [(0, frozenset({2}))],
            }
        )
        assert not check_sigma(h, pattern, H).ok

    def test_incomplete_history_fails(self):
        pattern = FailurePattern(3, {2: 5})
        h = const(3, frozenset({0, 1, 2}))  # never sheds the faulty member
        result = check_sigma(h, pattern, H)
        assert not result.ok
        assert any("completeness" in v for v in result.violations)

    def test_empty_quorum_fails_self_intersection(self):
        pattern = FailurePattern.no_failures(2)
        h = hist({0: [(0, frozenset())], 1: [(0, frozenset({0, 1}))]})
        assert not check_sigma(h, pattern, H).ok


class TestCheckSigmaNu:
    def test_faulty_junk_quorums_allowed(self):
        """The exact history that fails Sigma passes Sigma^nu."""
        pattern = FailurePattern(3, {2: 50})
        h = hist(
            {
                0: [(0, frozenset({0, 1}))],
                1: [(0, frozenset({0, 1}))],
                2: [(0, frozenset({2}))],
            }
        )
        assert check_sigma_nu(h, pattern, H).ok
        assert not check_sigma(h, pattern, H).ok

    def test_correct_disjointness_still_fails(self):
        pattern = FailurePattern.no_failures(4)
        h = hist(
            {
                0: [(0, frozenset({0, 1}))],
                1: [(0, frozenset({0, 1}))],
                2: [(0, frozenset({2, 3}))],
                3: [(0, frozenset({2, 3}))],
            }
        )
        result = check_sigma_nu(h, pattern, H)
        assert not result.ok
        assert any("nonuniform intersection" in v for v in result.violations)

    def test_completeness_still_required(self):
        pattern = FailurePattern(2, {1: 5})
        h = const(2, frozenset({0, 1}))
        assert not check_sigma_nu(h, pattern, H).ok

    def test_sigma_histories_are_sigma_nu_histories(self):
        """Sigma^nu is weaker than Sigma: any valid Sigma history passes."""
        import random

        from repro.detectors.sigma import Sigma

        pattern = FailurePattern(4, {3: 8})
        for seed in range(10):
            h = Sigma("pivot").sample_history(pattern, random.Random(seed))
            assert check_sigma(h, pattern, H).ok
            assert check_sigma_nu(h, pattern, H).ok


class TestCheckSigmaNuPlus:
    def make_valid(self):
        pattern = FailurePattern(3, {2: 10})
        h = hist(
            {
                0: [(0, frozenset({0, 1, 2})), (15, frozenset({0, 1}))],
                1: [(0, frozenset({0, 1}))],
                2: [(0, frozenset({2}))],
            }
        )
        return pattern, h

    def test_valid_history(self):
        pattern, h = self.make_valid()
        assert check_sigma_nu_plus(h, pattern, H).ok

    def test_self_inclusion_violation(self):
        pattern = FailurePattern.no_failures(2)
        h = hist({0: [(0, frozenset({1}))], 1: [(0, frozenset({0, 1}))]})
        result = check_sigma_nu_plus(h, pattern, H)
        assert not result.ok
        assert any("self-inclusion" in v for v in result.violations)

    def test_conditional_nonintersection_violation(self):
        """A quorum missing a correct quorum must contain only faulty
        processes; here it contains correct process 1."""
        pattern = FailurePattern(4, {3: 10, 2: 10})
        h = hist(
            {
                0: [(0, frozenset({0}))],
                1: [(0, frozenset({0, 1}))],
                2: [(0, frozenset({1, 2}))],  # misses {0}, contains correct 1
                3: [(0, frozenset({3}))],
            }
        )
        result = check_sigma_nu_plus(h, pattern, H)
        assert not result.ok
        assert any("conditional nonintersection" in v for v in result.violations)

    def test_doomed_faulty_quorums_fine(self):
        pattern = FailurePattern(4, {2: 10, 3: 10})
        h = hist(
            {
                0: [(0, frozenset({0, 1}))],
                1: [(0, frozenset({0, 1}))],
                2: [(0, frozenset({2, 3}))],  # disjoint but all-faulty
                3: [(0, frozenset({3}))],
            }
        )
        assert check_sigma_nu_plus(h, pattern, H).ok

    def test_sigma_nu_plus_implies_sigma_nu(self):
        import random

        from repro.detectors.sigma_nu_plus import SigmaNuPlus

        pattern = FailurePattern(4, {0: 6, 3: 9})
        for seed in range(10):
            h = SigmaNuPlus().sample_history(pattern, random.Random(seed))
            assert check_sigma_nu_plus(h, pattern, H).ok
            assert check_sigma_nu(h, pattern, H).ok


class TestPairedProjection:
    def test_projection_extracts_components(self):
        h = const(2, ("L", frozenset({0, 1})))
        omega_view = project_history(h, 0)
        sigma_view = project_history(h, 1)
        assert omega_view.value(0, 5) == "L"
        assert sigma_view.value(1, 5) == frozenset({0, 1})
