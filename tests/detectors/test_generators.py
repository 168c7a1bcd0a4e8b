"""Generator/checker roundtrips: every sampled history is valid.

These differential tests pin down both sides at once — a bug in a generator
or in a checker shows up as a roundtrip failure (unless both are wrong the
same way, which the hand-built cases in test_checkers.py guard against).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.detectors.checkers import (
    check_omega,
    check_sigma,
    check_sigma_nu,
    check_sigma_nu_plus,
)
from repro.detectors.omega import Omega
from repro.detectors.paired import PairedDetector, PairedHistory
from repro.detectors.sigma import Sigma
from repro.detectors.sigma_nu import SigmaNu
from repro.detectors.sigma_nu_plus import SigmaNuPlus
from repro.kernel.failures import FailurePattern

HORIZON = 250


def patterns_for(n, seed, count=6):
    rng = random.Random(seed)
    result = [FailurePattern.no_failures(n)]
    for _ in range(count - 1):
        crashed = rng.sample(range(n), rng.randint(0, n - 1))
        result.append(FailurePattern(n, {p: rng.randint(0, 40) for p in crashed}))
    return result


@pytest.mark.parametrize("n", [2, 3, 5, 7])
@pytest.mark.parametrize("seed", [0, 1])
class TestOmegaGenerator:
    def test_sampled_histories_valid(self, n, seed):
        for pattern in patterns_for(n, seed):
            h = Omega().sample_history(pattern, random.Random(seed))
            assert check_omega(h, pattern, HORIZON).ok

    def test_forced_leader_respected(self, n, seed):
        pattern = FailurePattern(n, {n - 1: 5}) if n > 1 else None
        h = Omega(leader=0).sample_history(pattern, random.Random(seed))
        result = check_omega(h, pattern, HORIZON)
        assert result.ok and result.details["leader"] == 0


class TestOmegaEdgeCases:
    def test_forced_faulty_leader_rejected(self):
        pattern = FailurePattern(3, {0: 5})
        with pytest.raises(ValueError):
            Omega(leader=0).sample_history(pattern, random.Random(0))

    def test_no_correct_process_yields_some_history(self):
        pattern = FailurePattern.initial_crashes(2, [0, 1])
        h = Omega().sample_history(pattern, random.Random(0))
        assert check_omega(h, pattern, HORIZON).ok  # vacuous


@pytest.mark.parametrize("strategy", ["pivot", "full", "majority"])
class TestSigmaGenerator:
    def test_sampled_histories_valid(self, strategy):
        for n in (2, 4, 6):
            for pattern in patterns_for(n, seed=strategy):
                h = Sigma(strategy).sample_history(pattern, random.Random(1))
                result = check_sigma(h, pattern, HORIZON)
                assert result.ok, (n, pattern, result.violations[:2])

    def test_sigma_histories_also_sigma_nu(self, strategy):
        pattern = FailurePattern(5, {0: 3, 4: 20})
        h = Sigma(strategy).sample_history(pattern, random.Random(2))
        assert check_sigma_nu(h, pattern, HORIZON).ok


class TestSigmaEdgeCases:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            Sigma("bogus")

    def test_majority_falls_back_when_correct_minority(self):
        pattern = FailurePattern(4, {0: 1, 1: 2, 2: 3})  # one correct
        h = Sigma("majority").sample_history(pattern, random.Random(3))
        assert check_sigma(h, pattern, HORIZON).ok

    def test_forced_pivot(self):
        pattern = FailurePattern(4, {3: 5})
        h = Sigma("pivot", pivot=1).sample_history(pattern, random.Random(0))
        for p in range(4):
            assert 1 in h.value(p, 0)


@pytest.mark.parametrize("style", ["selfish", "junk", "obedient"])
class TestSigmaNuGenerator:
    def test_sampled_histories_valid(self, style):
        for n in (2, 3, 5):
            for pattern in patterns_for(n, seed=style):
                h = SigmaNu(style).sample_history(pattern, random.Random(4))
                result = check_sigma_nu(h, pattern, HORIZON)
                assert result.ok, (n, pattern, result.violations[:2])

    def test_selfish_faulty_break_full_sigma(self, style):
        """With crashes present, 'selfish' histories separate Sigma^nu from
        Sigma (the faulty singleton need not intersect anything)."""
        if style != "selfish":
            pytest.skip("only the selfish style guarantees a Sigma violation")
        pattern = FailurePattern(3, {2: 30})
        h = SigmaNu("selfish", pivot=0).sample_history(pattern, random.Random(5))
        assert check_sigma_nu(h, pattern, HORIZON).ok
        assert not check_sigma(h, pattern, HORIZON).ok


@pytest.mark.parametrize("mode", ["doomed", "cooperative", "mixed"])
class TestSigmaNuPlusGenerator:
    def test_sampled_histories_valid(self, mode):
        for n in (2, 3, 5):
            for pattern in patterns_for(n, seed=mode):
                h = SigmaNuPlus(mode).sample_history(pattern, random.Random(6))
                result = check_sigma_nu_plus(h, pattern, HORIZON)
                assert result.ok, (n, pattern, result.violations[:2])


class TestPairedDetector:
    def test_pairs_sample_componentwise(self):
        pattern = FailurePattern(4, {1: 10})
        detector = PairedDetector(Omega(), SigmaNuPlus())
        h = detector.sample_history(pattern, random.Random(7))
        assert isinstance(h, PairedHistory)
        leader, quorum = h.value(0, 50)
        assert isinstance(leader, int)
        assert 0 in quorum  # self-inclusion of the Sigma^nu+ component

    def test_requires_two_components(self):
        with pytest.raises(ValueError):
            PairedDetector(Omega())

    def test_name_composes(self):
        d = PairedDetector(Omega(), Sigma())
        assert d.name == "(Omega, Sigma)"

    def test_triple_product(self):
        pattern = FailurePattern.no_failures(3)
        d = PairedDetector(Omega(), Sigma(), SigmaNu())
        value = d.sample_history(pattern, random.Random(0)).value(0, 0)
        assert len(value) == 3


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 6),
    seed=st.integers(0, 10**6),
    crash_seed=st.integers(0, 10**6),
)
def test_property_all_generators_roundtrip(n, seed, crash_seed):
    """Hypothesis: any sampled pattern x any generator yields a history its
    own checker accepts over a post-stabilization horizon."""
    rng = random.Random(crash_seed)
    crashed = rng.sample(range(n), rng.randint(0, n - 1))
    pattern = FailurePattern(n, {p: rng.randint(0, 30) for p in crashed})
    cases = [
        (Omega(), check_omega),
        (Sigma("pivot"), check_sigma),
        (SigmaNu("junk"), check_sigma_nu),
        (SigmaNuPlus("mixed"), check_sigma_nu_plus),
    ]
    for detector, checker in cases:
        history = detector.sample_history(pattern, random.Random(seed))
        result = checker(history, pattern, HORIZON)
        assert result.ok, (detector.name, pattern, result.violations[:2])
