"""Chaos invariants quantified with the shared hypothesis strategies."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chaos.injectors import SplitQuorums, TrustedUnionLiar
from repro.chaos.space import FuzzCase
from repro.kernel.messages import build_delivery
from repro.kernel.scheduler import build_scheduler
from tests.strategies import detector_histories, failure_patterns, fuzz_cases

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestCaseSpace:
    @SETTINGS
    @given(data=st.data())
    def test_drawn_specs_always_buildable(self, data):
        """Every drawn case's scheduler/delivery spec builds an instance —
        the property the executor relies on for arbitrary corpus cases."""
        case = data.draw(fuzz_cases())
        build_scheduler(case.scheduler)
        build_delivery(case.delivery)

    @SETTINGS
    @given(data=st.data())
    def test_json_survives_double_round_trip(self, data):
        case = data.draw(fuzz_cases(proposal_style="register"))
        once = FuzzCase.from_json(case.to_json())
        assert FuzzCase.from_json(once.to_json()) == case

    @SETTINGS
    @given(data=st.data())
    def test_patterns_embed_faithfully(self, data):
        case = data.draw(fuzz_cases())
        pattern = case.pattern()
        assert pattern.n == case.n
        assert sorted(pattern.faulty) == sorted(p for p, _ in case.crash_times)


class TestInjectorGeometry:
    @SETTINGS
    @given(pattern=failure_patterns(min_n=2, max_n=6, min_correct=2))
    def test_split_halves_partition_any_pattern(self, pattern):
        half_a, half_b = SplitQuorums.halves(pattern)
        assert half_a.isdisjoint(half_b)
        assert half_a | half_b == pattern.correct
        assert len(half_a) - len(half_b) in (0, 1)

    @SETTINGS
    @given(data=st.data())
    def test_trusted_union_liar_histories_stay_sigma_nu(self, data):
        """Over random applicable patterns the lie never leaks into plain
        Σν — it is surgically Σν+-specific."""
        from repro.detectors import check_sigma_nu

        pattern, history = data.draw(
            detector_histories(
                TrustedUnionLiar, min_n=3, max_n=6, min_correct=2
            )
        )
        if not pattern.faulty:
            return  # outside the injector's domain: honest fallback
        assert check_sigma_nu(history, pattern, 200).ok
