"""The fuzz-case space: purity, round-trips, spec builders."""

import random

import pytest

from repro.chaos.space import (
    FuzzCase,
    MUTATION_DIMENSIONS,
    PROPOSAL_STYLES,
    draw_case,
    mutate_case,
)
from repro.kernel.messages import (
    FairRandomDelivery,
    OldestFirstDelivery,
    PerSenderFifoDelivery,
    build_delivery,
)
from repro.kernel.scheduler import (
    RandomFairScheduler,
    RoundRobinScheduler,
    ScriptedScheduler,
    WeightedScheduler,
    build_scheduler,
)


class TestDrawCase:
    def test_pure_in_config_seed_index(self):
        for index in range(20):
            a = draw_case("t", seed=3, index=index, ns=(3, 4, 5), max_steps=100)
            b = draw_case("t", seed=3, index=index, ns=(3, 4, 5), max_steps=100)
            assert a == b

    def test_different_indices_differ(self):
        cases = {
            draw_case("t", seed=0, index=i, ns=(3, 4, 5), max_steps=100)
            for i in range(30)
        }
        assert len(cases) > 20  # overwhelmingly distinct draws

    def test_constraints_respected(self):
        for index in range(40):
            case = draw_case(
                "t",
                seed=1,
                index=index,
                ns=(4, 5),
                max_steps=100,
                min_faulty=1,
                min_correct=2,
            )
            pattern = case.pattern()
            assert case.n in (4, 5)
            assert len(pattern.faulty) >= 1
            assert len(pattern.correct) >= 2

    def test_majority_correct_bound(self):
        for index in range(40):
            case = draw_case(
                "t",
                seed=2,
                index=index,
                ns=(3, 4, 5),
                max_steps=100,
                majority_correct=True,
            )
            pattern = case.pattern()
            assert len(pattern.faulty) <= (case.n - 1) // 2

    @pytest.mark.parametrize("style", PROPOSAL_STYLES)
    def test_every_proposal_style_draws(self, style):
        case = draw_case(
            "t",
            seed=0,
            index=0,
            ns=(4,),
            max_steps=100,
            proposal_style=style,
        )
        assert len(case.proposals) == case.n

    def test_split_halves_tracks_injector_halves(self):
        from repro.chaos.injectors import SplitQuorums

        for index in range(20):
            case = draw_case(
                "t",
                seed=5,
                index=index,
                ns=(4, 5, 6),
                max_steps=100,
                min_correct=2,
                proposal_style="split-halves",
                values=(0, 1),
            )
            pattern = case.pattern()
            half_a, half_b = SplitQuorums.halves(pattern)
            proposals = case.proposal_map()
            assert all(proposals[p] == 0 for p in half_a)
            assert all(proposals[p] == 1 for p in half_b)

    def test_register_style_scripts_are_valid_ops(self):
        case = draw_case(
            "t",
            seed=0,
            index=3,
            ns=(4,),
            max_steps=100,
            proposal_style="register",
        )
        for _, script in case.proposals:
            assert 2 <= len(script) <= 4
            for op in script:
                assert op[0] in ("read", "write")

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError):
            draw_case(
                "t",
                seed=0,
                index=0,
                ns=(3,),
                max_steps=100,
                proposal_style="nonsense",
            )


class TestMutateCase:
    def test_mutation_changes_exactly_one_dimension_family(self):
        base = draw_case("t", seed=0, index=0, ns=(4,), max_steps=100)
        rng = random.Random(42)
        for index in range(1, 30):
            mutant = mutate_case(base, rng, index=index)
            assert mutant.n == base.n
            assert mutant.index == index
            changed = [
                dim
                for dim, same in (
                    ("scheduler", mutant.scheduler == base.scheduler),
                    ("delivery", mutant.delivery == base.delivery),
                    ("crashes", mutant.crash_times == base.crash_times),
                    ("proposals", mutant.proposals == base.proposals),
                )
                if not same
            ]
            # A re-draw may coincide with the original; never more than one
            # dimension moves (crashes may re-derive split-halves proposals).
            assert set(changed) <= {"crashes", "proposals"} or len(changed) <= 1
            for dim in changed:
                assert dim in MUTATION_DIMENSIONS

    def test_mutation_deterministic_in_rng_state(self):
        base = draw_case("t", seed=0, index=0, ns=(4,), max_steps=100)
        a = mutate_case(base, random.Random(7), index=1)
        b = mutate_case(base, random.Random(7), index=1)
        assert a == b


class TestJsonRoundTrip:
    @pytest.mark.parametrize("style", PROPOSAL_STYLES)
    def test_round_trip_every_style(self, style):
        for index in range(10):
            case = draw_case(
                "t",
                seed=9,
                index=index,
                ns=(3, 4),
                max_steps=200,
                proposal_style=style,
            )
            assert FuzzCase.from_json(case.to_json()) == case

    def test_round_trip_scripted_scheduler(self):
        from repro.chaos.shrinker import scripted_case

        case = draw_case("t", seed=0, index=0, ns=(3,), max_steps=50)
        scripted = scripted_case(case, [0, 1, 2, 0], max_steps=4)
        assert FuzzCase.from_json(scripted.to_json()) == scripted

    def test_run_seed_pure(self):
        case = draw_case("t", seed=11, index=7, ns=(3,), max_steps=50)
        assert case.run_seed() == case.run_seed()
        other = draw_case("t", seed=11, index=8, ns=(3,), max_steps=50)
        assert case.run_seed() != other.run_seed()


class TestSpecBuilders:
    def test_scheduler_specs(self):
        assert isinstance(build_scheduler(("round-robin",)), RoundRobinScheduler)
        assert isinstance(
            build_scheduler(("random-fair", 16)), RandomFairScheduler
        )
        weighted = build_scheduler(("weighted", ((0, 1.0), (1, 4.0)), 32))
        assert isinstance(weighted, WeightedScheduler)
        scripted = build_scheduler(("scripted", (0, 1, 0), ("round-robin",)))
        assert isinstance(scripted, ScriptedScheduler)

    def test_delivery_specs(self):
        assert isinstance(
            build_delivery(("fair-random", 0.5, 40)), FairRandomDelivery
        )
        assert isinstance(
            build_delivery(("per-sender-fifo", 0.5, 20)), PerSenderFifoDelivery
        )
        assert isinstance(build_delivery(("oldest-first",)), OldestFirstDelivery)

    def test_unknown_specs_rejected(self):
        """An unknown kind, or a known one with the wrong number of
        fields, is a ``ValueError``."""
        bad = [
            (build_scheduler, ("martian",)),
            (build_delivery, ("martian",)),
            (build_scheduler, ()),
            (build_scheduler, ("round-robin", 3)),
            (build_scheduler, ("random-fair",)),
            (build_scheduler, ("weighted", ((0, 1.0),))),
            (build_scheduler, ("scripted",)),
            (build_delivery, ("per-sender-fifo", 0.218)),
            (build_delivery, ("fair-random", 0.5, 40, 1)),
            (build_delivery, ("oldest-first", 1)),
            (build_delivery, ("coalescing", ("oldest-first",), 2)),
        ]
        for builder, spec in bad:
            with pytest.raises(ValueError):
                builder(spec)

    def test_builders_return_fresh_instances(self):
        spec = ("random-fair", 16)
        assert build_scheduler(spec) is not build_scheduler(spec)
