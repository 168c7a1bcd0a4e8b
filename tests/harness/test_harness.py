"""The experiment harness: runners, merging helper, experiment tables."""

import random

import pytest

from repro.harness.merging import (
    partitioned_history,
    random_mergeable_pair_report,
    synthesize_group_run,
)
from repro.harness.runner import (
    random_binary_proposals,
    random_pattern,
    run_boosting,
    run_nuc,
)
from repro.kernel.failures import FailurePattern
from repro.kernel.runs import validate_run


class TestRunnerHelpers:
    def test_random_pattern_respects_bound(self):
        rng = random.Random(0)
        for _ in range(20):
            pattern = random_pattern(5, rng, max_faulty=2)
            assert len(pattern.faulty) <= 2

    def test_random_binary_proposals_cover_all(self):
        props = random_binary_proposals(6, random.Random(1))
        assert set(props) == set(range(6))
        assert set(props.values()) <= {0, 1}

    def test_run_nuc_outcome_shape(self):
        pattern = FailurePattern(3, {1: 5})
        outcome = run_nuc(pattern, {0: 0, 1: 1, 2: 0}, seed=0)
        assert outcome.ok
        assert outcome.metrics.steps == outcome.result.step_count

    def test_run_boosting_outcome_shape(self):
        outcome = run_boosting(FailurePattern(3), seed=0)
        assert outcome.ok
        assert outcome.recorded.horizon >= 0


class TestMergingHelper:
    def test_synthesized_group_run_is_valid(self):
        from repro.consensus.quorum_mr import QuorumMR

        history = partitioned_history([0, 1], [2, 3])
        pattern = FailurePattern(4, {2: 10**5, 3: 10**5})
        run = synthesize_group_run(
            QuorumMR(),
            4,
            group=[0, 1],
            proposals={p: 0 for p in range(4)},
            pattern=pattern,
            history=history,
            time_of=lambda i: 2 * i,
        )
        assert validate_run(run) == []
        sim = run.simulator()
        sim.run_schedule(run.schedule, run.times)
        assert sim.decision(0) == 0 and sim.decision(1) == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_random_mergeable_pairs(self, seed):
        report = random_mergeable_pair_report(n=5, seed=seed)
        assert report.merged_valid, report.violations
        assert report.states_preserved
        # each group's decisions survive into the merged run
        for p, v in report.decisions0.items():
            assert report.merged_decisions.get(p) == v
        for p, v in report.decisions1.items():
            assert report.merged_decisions.get(p) == v

    def test_merged_run_decides_both_values(self):
        """The Lemma 5.3 shape: one run of the algorithm in which group 0
        decides 0 and (formally faulty) group 1 decides 1 — legal for
        nonuniform consensus precisely because group 1 is faulty."""
        report = random_mergeable_pair_report(n=5, seed=2)
        values = set(report.merged_decisions.values())
        assert values == {0, 1}


class TestExperimentTables:
    def test_exp5_table_smoke(self):
        from repro.harness.experiments import exp5_contamination

        table = exp5_contamination(seeds=(0,))
        text = table.render()
        assert "naive" in text and "anuc" in text

    def test_exp6_table_smoke(self):
        from repro.harness.experiments import exp6_merging

        table = exp6_merging(seeds=range(2), n=5)
        assert "merged is run" in table.render()

    def test_exp4_table_smoke(self):
        from repro.harness.experiments import exp4_separation

        table = exp4_separation(cases=((2, 1), (3, 1)), seeds=(0,))
        text = table.render()
        assert "VIOLATED" in text
        assert "inapplicable" in text
