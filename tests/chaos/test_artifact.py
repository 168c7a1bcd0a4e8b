"""Counterexample artifacts: format, round-trip, replay, committed fixture."""

import json
from pathlib import Path

import pytest

from repro.chaos.artifact import (
    COUNTEREXAMPLE_SCHEMA,
    FORMAT,
    counterexample_document,
    load_counterexample,
    replay_counterexample,
    save_counterexample,
)
from repro.chaos.fuzzer import fuzz_config
from repro.chaos.shrinker import shrink_schedule
from tests.chaos.test_fuzzer import FAST_SPLIT

FIXTURES = Path(__file__).parent / "fixtures"
THEOREM_71_FIXTURE = (
    FIXTURES / "split-quorums-nonuniform-agreement-seed0.json"
)


@pytest.fixture(scope="module")
def shrink_result():
    report = fuzz_config(FAST_SPLIT, seed=0, stop_on="nonuniform agreement")
    violation = report.first("nonuniform agreement")
    result = shrink_schedule(
        FAST_SPLIT, violation.case, "nonuniform agreement"
    )
    assert result is not None
    return result


class TestDocument:
    def test_document_shape(self, shrink_result):
        document = counterexample_document(shrink_result)
        assert set(document) == set(COUNTEREXAMPLE_SCHEMA)
        assert document["format"] == FORMAT
        assert document["property"] == "nonuniform agreement"
        assert document["shrink"]["script_len"] == len(shrink_result.script)
        assert "python -m repro chaos --replay" in document["repro"]

    def test_save_load_round_trip(self, shrink_result, tmp_path):
        path = tmp_path / "nested" / "ce.json"
        saved = save_counterexample(shrink_result, path)
        loaded = load_counterexample(path)
        assert loaded == saved
        assert str(path) in loaded["repro"]
        # Stable serialization: saving again is byte-identical.
        text = path.read_text()
        save_counterexample(shrink_result, path)
        assert path.read_text() == text

    def test_load_accepts_dict(self, shrink_result):
        document = counterexample_document(shrink_result)
        assert load_counterexample(document) == document


class TestValidation:
    def _document(self, shrink_result):
        return counterexample_document(shrink_result)

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            load_counterexample([])

    def test_rejects_wrong_format(self, shrink_result):
        document = self._document(shrink_result)
        document["format"] = "repro-counterexample/99"
        with pytest.raises(ValueError, match="unsupported"):
            load_counterexample(document)

    def test_rejects_missing_key(self, shrink_result):
        document = self._document(shrink_result)
        del document["case"]
        with pytest.raises(ValueError, match="missing key"):
            load_counterexample(document)

    def test_rejects_wrong_type(self, shrink_result):
        document = self._document(shrink_result)
        document["case"] = "not a dict"
        with pytest.raises(ValueError, match="must be dict"):
            load_counterexample(document)


class TestReplay:
    def test_replay_reproduces(self, shrink_result, tmp_path):
        path = tmp_path / "ce.json"
        save_counterexample(shrink_result, path)
        reproduced, outcome, document = replay_counterexample(
            path, config=FAST_SPLIT
        )
        assert reproduced
        assert any(
            v.property == document["property"] for v in outcome.violations
        )

    def test_replay_resolves_config_from_registry(self, tmp_path):
        """Without an explicit config the matrix registry supplies it (the
        committed fixture exercises this path below)."""
        reproduced, outcome, document = replay_counterexample(
            THEOREM_71_FIXTURE
        )
        assert reproduced
        assert document["config"] == "split-quorums"

    def test_replay_refuses_an_unknown_config(self):
        document = json.loads(THEOREM_71_FIXTURE.read_text())
        document["config"] = "martian"
        with pytest.raises(ValueError, match="'martian'.*split-quorums"):
            replay_counterexample(document)


class TestCommittedFixture:
    """The Theorem 7.1 artifact: t >= n/2 split quorums make the naive
    Sigma^nu algorithm break agreement.  Committed so the separation has a
    permanent, replayable witness."""

    def test_fixture_exists_and_validates(self):
        document = load_counterexample(THEOREM_71_FIXTURE)
        assert document["format"] == FORMAT
        assert document["property"] == "nonuniform agreement"
        assert document["config"] == "split-quorums"

    def test_fixture_replays_bit_identically(self):
        reproduced, outcome, document = replay_counterexample(
            THEOREM_71_FIXTURE
        )
        assert reproduced
        live = next(
            v
            for v in outcome.violations
            if v.property == document["property"]
        )
        # Not merely violated again: the identical disagreement.
        assert live.message == document["message"]
        assert outcome.steps == document["shrink"]["script_len"]

    def test_fixture_case_is_a_genuine_split(self):
        """The witness is the Theorem 7.1 shape: two correct halves that
        each see only their own quorum, deciding differently."""
        from repro.chaos.injectors import SplitQuorums
        from repro.chaos.space import FuzzCase

        document = load_counterexample(THEOREM_71_FIXTURE)
        case = FuzzCase.from_json(document["case"])
        pattern = case.pattern()
        half_a, half_b = SplitQuorums.halves(pattern)
        assert half_a and half_b
        proposals = case.proposal_map()
        assert {proposals[p] for p in half_a} != {
            proposals[p] for p in half_b
        }
        assert "decided differently" in document["message"]
