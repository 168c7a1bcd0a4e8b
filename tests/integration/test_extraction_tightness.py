"""Tightness of the necessity transformation: Σν, not Σ.

Theorem 5.8 says T_{D→Σν} yields full Σ when the subject solves *uniform*
consensus.  The converse boundary: with a subject that solves only
*nonuniform* consensus (A_nuc) under a detector history where a faulty
process owns a private quorum, the transformation's output satisfies Σν but
**fails** Σ — the faulty process extracts a deciding schedule in which it
decides alone, and outputs a quorum disjoint from the correct ones.

This is the executable content of "Σν is the weakest you can extract":
the transformation cannot do better than Σν precisely because nonuniform
consensus lets faulty processes decide in isolation.
"""

import pytest

from repro.core.extraction import ExtractionSearch, SigmaNuExtractor
from repro.core.nuc import AnucAutomaton
from repro.detectors import (
    check_sigma,
    check_sigma_nu,
    recorded_output_history,
)
from repro.detectors.base import FunctionalHistory
from repro.kernel.failures import FailurePattern
from repro.kernel.messages import CoalescingDelivery
from repro.kernel.system import System


@pytest.fixture(scope="module")
def tight_run():
    """Extraction from A_nuc under a split-quorum (Ω, Σν+) history.

    Process 2 is faulty (crashing late enough to emit quorums); its module
    outputs (2, {2}) — a legal Σν+ history since {2} ⊆ faulty.  Processes
    0 and 1 see (0, {0,1}).
    """
    n = 3
    pattern = FailurePattern(3, {2: 700})

    def value(p, t):
        if p == 2:
            return (2, frozenset({2}))
        return (0, frozenset({0, 1}))

    history = FunctionalHistory(value)
    processes = {
        p: SigmaNuExtractor(
            AnucAutomaton(),
            n,
            search=ExtractionSearch(search_growth=40, max_path_len=400),
        )
        for p in range(n)
    }
    system = System(
        processes,
        pattern,
        history,
        seed=3,
        delivery=CoalescingDelivery(),
    )

    def everyone_output(sys):
        return all(len(sys.contexts[p].outputs) >= 2 for p in range(n))

    result = system.run(max_steps=2200, stop_when=everyone_output, extra_steps=80)
    return pattern, result


class TestExtractionTightness:
    def test_everyone_extracted_quorums(self, tight_run):
        _, result = tight_run
        for p in range(3):
            assert len(result.outputs[p]) >= 2, (
                p,
                {q: len(v) for q, v in result.outputs.items()},
            )

    def test_faulty_process_extracts_its_private_quorum(self, tight_run):
        """Process 2 can decide alone (its A_nuc quorum is {2}), so the
        transformation at 2 discovers the singleton deciding schedules and
        outputs {2}."""
        _, result = tight_run
        quorums = [frozenset(q) for _, q in result.outputs[2][1:]]
        assert frozenset({2}) in quorums

    def test_correct_processes_extract_within_correct(self, tight_run):
        _, result = tight_run
        for p in (0, 1):
            final = frozenset(result.outputs[p][-1][1])
            assert final <= {0, 1}

    def test_output_satisfies_sigma_nu_but_not_sigma(self, tight_run):
        """The payoff: the same O_R passes the Σν checker and fails the Σ
        checker — extraction from a nonuniform-only subject cannot reach Σ."""
        pattern, result = tight_run
        recorded = recorded_output_history(result)
        nu = check_sigma_nu(recorded, pattern, recorded.horizon)
        full = check_sigma(recorded, pattern, recorded.horizon)
        assert nu.ok, nu.violations[:3]
        assert not full.ok
        assert any("intersection" in v for v in full.violations)
