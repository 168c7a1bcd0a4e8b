"""Full circle: extract Sigma^nu from A_nuc itself.

Theorem 5.4's premise is *any* algorithm A that solves nonuniform consensus
using D.  The paper's own A_nuc (using D = (Omega, Sigma^nu+)) qualifies —
so running T_{D -> Sigma^nu} with A = A_nuc must emit valid Sigma^nu
histories.  A_nuc is an automaton, so it enters the construction as the
subject directly.
"""

import pytest

from repro.core.extraction import ExtractionSearch
from repro.core.nuc import AnucAutomaton
from repro.detectors import Omega, PairedDetector, SigmaNuPlus
from repro.harness.runner import run_extraction
from repro.kernel.failures import FailurePattern


@pytest.mark.parametrize(
    "pattern",
    [
        FailurePattern(2, {}),
        FailurePattern(2, {1: 12}),
        FailurePattern(3, {2: 15}),
        FailurePattern(3, {}),
        FailurePattern(3, {0: 10, 1: 20}),
        FailurePattern(4, {2: 15, 3: 25}),
    ],
    ids=[
        "n2-failfree",
        "n2-one-crash",
        "n3-one-crash",
        "n3-failfree",
        "n3-minority-correct",
        "n4-two-crashes",
    ],
)
def test_extract_sigma_nu_from_anuc(pattern):
    detector = PairedDetector(Omega(), SigmaNuPlus())
    outcome = run_extraction(
        AnucAutomaton(),
        detector,
        pattern,
        seed=2,
        max_steps=3000,
        min_outputs=2,
        extra_steps=100,
        search=ExtractionSearch(search_growth=30, max_path_len=500),
    )
    assert outcome.result.stop_reason == "stop_condition", (
        pattern,
        {p: len(v) for p, v in outcome.result.outputs.items()},
    )
    assert outcome.sigma_nu_check.ok, outcome.sigma_nu_check.violations[:3]
