"""Large-n extraction smoke (``pytest -m slow``).

Excluded from the default run (see ``pyproject.toml``); CI runs it in a
blocking job next to the full EXP-3 reference table.  The point is scale,
not new properties: at n=7 the chains are far longer than in the n<=4
tier-1 cases, so this exercises the trie's cache depth and the walks' tip
and base simulators well past what the fast suite reaches — and still
demands a valid Sigma^nu history.  The search runs in its single-attempt
mode (``minimize_participants=False``): with pivot quorums averaging ~n/2
members, minimizing over all small subsets at n=7 mostly simulates chains
that cannot cover any quorum.
"""

import random

import pytest

from repro.consensus.quorum_mr import QuorumMR
from repro.core.extraction import ExtractionSearch
from repro.detectors import Omega, PairedDetector, Sigma
from repro.harness.runner import run_extraction
from repro.kernel.failures import FailurePattern

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("seed", [0, 1])
def test_extraction_n7_smoke(seed):
    n = 7
    rng = random.Random(seed)
    crashed = rng.sample(range(n), rng.randint(0, 2))
    pattern = FailurePattern(n, {p: rng.randint(0, 40) for p in crashed})
    detector = PairedDetector(Omega(), Sigma("pivot"))
    outcome = run_extraction(
        QuorumMR(),
        detector,
        pattern,
        seed=seed,
        max_steps=8000,
        min_outputs=2,
        search=ExtractionSearch(minimize_participants=False, search_growth=30),
        trace="metrics",
    )
    assert outcome.result.stop_reason == "stop_condition", pattern
    assert outcome.sigma_nu_check.ok, outcome.sigma_nu_check.violations[:2]
    counters = outcome.search_counters
    assert counters is not None and counters["queries"] > 0
    # The whole point of running at this scale: deep cache reuse.
    assert counters["steps_from_cache"] > counters["steps_simulated"]
