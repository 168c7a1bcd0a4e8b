"""Chunking parity of ``run_sweep``: how tasks are dealt never changes results.

Results stay in task order and equal the serial sweep byte for byte, for
every chunk size and job count.
"""

import random

import pytest

from repro.consensus.quorum_mr import QuorumMR
from repro.detectors import Omega, PairedDetector, Sigma
from repro.harness.parallel import SweepTask, run_sweep
from repro.harness.runner import random_pattern, run_consensus_algorithm


def _tasks(count=6):
    """Consensus sweep tasks, one seed each."""
    tasks = []
    for i in range(count):
        rng = random.Random(i)
        pattern = random_pattern(4, rng, max_faulty=1)
        kwargs = {
            "automaton": QuorumMR(),
            "detector": PairedDetector(Omega(), Sigma("pivot")),
            "pattern": pattern,
            "proposals": {p: p % 2 for p in range(4)},
            "seed": i,
            "max_steps": 2000,
        }
        tasks.append(SweepTask(run_consensus_algorithm, kwargs))
    return tasks


class TestChunkingParity:
    """Results are byte-identical for every chunk size and job count."""

    @pytest.mark.parametrize("chunksize", [None, 1, 2, 3, 7])
    def test_chunksize_never_changes_results(self, chunksize):
        tasks = _tasks(count=7)
        baseline = run_sweep(tasks, jobs=1)
        assert run_sweep(tasks, jobs=2, chunksize=chunksize) == baseline
