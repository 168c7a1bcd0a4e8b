"""The paper's contribution: DAGs of samples, simulated schedules, the
necessity transformation ``T_{D -> Sigma^nu}``, the booster
``T_{Sigma^nu -> Sigma^nu+}``, and the consensus algorithm ``A_nuc``.
"""

from repro.core.boosting import SigmaNuPlusBooster
from repro.core.dag import BalancedChainBuilder, DagCore, Sample, SampleDAG
from repro.core.extraction import ExtractionSearch, SigmaNuExtractor
from repro.core.nuc import AnucAutomaton
from repro.core.sampling import DagBuilder
from repro.core.simtrie import (
    IncrementalExtractionEngine,
    SimulationTrie,
    TrieCounters,
    merge_counter_dicts,
)
from repro.core.simulation import (
    PathSimulation,
    canonical_schedule,
    find_deciding_schedule,
)
from repro.core.stack import StackedNucProcess

__all__ = [
    "AnucAutomaton",
    "BalancedChainBuilder",
    "DagBuilder",
    "DagCore",
    "ExtractionSearch",
    "IncrementalExtractionEngine",
    "PathSimulation",
    "Sample",
    "SampleDAG",
    "SigmaNuExtractor",
    "SigmaNuPlusBooster",
    "SimulationTrie",
    "StackedNucProcess",
    "TrieCounters",
    "canonical_schedule",
    "find_deciding_schedule",
    "merge_counter_dicts",
]
