"""The paper's contribution: DAGs of samples, simulated schedules, the
necessity transformation ``T_{D -> Sigma^nu}``, the booster
``T_{Sigma^nu -> Sigma^nu+}``, and the consensus algorithm ``A_nuc``.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.boosting": "SigmaNuPlusBooster",
    "repro.core.dag": "BalancedChainBuilder DagCore Sample SampleDAG",
    "repro.core.extraction": "ExtractionSearch SigmaNuExtractor",
    "repro.core.nuc": "AnucAutomaton",
    "repro.core.sampling": "DagBuilder",
    "repro.core.simtrie": (
        "IncrementalExtractionEngine PathSimulation SimulationTrie "
        "TrieCounters merge_counter_dicts"
    ),
    "repro.core.stack": "StackedNucProcess",
})
