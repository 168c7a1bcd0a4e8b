"""Metrics, aggregation, tables, transcripts and bounded model checking."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.metrics": "RunMetrics collect_metrics",
    "repro.analysis.modelcheck": (
        "ExplorationReport agreement_invariant conjoin explore "
        "validity_invariant"
    ),
    "repro.analysis.stats": "Summary summarize",
    "repro.analysis.tables": "Table",
    "repro.analysis.trace": "decision_summary transcript",
})
