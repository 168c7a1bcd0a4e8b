"""Per-run metrics extracted from live run results."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.core.simtrie import merge_counter_dicts
from repro.kernel.system import RunResult
from repro import obs as _obs


@dataclass
class RunMetrics:
    """Cost and progress figures of one live run."""

    steps: int
    messages_sent: int
    messages_delivered: int
    decided_correct: int
    correct_count: int
    first_decision_time: Optional[int]
    last_decision_time: Optional[int]
    outputs_emitted: int
    #: Decisions across *all* processes (faulty deciders included), unlike
    #: ``decided_correct`` which counts only the correct ones.
    decided_total: int = 0

    @property
    def all_correct_decided(self) -> bool:
        return self.decided_correct == self.correct_count

    @property
    def messages_per_step(self) -> float:
        return self.messages_sent / self.steps if self.steps else 0.0


def collect_metrics(result: RunResult) -> RunMetrics:
    correct = result.pattern.correct
    decided = [p for p in result.decisions if p in correct]
    times = [
        t for p, t in result.decision_times.items() if p in correct
    ]
    outputs = sum(max(0, len(v) - 1) for v in result.outputs.values())
    return RunMetrics(
        steps=result.step_count,
        messages_sent=result.messages_sent,
        messages_delivered=result.messages_delivered,
        decided_correct=len(decided),
        correct_count=len(correct),
        first_decision_time=min(times) if times else None,
        last_decision_time=max(times) if times else None,
        outputs_emitted=outputs,
        decided_total=len(result.decisions),
    )


def collect_search_counters(processes: Iterable[object]) -> Optional[Dict[str, int]]:
    """Sum the search-work counters of every process exposing them.

    The extraction trie (:mod:`repro.core.simtrie`) publishes per-process
    counters through the extractor's ``search_counters()`` method; this
    merges them across a run's processes into one dict for reports and
    benchmark JSON.  ``None`` when no process exposes counters.
    """
    dicts = []
    for proc in processes:
        getter = getattr(proc, "search_counters", None)
        if getter is None:
            continue
        counters = getter()
        if counters:
            dicts.append(counters)
    merged = merge_counter_dicts(dicts)
    if merged and _obs._ENABLED:
        _obs.metrics().absorb(merged, prefix="search.")
    return merged


def message_breakdown(result: RunResult) -> Dict[str, int]:
    """Messages sent per tag (LEAD/REP/PROP/SAW/ACK/..., DAGs as 'DAG').

    Channel-wrapped payloads (the stack's ('B', ...) / ('C', ...)) are
    unwrapped first; untagged payloads count as 'other'.
    """
    counts: Dict[str, int] = {}
    for record in result.steps:
        for message in record.sends:
            payload = message.payload
            if (
                isinstance(payload, tuple)
                and len(payload) == 2
                and isinstance(payload[0], str)
                and len(payload[0]) == 1
            ):
                payload = payload[1]
            if hasattr(payload, "frontier") and hasattr(payload, "add_local_sample"):
                tag = "DAG"
            elif isinstance(payload, tuple) and payload and isinstance(payload[0], str):
                tag = payload[0]
            else:
                tag = "other"
            counts[tag] = counts.get(tag, 0) + 1
    return counts
