"""Simulated schedules of an algorithm A from a DAG of samples (Section 4.2).

A path ``g = (p1,d1,k1), (p2,d2,k2), ...`` of a DAG of D-samples determines
schedules of ``A``: process ``p1`` steps first seeing ``d1``, then ``p2``
seeing ``d2``, and so on, with message deliveries free.  ``Sch(G, I)`` is
the set of schedules compatible with some path of ``G`` and applicable to
initial configuration ``I``.

Enumerating ``Sch`` is exponential; the proofs only ever need *one* deciding
schedule, and Lemma 4.10 exhibits a canonical one: follow the path and
deliver, at each step, the **oldest** pending message to the stepping process
(or lambda).  :func:`canonical_schedule` implements exactly that rule.

:func:`find_deciding_schedule` searches for a deciding schedule with few
participants by restricting the path to samples of candidate process subsets
(smallest first) — recovering the interesting, small quorums that
``T_{D -> Sigma^nu}`` extracts when the subject algorithm can decide inside
a small quorum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.dag import Sample, balanced_chain
from repro.kernel.automaton import Automaton
from repro.kernel.runs import PureSystemSimulator
from repro.kernel.steps import Schedule, Step


@dataclass
class PathSimulation:
    """Result of simulating A along one DAG path."""

    schedule: Schedule
    path: Tuple[Sample, ...]
    participants: FrozenSet[int]
    decisions: Dict[int, Any]
    target_decided_at: Optional[int]  # schedule length when target decided

    @property
    def target_decided(self) -> bool:
        return self.target_decided_at is not None


def canonical_schedule(
    automaton: Automaton,
    n: int,
    proposals: Mapping[int, Any],
    path: Sequence[Sample],
    target: Optional[int] = None,
    stop_on_target_decision: bool = True,
) -> PathSimulation:
    """Simulate ``A`` along ``path`` with oldest-message delivery.

    This constructs the schedule of Lemma 4.10: compatible with the path,
    applicable to the initial configuration given by ``proposals``, receiving
    at each step the oldest pending message to the stepping process (lambda
    when none).  When ``target`` is given and decides, simulation can stop
    early and the deciding prefix is reported.
    """
    sim = PureSystemSimulator(automaton, n, proposals)
    steps: List[Step] = []
    used_path: List[Sample] = []
    target_decided_at: Optional[int] = None
    for sample in path:
        uid = sim.oldest_pending_uid(sample.pid)
        step = Step(pid=sample.pid, msg_uid=uid, detector_value=sample.d)
        sim.apply_step(step, time=len(steps))
        steps.append(step)
        used_path.append(sample)
        if (
            target is not None
            and target_decided_at is None
            and sim.decision(target) is not None
        ):
            target_decided_at = len(steps)
            if stop_on_target_decision:
                break
    schedule = Schedule(steps)
    return PathSimulation(
        schedule=schedule,
        path=tuple(used_path),
        participants=frozenset(s.pid for s in used_path),
        decisions=sim.decided_pids(),
        target_decided_at=target_decided_at,
    )


def _subsets_containing(
    pool: Sequence[int], anchor: int, max_size: Optional[int] = None
) -> Iterable[FrozenSet[int]]:
    """Subsets of ``pool`` containing ``anchor``, smallest first.

    Every yielded subset has at most ``max_size`` members (the anchor
    included); a cap below 1 cannot admit even the singleton ``{anchor}``
    and is rejected rather than silently yielding nothing.
    """
    if max_size is not None and max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    rest = [p for p in pool if p != anchor]
    limit = len(rest) if max_size is None else min(len(rest), max_size - 1)
    for size in range(0, limit + 1):
        for combo in itertools.combinations(rest, size):
            yield frozenset((anchor,) + combo)


def _capped_subset(
    present: Sequence[int],
    target: int,
    counts: Mapping[int, int],
    max_subset_size: Optional[int],
) -> FrozenSet[int]:
    """The process set for a single (non-minimizing) attempt.

    Respects ``max_subset_size`` — previously the non-minimizing mode
    ignored the cap entirely — by keeping ``target`` plus the best-sampled
    other processes (deterministically: most fresh samples first, then
    lowest pid).
    """
    if max_subset_size is not None and max_subset_size < 1:
        raise ValueError(f"max_subset_size must be >= 1, got {max_subset_size}")
    if max_subset_size is None or len(present) <= max_subset_size:
        return frozenset(present)
    rest = sorted(
        (p for p in present if p != target),
        key=lambda p: (-counts.get(p, 0), p),
    )
    return frozenset([target] + rest[: max_subset_size - 1])


def find_deciding_schedule(
    automaton: Automaton,
    n: int,
    proposals: Mapping[int, Any],
    fresh_nodes: Sequence[Sample],
    target: int,
    max_path_len: int = 2000,
    minimize_participants: bool = True,
    max_subset_size: Optional[int] = None,
) -> Optional[PathSimulation]:
    """Find a schedule in ``Sch(G|u, I)`` in which ``target`` decides.

    ``fresh_nodes`` are the descendants of the freshness barrier ``u`` (in
    topological order or not; they are re-sorted).  When
    ``minimize_participants`` is set, candidate process subsets containing
    ``target`` are tried smallest-first so the returned schedule (and hence
    the extracted quorum) is small; otherwise a single attempt over the
    (``max_subset_size``-capped) processes present is made.

    This is the from-scratch reference: every chain is simulated with
    :func:`canonical_schedule`.  The extraction runs the incremental
    :class:`~repro.core.simtrie.IncrementalExtractionEngine`, which the
    oracle tests check against this function.

    Returns ``None`` when no deciding schedule exists over these samples —
    the caller waits for the DAG to grow (Lemma 5.1 guarantees eventual
    success for correct processes).
    """
    counts: Dict[int, int] = {}
    for s in fresh_nodes:
        counts[s.pid] = counts.get(s.pid, 0) + 1
    present = sorted(counts)
    if target not in present:
        return None

    if not minimize_participants:
        subset = _capped_subset(present, target, counts, max_subset_size)
        chain = balanced_chain(
            [s for s in fresh_nodes if s.pid in subset]
        )[:max_path_len]
        result = canonical_schedule(automaton, n, proposals, chain, target)
        return result if result.target_decided else None

    for subset in _subsets_containing(present, target, max_subset_size):
        filtered = [s for s in fresh_nodes if s.pid in subset]
        # Cheap precheck: without a fresh sample of the target the chain
        # cannot contain a target step, so skip before building the chain.
        if not any(s.pid == target for s in filtered):
            continue
        chain = balanced_chain(filtered)[:max_path_len]
        if not any(s.pid == target for s in chain):
            continue
        result = canonical_schedule(automaton, n, proposals, chain, target)
        if result.target_decided:
            return result
    return None
