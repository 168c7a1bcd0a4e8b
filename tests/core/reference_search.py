"""From-scratch deciding-schedule search: the oracle for the simulation trie.

The shipped search is :class:`repro.core.simtrie.IncrementalExtractionEngine`
over a :class:`repro.core.simtrie.SimulationTrie`.  This module keeps the
plain construction those are an optimization of, so that
``tests/core/test_simtrie.py`` can compare them result for result:
:func:`canonical_schedule` simulates ``A`` along one DAG path with a fresh
:class:`~repro.kernel.runs.PureSystemSimulator`, and
:func:`find_deciding_schedule` re-simulates every candidate subset's
balanced chain from scratch.

A path ``g = (p1,d1,k1), (p2,d2,k2), ...`` of a DAG of D-samples determines
schedules of ``A``: process ``p1`` steps first seeing ``d1``, then ``p2``
seeing ``d2``, and so on, with message deliveries free.  Lemma 4.10
exhibits a canonical one: follow the path and deliver, at each step, the
**oldest** pending message to the stepping process (or lambda).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.core.dag import Sample, balanced_chain
from repro.core.simtrie import PathSimulation, _capped_subset, _subsets_containing
from repro.kernel.automaton import Automaton
from repro.kernel.runs import PureSystemSimulator
from repro.kernel.steps import Schedule, Step


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
