"""T_{Sigma^nu -> Sigma^nu+} (Fig. 3): boosting Sigma^nu to Sigma^nu+.

Each process runs A_DAG over Sigma^nu and looks, in the fresh part of its
DAG (descendants of the barrier ``u_p``), for a path ``g`` with

    ``trusted(g) ⊆ participants(g)``  and  ``p ∈ participants(g)``,

where ``participants(g)`` are the processes whose samples lie on ``g`` and
``trusted(g)`` is the union of the Sigma^nu quorums carried by those samples
(Fig. 3 lines 15-19).  When found it outputs ``participants(g)`` and moves
the freshness barrier.

Finding such a path needs no enumeration.  Because the DAG is transitively
closed and every node stores its ancestry *frontier* (the newest sample of
each process below it — see :mod:`repro.core.dag`), a chain containing one
recent sample of each process in a candidate set ``S`` can be built by a
**frontier cascade**: start from ``p``'s newest fresh sample, then repeatedly
descend to the newest sample of a still-missing process recorded in the
current node's frontier.  Consecutive picks are ancestors by construction,
so the result is a genuine DAG path.  The candidate set starts at ``{p}``
and is widened by the quorums the chain trusts until closure — mirroring how
Lemma 6.1's proof finds its path (a fresh segment containing every correct
process, whose quorums have stabilized inside ``correct(F)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, Generator, List, Optional, Sequence, Tuple

from repro.core.dag import DagCore, Sample, SampleDAG
from repro.kernel.automaton import Process, ProcessContext
# Aliased: ``obs`` is the observation local inside program() below.
from repro import obs as obslib


def trusted(path: Sequence[Sample]) -> FrozenSet[int]:
    """``trusted(g)``: union of the quorums in the samples of ``g``."""
    result: set = set()
    for sample in path:
        result |= set(sample.d)
    return frozenset(result)


def path_participants(path: Sequence[Sample]) -> FrozenSet[int]:
    """``participants(g)``: processes with a sample on ``g``."""
    return frozenset(sample.pid for sample in path)


def _is_fresh(node: Sample, barrier: Sample) -> bool:
    """Whether ``node`` lies in ``G | barrier``."""
    return node.key == barrier.key or SampleDAG.is_ancestor(barrier, node)


def frontier_cascade(
    dag: SampleDAG,
    top: Sample,
    members: FrozenSet[int],
    barrier: Sample,
) -> Optional[List[Sample]]:
    """A fresh chain ending at ``top`` with one sample of each of ``members``.

    Walks downward: from the current node, the newest known sample of each
    still-missing process is an ancestor (frontier definition); descend to
    the deepest of those and repeat.  Fails (``None``) when some member has
    no sample, or the cascade would fall below the freshness barrier.
    """
    if not _is_fresh(top, barrier):
        return None
    chain = [top]
    missing = set(members) - {top.pid}
    cursor = top
    while missing:
        picks: List[Sample] = []
        for q in sorted(missing):
            k = cursor.frontier[q]
            if k == 0:
                return None
            node = dag.get((q, k))
            if node is None or not _is_fresh(node, barrier):
                return None
            picks.append(node)
        nxt = max(picks, key=lambda s: (s.depth, s.pid))
        chain.append(nxt)
        missing.discard(nxt.pid)
        cursor = nxt
    chain.reverse()
    return chain


def find_closed_path(
    dag: SampleDAG,
    pid: int,
    barrier: Sample,
) -> Optional[List[Sample]]:
    """A fresh path ``g`` with ``trusted(g) ⊆ participants(g) ∋ pid``.

    Closure search: starting from ``S = {pid}``, build the cascade chain for
    ``S`` and widen ``S`` by the quorums it trusts until the chain is closed
    or the candidate set stops growing (wait for more samples then).
    """
    if not obslib._ENABLED:
        return _find_closed_path(dag, pid, barrier)
    reg = obslib.metrics()
    reg.inc("boost.path_searches")
    with obslib.tracer().span("boost.path_search", pid=pid) as span:
        chain = _find_closed_path(dag, pid, barrier, reg=reg)
        span.set(found=chain is not None)
        return chain


def _find_closed_path(
    dag: SampleDAG,
    pid: int,
    barrier: Sample,
    reg: Optional[Any] = None,
) -> Optional[List[Sample]]:
    top = dag.latest_sample(pid)
    if top is None:
        return None
    candidate: FrozenSet[int] = frozenset([pid])
    for _ in range(dag.n + 1):  # closure adds >= 1 process per iteration
        if reg is not None:
            reg.inc("boost.closure_rounds")
        chain = frontier_cascade(dag, top, candidate, barrier)
        if chain is None:
            return None
        needs = trusted(chain)
        parts = path_participants(chain)
        if needs <= parts:
            return chain
        widened = candidate | needs
        if widened == candidate:
            return None
        candidate = widened
    return None


@dataclass
class _BoostEvidence:
    """Why a quorum was output: the closed path found."""

    quorum: FrozenSet[int]
    path: Tuple[Sample, ...]
    barrier: Sample


class SigmaNuPlusBooster(Process):
    """One process of ``T_{Sigma^nu -> Sigma^nu+}``.

    The ambient detector is Sigma^nu (its values must be iterables of
    process ids).  The emulated Sigma^nu+ output starts at Pi (line 2).
    ``check_growth``: run the path search only after the DAG gained at least
    this many nodes since the last attempt (1 = every step, as in Fig. 3).
    """

    def __init__(self, n: int, check_growth: int = 1):
        self.n = n
        self.check_growth = check_growth
        self.evidence: List[_BoostEvidence] = []
        self.core: Optional[DagCore] = None

    def initial_output(self) -> Any:
        return frozenset(range(self.n))

    def program(self, ctx: ProcessContext) -> Generator:
        core = DagCore(ctx.pid, ctx.n)
        self.core = core
        barrier: Optional[Sample] = None
        last_size = -(10**9)

        while True:
            obs = yield from ctx.take_step()  # line 6
            if obs.message is not None:  # line 8
                core.absorb(obs.message.payload)
            own = core.sample(frozenset(obs.detector_value), obs.time)  # lines 7, 9-11
            ctx.send_to_all(core.dag)  # line 12
            if core.k == 1:  # line 13
                barrier = own
                last_size = -(10**9)
            assert barrier is not None

            if len(core.dag) - last_size < self.check_growth:
                continue
            last_size = len(core.dag)

            path = find_closed_path(core.dag, ctx.pid, barrier)  # lines 14-15
            if path is None:
                continue
            quorum = path_participants(path)  # line 16
            ctx.output(quorum)
            if obslib._ENABLED:
                obslib.metrics().inc("boost.quorums")
                obslib.tracer().event(
                    "boost.quorum",
                    tick=obs.time,
                    pid=ctx.pid,
                    quorum=sorted(quorum),
                )
            self.evidence.append(
                _BoostEvidence(quorum=quorum, path=tuple(path), barrier=barrier)
            )
            barrier = own  # line 17
            last_size = -(10**9)
