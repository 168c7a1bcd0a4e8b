"""T_{D -> Sigma^nu} (Fig. 2): the necessity transformation.

Given any algorithm ``A`` that uses detector ``D`` to solve (binary)
nonuniform consensus, each process runs A_DAG over ``D`` and, from the fresh
part of its DAG (descendants of the barrier ``u_p``), looks for two simulated
schedules — one from the all-0 initial configuration, one from the all-1
configuration — in both of which it decides.  When found, it outputs

    ``participants(S_0) ∪ participants(S_1)``

as its next Sigma^nu quorum and refreshes the barrier (lines 17-19).

* Completeness follows from the freshness barrier: after all crashes, fresh
  samples are all of correct processes (Lemma 5.2).
* Nonuniform intersection follows from the merging argument (Lemma 5.3): two
  disjoint deciding schedules from I_0 and I_1 would merge into one run of
  ``A`` deciding 0 and 1 — and the test suite *performs* that merge with
  Lemma 2.2 whenever it can, as a deep differential check.

The same algorithm transforms any ``D`` that solves *uniform* consensus into
full Sigma (Theorem 5.8); only the checker changes.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Generator, List, Mapping, Optional, Tuple

from repro.core.dag import DagCore, Sample, SampleDAG
from repro.core.simtrie import IncrementalExtractionEngine, PathSimulation
from repro.kernel.automaton import Automaton, Process, ProcessContext
# Aliased: ``obs`` is the observation local inside program() below.
from repro import obs as obslib


@dataclass
class ExtractionSearch:
    """Tuning knobs for the deciding-schedule search.

    ``search_growth`` throttles how often the (exponential-in-n) subset
    search runs: only after the fresh subgraph gained at least that many new
    samples since the last attempt.  Found schedules stay valid as the DAG
    grows (``Sch`` is monotone — Lemma 4.5/4.11), so each initial
    configuration's schedule is cached until the barrier moves.

    The search runs through the incremental simulation trie
    (:mod:`repro.core.simtrie`): each candidate subset's chain is grown
    incrementally, and chains share simulated prefixes between attempts and
    between the I_0 and I_1 configurations.  The results are identical to
    a from-scratch search (oracle-tested in ``tests/core/test_simtrie.py``
    against ``tests/core/reference_search.py``).
    """

    search_growth: int = 12
    max_path_len: int = 2000
    minimize_participants: bool = True
    max_subset_size: Optional[int] = None  # cap candidate quorum size


@dataclass
class _QuorumEvidence:
    """Why a quorum was output: the two deciding simulations."""

    quorum: FrozenSet[int]
    sim0: PathSimulation
    sim1: PathSimulation
    barrier: Sample


class SigmaNuExtractor(Process):
    """One process of ``T_{D -> Sigma^nu}``.

    Parameters
    ----------
    subject:
        The consensus algorithm ``A`` (a pure automaton) that solves
        nonuniform consensus using the ambient detector ``D``.
    values:
        The two proposal values of binary consensus (default ``(0, 1)``).
    search:
        Schedule-search tuning.
    """

    def __init__(
        self,
        subject: Automaton,
        n: int,
        values: Tuple[Any, Any] = (0, 1),
        search: Optional[ExtractionSearch] = None,
    ):
        self.subject = subject
        self.n = n
        self.values = values
        self.search = search if search is not None else ExtractionSearch()
        self.evidence: List[_QuorumEvidence] = []
        self.core: Optional[DagCore] = None
        self.engine = IncrementalExtractionEngine(subject, n)

    def initial_output(self) -> Any:
        # Line 2: Sigma^nu-output_p <- Pi.
        return frozenset(range(self.n))

    def search_counters(self) -> Dict[str, int]:
        """The trie's work counters."""
        return self.engine.counters.as_dict()

    def _find(
        self,
        proposals: Mapping[int, Any],
        fresh: List[Sample],
        target: int,
        barrier: Sample,
    ) -> Optional[PathSimulation]:
        if not obslib._ENABLED:
            return self._find_impl(proposals, fresh, target, barrier)
        obslib.metrics().inc("extract.find_calls")
        with obslib.tracer().span(
            "extract.find",
            value=next(iter(proposals.values()), None),
            fresh=len(fresh),
            pid=target,
        ) as span:
            found = self._find_impl(proposals, fresh, target, barrier)
            span.set(found=found is not None)
            return found

    def _find_impl(
        self,
        proposals: Mapping[int, Any],
        fresh: List[Sample],
        target: int,
        barrier: Sample,
    ) -> Optional[PathSimulation]:
        # A method of its own so the oracle in tests/core/test_simtrie.py
        # can put the from-scratch reference search in its place.
        search = self.search
        return self.engine.find_deciding_schedule(
            proposals,
            fresh,
            target,
            barrier=barrier,
            max_path_len=search.max_path_len,
            minimize_participants=search.minimize_participants,
            max_subset_size=search.max_subset_size,
        )

    def program(self, ctx: ProcessContext) -> Generator:
        core = DagCore(ctx.pid, ctx.n)
        self.core = core
        search = self.search
        proposals0 = {p: self.values[0] for p in range(ctx.n)}
        proposals1 = {p: self.values[1] for p in range(ctx.n)}

        barrier: Optional[Sample] = None
        cached: Dict[int, Optional[PathSimulation]] = {0: None, 1: None}
        last_search_size = -(10**9)
        # The fresh subgraph (line 14) is maintained incrementally: each
        # process's samples only grow by ascending k, so scanning them past
        # the last-scanned k finds exactly the new ones, in the per-process
        # order the engine ingests.  Old verdicts on descending from the
        # barrier stay valid; a barrier move resets the scan.
        fresh: List[Sample] = []
        scanned = (0,) * ctx.n

        while True:
            obs = yield from ctx.take_step()  # line 6
            if obs.message is not None:  # line 8
                core.absorb(obs.message.payload)
            own = core.sample(obs.detector_value, obs.time)  # lines 7, 9-11
            ctx.send_to_all(core.dag)  # line 12
            if core.k == 1:  # line 13
                barrier = own
                cached = {0: None, 1: None}
                last_search_size = -(10**9)
                fresh = []
                scanned = (0,) * ctx.n
            assert barrier is not None

            # Throttle: the schedule search is the expensive part, so only
            # run it after the DAG has grown enough to plausibly matter.
            if len(core.dag) - last_search_size < search.search_growth:
                continue
            last_search_size = len(core.dag)
            dag = core.dag  # line 14: G_p | u_p, incrementally
            is_ancestor = SampleDAG.is_ancestor
            for q, top in enumerate(dag.frontier):
                for k in range(scanned[q] + 1, top + 1):
                    s = dag.get((q, k))
                    if is_ancestor(barrier, s) or s.key == barrier.key:
                        fresh.append(s)
            scanned = dag.frontier

            # Lines 15-17: look for deciding schedules from I_0 and I_1.
            # Both configurations search through the same trie: the interned
            # chain structure is shared, only the per-configuration caches
            # (steps, decisions, snapshots) differ.
            if obslib._ENABLED:
                obslib.metrics().inc("extract.search_ticks")
            with (
                obslib.tracer().span(
                    "extract.search_tick",
                    tick=obs.time,
                    pid=ctx.pid,
                    dag=len(core.dag),
                    fresh=len(fresh),
                )
                if obslib._ENABLED
                else nullcontext()
            ):
                for index, proposals in ((0, proposals0), (1, proposals1)):
                    if cached[index] is None:
                        cached[index] = self._find(
                            proposals, fresh, ctx.pid, barrier
                        )
            sim0, sim1 = cached[0], cached[1]
            if sim0 is None or sim1 is None:
                continue

            # Lines 18-19: output the union of participants, move the barrier.
            quorum = sim0.participants | sim1.participants
            ctx.output(quorum)
            if obslib._ENABLED:
                obslib.metrics().inc("extract.quorums")
                obslib.tracer().event(
                    "extract.quorum",
                    tick=obs.time,
                    pid=ctx.pid,
                    quorum=sorted(quorum),
                )
            self.evidence.append(
                _QuorumEvidence(quorum=quorum, sim0=sim0, sim1=sim1, barrier=barrier)
            )
            barrier = own
            cached = {0: None, 1: None}
            last_search_size = -(10**9)
            fresh = []
            scanned = (0,) * ctx.n
