"""The fused quorum-MR lane: the step loop's one measured specialisation.

The paper has one step semantics (Section 2.4: receive, query, transition,
send) and :class:`~repro.kernel.system.System` is its implementation.  A
second implementation has to pay for itself in a measured number; the one
that does is kept here.  :class:`BatchSystem` takes many independent runs
("lanes") and returns, for every lane, exactly the
:class:`~repro.kernel.system.RunResult` that ``System.run()`` produces from
the same configuration and seed.  Lanes of one particular shape — the shape
the perf ledger's ``kernel_lanes`` workload measures at ~6x the
interpreted engine — run on a fused loop that inlines the quorum-MR phase
machine, the random-fair scheduler and fair-random delivery over flat
per-pid lists.  Every other lane *is* one ``System(...).run(...)``.

The routing rule
----------------
:func:`probe_spec` is the whole rule.  A lane runs fused iff all of:

* ``automaton`` is exactly a ``QuorumMR`` or ``NaiveSigmaNuConsensus``
  (subclasses may override the hooks the loop inlines);
* ``scheduler`` is ``None`` or a ``("random-fair", max_gap)`` spec and
  ``delivery`` is ``None`` or a ``("fair-random", lambda_prob, max_age)``
  spec;
* ``trace`` is ``"metrics"``;
* the history compiles to per-process breakpoint tables
  (:func:`repro.detectors.paired.history_breakpoints`);
* observability is off (the fused loop records none of the ``kernel.*``
  telemetry the interpreted engine does).

Otherwise the first condition that fails is the lane's entry in
``BatchSystem.stats["fallback_reasons"]`` (and, under observability, one
``batch.fallback`` count and event).  See ``docs/performance.md`` for the
measurements behind the rule.

Bit-identity invariants the fused loop preserves
------------------------------------------------
* scheduler draws come from ``random.Random(f"{seed}/sched")`` with
  ``rng.choice`` inlined as the exact ``getrandbits`` rejection loop;
* delivery draws come from ``random.Random(f"{seed}/delivery/{p}")`` in
  the same order (age check, lambda roll, uniform pick);
* message age is the destination's step count now minus its count at
  the send, the buffer's own definition, kept in flat lists;
* detector values come from the history's own compiled breakpoint tables,
  advanced by a monotone cursor instead of a per-step bisect;
* crash epochs advance by the same cursor rule as ``System.advance``;
* the run loop replicates ``System._run_loop`` stop/extra-steps
  semantics, including the stop check before the first step.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.consensus.mostefaoui_raynal import LEAD, PROP, REP, UNKNOWN
from repro.consensus.quorum_mr import NaiveSigmaNuConsensus, QuorumMR
from repro.detectors.paired import history_breakpoints
from repro.kernel.automaton import Automaton, AutomatonProcess
from repro.kernel.failures import FailurePattern
from repro.kernel.messages import (
    DeliveryPolicy,
    FairRandomDelivery,
    build_delivery,
)
from repro.kernel.scheduler import (
    RandomFairScheduler,
    SchedulingPolicy,
    build_scheduler,
)
from repro.kernel.system import RunResult, System, all_correct_decided
from repro import obs as _obs

__all__ = ["BatchSystem", "LaneSpec", "probe_spec"]


@dataclass
class LaneSpec:
    """Everything one lane needs to reproduce one ``System.run()``.

    The lane runs ``AutomatonProcess(automaton, proposals[p])`` at every
    pid.  ``scheduler`` / ``delivery`` are serializable spec tuples (see
    :func:`repro.kernel.scheduler.build_scheduler` /
    :func:`repro.kernel.messages.build_delivery`), or ``None`` for the
    kernel defaults.  Policy *instances* are rejected: they carry mutable
    cursors and cannot be rebuilt per lane.

    ``stop`` is declarative: ``None`` (run the full budget) or
    ``"all-correct-decided"`` (the consensus stop condition), optionally
    with ``extra_steps`` — matching ``System.run``'s protocol.
    """

    pattern: FailurePattern
    history: Any
    seed: int
    max_steps: int
    automaton: Automaton
    proposals: Mapping[int, Any]
    scheduler: Optional[Tuple[Any, ...]] = None
    delivery: Optional[Tuple[Any, ...]] = None
    trace: str = "metrics"
    stop: Optional[str] = None
    extra_steps: int = 0

    def __post_init__(self) -> None:
        if self.trace not in ("full", "metrics"):
            raise ValueError(f"unknown trace mode {self.trace!r}")
        if self.stop not in (None, "all-correct-decided"):
            raise ValueError(f"unknown stop condition {self.stop!r}")
        if isinstance(self.scheduler, SchedulingPolicy):
            raise ValueError("pass a scheduler spec tuple, not an instance")
        if isinstance(self.delivery, DeliveryPolicy):
            raise ValueError("pass a delivery spec tuple, not an instance")


def _segment_tables(history: Any, n: int):
    """Breakpoint tables for all processes, or ``None`` if unsupported.

    The tables are the history's own compiled copy (shared with the
    interpreted engine, which reads them through ``history.value``)."""
    by_process = history_breakpoints(history)
    if by_process is None or any(p not in by_process for p in range(n)):
        return None
    return [by_process[p] for p in range(n)]


def probe_spec(spec: LaneSpec) -> Optional[str]:
    """Why ``spec`` runs interpreted, or ``None`` if it runs fused."""
    return _route(spec)[0]


def _route(spec: LaneSpec):
    """``(reason, tables)``: the routing rule, plus the history's breakpoint
    tables for a fused lane so they are looked up once."""
    if _obs._ENABLED:
        return "obs-enabled", None
    if type(spec.automaton) not in (QuorumMR, NaiveSigmaNuConsensus):
        return "automaton", None
    if spec.scheduler is not None and spec.scheduler[0] != "random-fair":
        return "scheduler", None
    if spec.delivery is not None and spec.delivery[0] != "fair-random":
        return "delivery", None
    if spec.trace != "metrics":
        return "trace", None
    tables = _segment_tables(spec.history, spec.pattern.n)
    return ("history", None) if tables is None else (None, tables)


def _run_interpreted(spec: LaneSpec) -> RunResult:
    """The lane as the one ``System(...).run(...)`` it stands for."""
    system = System(
        {
            p: AutomatonProcess(spec.automaton, spec.proposals[p])
            for p in range(spec.pattern.n)
        },
        spec.pattern,
        spec.history,
        scheduler=build_scheduler(spec.scheduler) if spec.scheduler else None,
        delivery=build_delivery(spec.delivery) if spec.delivery else None,
        seed=spec.seed,
        trace=spec.trace,
    )
    return system.run(
        max_steps=spec.max_steps,
        stop_when=(
            all_correct_decided if spec.stop == "all-correct-decided" else None
        ),
        extra_steps=spec.extra_steps,
    )


class BatchSystem:
    """Run many independent lanes; results equal ``System.run()`` per lane.

    ``specs`` describe the lanes; :meth:`run` returns one
    :class:`RunResult` per lane, in spec order.  :attr:`stats` says how the
    lanes were routed: ``lanes``, ``fast`` (fused), ``fallback``
    (interpreted), ``fallback_reasons`` (reason -> count, see
    :func:`probe_spec`), and after :meth:`run` the ``steps`` executed and
    ``waves`` (1 if any lane ran fused, else 0).

    ``use_numpy`` is accepted for the callers that pass it and selects
    nothing.
    """

    def __init__(
        self, specs: Sequence[LaneSpec], use_numpy: Optional[bool] = None
    ):
        self.specs = list(specs)
        self._lanes: List[Optional[_FusedLane]] = []
        reasons: Dict[str, int] = {}
        for i, spec in enumerate(self.specs):
            reason, tables = _route(spec)
            if reason is None:
                self._lanes.append(_FusedLane(spec, tables))
                continue
            self._lanes.append(None)
            reasons[reason] = reasons.get(reason, 0) + 1
            if _obs._ENABLED:
                # One event per interpreted lane (tick = lane index), so a
                # trace names exactly which lanes were not fused and why.
                _obs.metrics().inc("batch.fallback")
                _obs.tracer().event(
                    "batch.fallback", tick=i, lane=i, reason=reason
                )
        fallback = sum(reasons.values())
        self.stats: Dict[str, Any] = {
            "lanes": len(self.specs),
            "fast": len(self.specs) - fallback,
            "fallback": fallback,
            "fallback_reasons": reasons,
            "steps": 0,
            "waves": 0,
        }
        self._results: Optional[List[RunResult]] = None

    def run(self) -> List[RunResult]:
        """Execute every lane to completion, once; results in spec order.

        A second call returns the retained results without re-executing.
        Under observability the execution is wrapped in a ``batch.run``
        span.
        """
        if self._results is None:
            stats = self.stats
            with (
                _obs.tracer().span(
                    "batch.run",
                    lanes=stats["lanes"],
                    fast=stats["fast"],
                    fallback=stats["fallback"],
                )
                if _obs._ENABLED
                else nullcontext()
            ):
                self._results = [
                    _run_interpreted(spec) if lane is None else lane.run()
                    for spec, lane in zip(self.specs, self._lanes)
                ]
            stats["steps"] = sum(r.total_steps for r in self._results)
            stats["waves"] = 1 if stats["fast"] else 0
        return list(self._results)


# ----------------------------------------------------------------------
# The fused lane
# ----------------------------------------------------------------------

_MR_LEAD = 0
_MR_REP = 1
_MR_PROP = 2


def _mr_segment(value: Any) -> tuple:
    """One detector segment as the phase machine reads it: ``(leader,
    sorted_quorum)``.

    Quorum membership and unanimity loops run over the sorted tuple,
    matching the frozenset hooks value for value.  ``sorted_quorum`` is
    ``None`` when the quorum is empty (the wait can never be satisfied in
    this segment — QuorumMR's ``quorum and ...``).
    """
    leader, quorum = value
    return (leader, tuple(sorted(quorum)) or None)


class _FusedLane:
    """One fused lane: its inputs compiled ahead of the run, then the loop.

    Construction does the per-lane work that does not depend on the run —
    seeding the kernel's scalar rng streams, reading the policy parameters
    off the real policy objects, compiling detector segments — so
    :meth:`run` is the step loop and nothing else.
    """

    __slots__ = (
        "spec", "sched_rng", "dest_rngs", "epochs", "max_gap", "lambda_prob",
        "max_age", "seg_times", "segments",
    )

    def __init__(self, spec: LaneSpec, tables):
        self.spec = spec
        n = spec.pattern.n
        seed = spec.seed
        self.sched_rng = random.Random(f"{seed}/sched")
        self.dest_rngs = [random.Random(f"{seed}/delivery/{p}") for p in range(n)]
        self.epochs = spec.pattern.alive_epochs()
        scheduler = (
            build_scheduler(spec.scheduler)
            if spec.scheduler
            else RandomFairScheduler()
        )
        delivery = (
            build_delivery(spec.delivery) if spec.delivery else FairRandomDelivery()
        )
        self.max_gap = scheduler.max_gap
        self.lambda_prob = delivery.lambda_prob
        self.max_age = delivery.max_age
        self.seg_times = [times for times, _ in tables]
        self.segments = [
            [_mr_segment(value) for value in values] for _, values in tables
        ]

    def run(self) -> RunResult:
        """Run the lane to completion.

        This is the hot loop; every branch mirrors one line of
        ``System.advance`` / ``System._run_loop``, ``RandomFairScheduler``,
        ``FairRandomDelivery`` and the ``LeaderQuorumConsensus`` phase
        machine with QuorumMR's hooks, with ``rng.choice`` replaced by the
        inlined ``getrandbits`` rejection draw it performs internally and
        pending-entry objects replaced by enqueue-time step notes in flat
        lists.  Deviating from the interpreted engine here is a bug; the
        oracle suite (``tests/kernel/test_batch.py``) enforces bit-identity.
        """
        spec = self.spec
        n = spec.pattern.n
        max_steps = spec.max_steps
        check_stop = spec.stop == "all-correct-decided"
        extra_steps = spec.extra_steps
        remaining_extra = -1  # -1 encodes _run_loop's "stop not reached yet"
        correct_set = spec.pattern.correct
        undecided = len(correct_set)

        epochs = self.epochs
        epoch_idx = 0
        alive = epochs[0][1]
        n_alive = len(alive)
        k_alive = n_alive.bit_length()
        next_epoch_at = epochs[1][0] if len(epochs) > 1 else None

        sched_grb = self.sched_rng.getrandbits
        max_gap = self.max_gap
        sched_count = 0
        next_overdue_check = max_gap + 1
        last = [0] * n

        # Message plane: entries are (sender, payload, enq_note) tuples;
        # enq_note is the destination's step count at enqueue, so a
        # message's age is note_counts[dest] - enq_note with no per-entry
        # aging.
        lambda_prob = self.lambda_prob
        max_age = self.max_age
        dest_rngs = self.dest_rngs
        pending: List[List[tuple]] = [[] for _ in range(n)]
        note_counts = [0] * n

        # Detector plane: per-pid breakpoint times + monotone cursor.
        seg_times = self.seg_times
        segments = self.segments
        seg_idx = [0] * n
        parked = [-1] * n

        proposals = spec.proposals
        mr_x = [proposals[p] for p in range(n)]
        mr_round = [1] * n
        mr_phase = [_MR_LEAD] * n
        mr_opened = [False] * n
        mr_leads: List[Dict[int, Dict[int, Any]]] = [{} for _ in range(n)]
        mr_reps: List[Dict[int, Dict[int, Any]]] = [{} for _ in range(n)]
        mr_props: List[Dict[int, Dict[int, Any]]] = [{} for _ in range(n)]
        decisions: Dict[int, Any] = {}
        decision_times: Dict[int, int] = {}

        t = 0
        sent = 0
        delivered = 0
        while True:
            # ---- _run_loop: budget / stop / extra-steps protocol ----------
            if t >= max_steps:
                reason = "max_steps"
                break
            if remaining_extra < 0 and check_stop and undecided == 0:
                if extra_steps <= 0:
                    reason = "stop_condition"
                    break
                remaining_extra = extra_steps
            if remaining_extra >= 0:
                if remaining_extra <= 0:
                    reason = "stop_condition"
                    break
                remaining_extra -= 1

            # ---- System.advance: crash-epoch cursor -----------------------
            if next_epoch_at is not None and t >= next_epoch_at:
                while next_epoch_at is not None and t >= next_epoch_at:
                    epoch_idx += 1
                    next_epoch_at = (
                        epochs[epoch_idx + 1][0]
                        if epoch_idx + 1 < len(epochs)
                        else None
                    )
                alive = epochs[epoch_idx][1]
                n_alive = len(alive)
                k_alive = n_alive.bit_length()
            if not n_alive:
                reason = "all_crashed"
                break

            # ---- RandomFairScheduler ---------------------------------------
            sched_count += 1
            pid = -1
            if sched_count >= next_overdue_check:
                threshold = sched_count - max_gap
                for p in alive:
                    if last[p] < threshold:
                        pid = p
                        break
                if pid >= 0:
                    next_overdue_check = sched_count + 1
                else:
                    low = last[alive[0]]
                    for p in alive:
                        lp = last[p]
                        if lp < low:
                            low = lp
                    next_overdue_check = low + max_gap + 1
            if pid < 0:
                r = sched_grb(k_alive)
                while r >= n_alive:
                    r = sched_grb(k_alive)
                pid = alive[r]
            last[pid] = sched_count

            # ---- FairRandomDelivery (with O(1) enqueue-note aging) ---------
            nc = note_counts[pid] + 1
            note_counts[pid] = nc
            entries = pending[pid]
            message = None
            if entries:
                oldest = entries[0]
                if nc - oldest[2] >= max_age:
                    message = oldest
                    del entries[0]
                else:
                    rng = dest_rngs[pid]
                    if rng.random() >= lambda_prob:
                        ln = len(entries)
                        grb = rng.getrandbits
                        kk = ln.bit_length()
                        r = grb(kk)
                        while r >= ln:
                            r = grb(kk)
                        message = entries[r]
                        del entries[r]
            if message is not None:
                delivered += 1

            # ---- detector segment cursor (monotone per pid) ---------------
            si = seg_idx[pid]
            times = seg_times[pid]
            nseg = len(times)
            if si + 1 < nseg and t >= times[si + 1]:
                si += 1
                while si + 1 < nseg and t >= times[si + 1]:
                    si += 1
                seg_idx[pid] = si

            # ---- the quorum-MR phase machine ------------------------------
            if message is None and parked[pid] == si:
                # Lambda-quiescence: the phase machine parked at a failed
                # wait with this very detector segment; re-running it is a
                # provable no-op (hooks are pure in (state, d), and
                # ``transition`` runs ``_try_advance`` to a fixpoint).
                t += 1
                continue
            leader, quorum = segments[pid][si]
            if message is not None:
                tag, rnd_in, value = message[1]
                if tag == REP:
                    mr_reps[pid].setdefault(rnd_in, {})[message[0]] = value
                elif tag == PROP:
                    mr_props[pid].setdefault(rnd_in, {})[message[0]] = value
                else:
                    mr_leads[pid].setdefault(rnd_in, {})[message[0]] = value
            rnd = mr_round[pid]
            phase = mr_phase[pid]
            x = mr_x[pid]
            opened = mr_opened[pid]
            my_sends = None  # broadcast payloads of this step
            while True:
                if not opened:
                    payload = (LEAD, rnd, x)
                    if my_sends is None:
                        my_sends = [payload]
                    else:
                        my_sends.append(payload)
                    opened = True
                    continue
                if phase == _MR_LEAD:
                    lr = mr_leads[pid].get(rnd)
                    if lr is not None and leader in lr:
                        x = lr[leader]
                        phase = _MR_REP
                        payload = (REP, rnd, x)
                        if my_sends is None:
                            my_sends = [payload]
                        else:
                            my_sends.append(payload)
                        continue
                    break
                if phase == _MR_REP:
                    if quorum is None:
                        break
                    rr = mr_reps[pid].get(rnd)
                    if rr is None:
                        break
                    ready = True
                    for q in quorum:
                        if q not in rr:
                            ready = False
                            break
                    if not ready:
                        break
                    proposal = rr[quorum[0]]
                    for q in quorum:
                        if rr[q] != proposal:
                            proposal = UNKNOWN
                            break
                    phase = _MR_PROP
                    payload = (PROP, rnd, proposal)
                    if my_sends is None:
                        my_sends = [payload]
                    else:
                        my_sends.append(payload)
                    continue
                # PROP wait
                if quorum is None:
                    break
                pr = mr_props[pid].get(rnd)
                if pr is None:
                    break
                ready = True
                for q in quorum:
                    if q not in pr:
                        ready = False
                        break
                if not ready:
                    break
                first = pr[quorum[0]]
                unanimous = True
                non_unknown = None
                for q in quorum:
                    v = pr[q]
                    if v != first:
                        unanimous = False
                    if v != UNKNOWN and non_unknown is None:
                        non_unknown = v
                if non_unknown is not None:
                    x = non_unknown
                if pid not in decisions and unanimous and first != UNKNOWN:
                    decisions[pid] = x
                    decision_times[pid] = t
                    if pid in correct_set:
                        undecided -= 1
                rnd += 1
                phase = _MR_LEAD
                opened = False
            mr_x[pid] = x
            mr_round[pid] = rnd
            mr_phase[pid] = phase
            mr_opened[pid] = opened
            parked[pid] = si

            # ---- enqueue sends --------------------------------------------
            if my_sends is not None:
                for payload in my_sends:
                    for dest in range(n):
                        pending[dest].append((pid, payload, note_counts[dest]))
                    sent += n
            t += 1

        # The interpreted engine assembles these dicts by iterating its
        # pid-keyed contexts, so insertion order is ascending pid — not
        # decision order.  Downstream consumers iterate the dicts (e.g. the
        # agreement checkers' grouping messages), so order matters for
        # byte-identity even though dict equality ignores it.
        decided = sorted(decisions)
        return RunResult(
            n=n,
            pattern=spec.pattern,
            steps=[],
            decisions={p: decisions[p] for p in decided},
            decision_times={p: decision_times[p] for p in decided},
            outputs={p: [] for p in range(n)},
            initial_outputs={p: None for p in range(n)},
            queried={},
            stop_reason=reason,
            final_time=t,
            messages_sent=sent,
            messages_delivered=delivered,
            total_steps=t,
        )
