"""Batched multi-run engine: hundreds of independent runs per process.

Sweeps, the chaos fuzzer and extraction sampling all execute many
*independent* runs — same shape, different seeds or case specs.  The
interpreted :class:`~repro.kernel.system.System` pays per-step dispatch
costs (policy objects, coroutine adapters, per-entry queue objects) for
every one of them.  :class:`BatchSystem` advances many runs ("lanes") in a
single process with struct-of-arrays state and a fused step loop, and is
**bit-identical** to the interpreted engine: for every supported
configuration, a lane reproduces exactly the schedule, deliveries,
decisions and :class:`~repro.kernel.system.RunResult` that
``System.run()`` produces from the same seed.

Layout
------
Per-process state lives in flat arrays indexed by pid (detector-segment
cursors, message-queue heads, scheduler fairness counters, decision
flags) instead of per-process objects; batch-level control vectors (time,
budget, steps, decisions) are mirrored into numpy arrays when numpy is
available, with a pure-python fallback otherwise.  The per-step hot state
stays in Python lists on purpose: bit-identity pins every random draw to
the exact ``random.Random`` scalar streams the interpreted engine uses
(``{seed}/sched`` and ``{seed}/delivery/{p}``), which vectorized RNGs
cannot reproduce, and CPython scalar indexing into lists is faster than
into numpy arrays.  Numpy earns its keep on the control plane: retiring
lanes and aggregate statistics.

Capability probe
----------------
:func:`probe_spec` routes each lane: supported configurations take the
fused fast path, everything else (scripted schedulers, blocking or custom
delivery policies, deferred/mutable crash patterns, coroutine processes,
non-piecewise-constant histories, enabled observability) runs on the
interpreted engine — same results, no speedup.  Fallbacks are counted in
:attr:`BatchSystem.stats` and, when observability is enabled, in the
``batch.fallback`` metric.  See ``docs/performance.md`` for the full
capability matrix.

Bit-identity invariants the fused loop preserves
------------------------------------------------
* scheduler draws come from ``random.Random(f"{seed}/sched")`` with
  ``rng.choice`` inlined as the exact ``getrandbits`` rejection loop;
* delivery draws come from ``random.Random(f"{seed}/delivery/{p}")`` in
  the same order (age check, lambda roll, uniform pick);
* message age is the destination's step count now minus its count at
  the send, the buffer's own definition, kept in flat arrays;
* detector histories come pre-merged into per-process breakpoint arrays
  (the history's own compiled tables, see
  :func:`repro.detectors.paired.history_breakpoints`), advanced by a
  monotone cursor instead of the interpreted engine's per-step bisect;
* crash epochs advance by the same cursor rule as ``System.advance``;
* the run loop replicates ``System._run_loop`` stop/extra-steps
  semantics, including the stop check before the first step.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.detectors.paired import history_breakpoints
from repro.kernel.automaton import (
    Automaton,
    AutomatonProcess,
    DeliveredMessage,
    Process,
)
from repro.kernel.failures import FailurePattern
from repro.kernel.messages import (
    CoalescingDelivery,
    DeliveryPolicy,
    FairRandomDelivery,
    Message,
    OldestFirstDelivery,
    PerSenderFifoDelivery,
)
from repro.kernel.scheduler import (
    RandomFairScheduler,
    RoundRobinScheduler,
    SchedulingPolicy,
    ScriptedScheduler,
    WeightedScheduler,
)
from repro.kernel.system import RunResult, StepRecord, System, all_correct_decided
from repro import obs as _obs

try:  # pragma: no cover - exercised via use_numpy in both states
    import numpy as _np
except ImportError:  # pragma: no cover - the baked toolchain ships numpy
    _np = None

UNKNOWN = "?"

__all__ = [
    "BatchSystem",
    "LaneSpec",
    "build_delivery",
    "build_scheduler",
    "probe_spec",
]


# ----------------------------------------------------------------------
# Serializable scheduler / delivery specs
# ----------------------------------------------------------------------
# The spec vocabulary started life in repro.chaos.space; it lives here now
# so the capability probe and the chaos fuzzer share one dialect
# (chaos.space re-exports the builders for compatibility).


def build_scheduler(spec: Sequence[Any]) -> SchedulingPolicy:
    """A fresh scheduler instance from its serializable spec."""
    kind = spec[0]
    if kind == "round-robin":
        return RoundRobinScheduler()
    if kind == "random-fair":
        return RandomFairScheduler(max_gap=spec[1])
    if kind == "weighted":
        weights = {int(p): w for p, w in spec[1]}
        return WeightedScheduler(weights, max_gap=spec[2])
    if kind == "scripted":
        fallback = build_scheduler(spec[2]) if len(spec) > 2 else None
        return ScriptedScheduler(list(spec[1]), fallback=fallback)
    raise ValueError(f"unknown scheduler spec {spec!r}")


def build_delivery(spec: Sequence[Any]) -> DeliveryPolicy:
    """A fresh delivery policy instance from its serializable spec."""
    kind = spec[0]
    if kind == "fair-random":
        return FairRandomDelivery(lambda_prob=spec[1], max_age=spec[2])
    if kind == "per-sender-fifo":
        return PerSenderFifoDelivery(lambda_prob=spec[1], max_age=spec[2])
    if kind == "oldest-first":
        return OldestFirstDelivery()
    if kind == "coalescing":
        inner = build_delivery(spec[1]) if len(spec) > 1 else None
        return CoalescingDelivery(inner=inner)
    raise ValueError(f"unknown delivery spec {spec!r}")


# ----------------------------------------------------------------------
# Lane specification
# ----------------------------------------------------------------------


@dataclass
class LaneSpec:
    """Everything one lane needs to reproduce one ``System.run()``.

    Exactly one process source must be given:

    * ``automaton`` + ``proposals`` — pure-automaton consensus lanes
      (``AutomatonProcess`` per pid), eligible for the fast path;
    * ``program="dag-builder"`` — A_DAG sampling lanes
      (:class:`repro.core.sampling.DagBuilder` per pid), eligible for the
      fast path;
    * ``processes_factory`` — arbitrary processes; always interpreted.

    ``scheduler`` / ``delivery`` are serializable spec tuples (see
    :func:`build_scheduler` / :func:`build_delivery`), or ``None`` for the
    kernel defaults.  Policy *instances* are rejected: they carry mutable
    cursors and cannot be shared or rebuilt per lane.

    ``stop`` is declarative: ``None`` (run the full budget) or
    ``"all-correct-decided"`` (the consensus stop condition), optionally
    with ``extra_steps`` — matching ``System.run``'s protocol.
    """

    pattern: FailurePattern
    history: Any
    seed: int
    max_steps: int
    automaton: Optional[Automaton] = None
    proposals: Optional[Mapping[int, Any]] = None
    program: Optional[str] = None
    processes_factory: Optional[Callable[[], Mapping[int, Process]]] = None
    scheduler: Optional[Tuple[Any, ...]] = None
    delivery: Optional[Tuple[Any, ...]] = None
    trace: str = "metrics"
    stop: Optional[str] = None
    extra_steps: int = 0

    def __post_init__(self) -> None:
        sources = sum(
            1
            for given in (self.automaton, self.program, self.processes_factory)
            if given is not None
        )
        if sources != 1:
            raise ValueError(
                "exactly one of automaton / program / processes_factory "
                "must be given"
            )
        if self.automaton is not None and self.proposals is None:
            raise ValueError("automaton lanes need proposals")
        if self.program is not None and self.program != "dag-builder":
            raise ValueError(f"unknown lane program {self.program!r}")
        if self.trace not in ("full", "metrics"):
            raise ValueError(f"unknown trace mode {self.trace!r}")
        if self.stop not in (None, "all-correct-decided"):
            raise ValueError(f"unknown stop condition {self.stop!r}")
        if isinstance(self.scheduler, SchedulingPolicy):
            raise ValueError("pass a scheduler spec tuple, not an instance")
        if isinstance(self.delivery, DeliveryPolicy):
            raise ValueError("pass a delivery spec tuple, not an instance")


# ----------------------------------------------------------------------
# Capability probe
# ----------------------------------------------------------------------

_FAST_SCHEDULERS = ("random-fair", "round-robin", "weighted")
_FAST_DELIVERIES = ("fair-random", "per-sender-fifo", "oldest-first")


def _segment_tables(history: Any, n: int):
    """Breakpoint tables for all processes, or ``None`` if unsupported.

    The tables are the history's own compiled copy (shared with the
    interpreted engine, which reads them through ``history.value``)."""
    by_process = history_breakpoints(history)
    if by_process is None or any(p not in by_process for p in range(n)):
        return None
    return [by_process[p] for p in range(n)]


def probe_spec(spec: LaneSpec) -> Optional[str]:
    """Why ``spec`` cannot take the fast path, or ``None`` if it can.

    The returned reason string is recorded per lane in
    :attr:`BatchSystem.stats` and drives the ``batch.fallback`` metric.
    """
    return _probe(spec)[0]


def _probe(spec: LaneSpec):
    """``(reason, segment_tables)`` — tables are built once, here, and
    handed to the fast lane so the probe isn't paid twice per lane."""
    if _obs._ENABLED:
        # Fast lanes skip the kernel.* / consensus.* counters and spans the
        # interpreted engine records; with observability on, only the
        # interpreted path reproduces the telemetry byte-for-byte.
        return "obs-enabled", None
    if type(spec.pattern) is not FailurePattern:
        return "pattern", None
    if spec.processes_factory is not None:
        return "processes", None
    if spec.scheduler is not None and spec.scheduler[0] not in _FAST_SCHEDULERS:
        return "scheduler", None
    if spec.delivery is not None:
        kind = spec.delivery[0]
        if kind == "coalescing":
            if spec.program != "dag-builder":
                # Coalescing over non-DAG payloads depends on the duck-typed
                # coalescible predicate per payload; only DAG lanes make it
                # statically predictable.
                return "delivery", None
            if len(spec.delivery) > 1 and (
                spec.delivery[1][0] not in _FAST_DELIVERIES
            ):
                return "delivery", None
        elif kind not in _FAST_DELIVERIES:
            return "delivery", None
    if spec.automaton is not None and not _supported_automaton(spec.automaton):
        return "automaton", None
    tables = _segment_tables(spec.history, spec.pattern.n)
    if tables is None:
        return "history", None
    return None, tables


def _supported_automaton(automaton: Automaton) -> bool:
    # Any pure Automaton whose transition honours the documented contract
    # (deterministic in (state, msg, d)) replays exactly on the generic
    # fast engine; the contract is the Automaton interface itself.
    return isinstance(automaton, Automaton)


def _specialization_for(automaton: Automaton) -> str:
    """Which fast engine runs this automaton: ``"mr-quorum"`` or ``"generic"``.

    The specialized engine inlines the LeaderQuorumConsensus phase machine
    with QuorumMR's quorum hooks; it demands the *exact* types it was
    derived from (subclasses may override hooks).
    """
    from repro.consensus.quorum_mr import NaiveSigmaNuConsensus, QuorumMR

    if type(automaton) in (QuorumMR, NaiveSigmaNuConsensus):
        return "mr-quorum"
    return "generic"


# ----------------------------------------------------------------------
# Engine / policy dispatch codes (per-tick ints, not per-tick strings)
# ----------------------------------------------------------------------

_ENGINE_MR = 0
_ENGINE_GENERIC = 1
_ENGINE_DAG = 2

_SCHED_RF = 0
_SCHED_RR = 1
_SCHED_OBJ = 2

_DELIV_FAIR = 0
_DELIV_OLDEST = 1
_DELIV_PSF = 2

_MR_LEAD = 0
_MR_REP = 1
_MR_PROP = 2


class _FastLane:
    """Struct-of-arrays state of one fast-path lane.

    Per-process state is one flat list per variable indexed by pid — the
    batch replaces the interpreted engine's per-process objects
    (ProcessContext, _PendingEntry, policy dicts) with parallel arrays.
    """

    __slots__ = (
        "index", "spec", "n", "reason", "time", "budget", "remaining_extra",
        "sent", "delivered", "sched_rng", "dest_rngs", "epochs", "epoch_idx",
        "alive", "alive_set", "n_alive", "k_alive", "next_epoch_at",
        "sched_mode", "sched_obj", "max_gap", "sd", "last_sched", "rr_cursor",
        "deliv_mode", "lambda_prob", "max_age", "coalescing", "pending",
        "note_counts", "dest_steps", "seqs", "seg_times", "seg_values",
        "seg_idx", "parked", "engine", "states", "transition", "decision_of",
        "lambda_skip", "mr_x", "mr_round", "mr_phase", "mr_opened",
        "mr_decided", "mr_leads", "mr_reps", "mr_props", "mr_segments",
        "cores", "decisions", "decision_times", "has_decided",
        "undecided_correct", "check_stop", "extra_steps", "record_trace",
        "steps", "queried", "correct_set",
    )

    def __init__(self, index: int, spec: LaneSpec, tables):
        self.index = index
        self.spec = spec
        n = spec.pattern.n
        self.n = n
        self.reason: Optional[str] = None
        self.time = 0
        self.budget = spec.max_steps
        self.remaining_extra = -1  # -1 encodes _run_loop's None
        self.sent = 0
        self.delivered = 0
        seed = spec.seed
        self.sched_rng = random.Random(f"{seed}/sched")
        self.dest_rngs = [random.Random(f"{seed}/delivery/{p}") for p in range(n)]
        # Crash-epoch cursor (mirrors the one in System.advance).
        self.epochs = spec.pattern.alive_epochs()
        self.epoch_idx = 0
        self.alive = self.epochs[0][1]
        self.alive_set = set(self.alive)
        self.n_alive = len(self.alive)
        self.k_alive = self.n_alive.bit_length()
        self.next_epoch_at = (
            self.epochs[1][0] if len(self.epochs) > 1 else None
        )
        # Scheduler dispatch.
        sspec = spec.scheduler
        self.sched_obj: Optional[SchedulingPolicy] = None
        self.sd = [0, 0]
        self.last_sched = [0] * n
        self.rr_cursor = 0
        if sspec is None:
            self.sched_mode = _SCHED_RF
            self.max_gap = 64
        elif sspec[0] == "random-fair":
            self.sched_mode = _SCHED_RF
            self.max_gap = sspec[1]
        elif sspec[0] == "round-robin":
            self.sched_mode = _SCHED_RR
            self.max_gap = 0
        else:  # weighted: exact rng.choices draws need the real policy
            self.sched_mode = _SCHED_OBJ
            self.sched_obj = build_scheduler(sspec)
            self.max_gap = 0
        self.sd[1] = self.max_gap + 1
        # Delivery dispatch.
        dspec = spec.delivery
        self.coalescing = False
        if dspec is not None and dspec[0] == "coalescing":
            self.coalescing = True
            dspec = dspec[1] if len(dspec) > 1 else None
        if dspec is None:
            self.deliv_mode = _DELIV_FAIR
            self.lambda_prob = 0.25
            self.max_age = 40
        elif dspec[0] == "fair-random":
            self.deliv_mode = _DELIV_FAIR
            self.lambda_prob = dspec[1]
            self.max_age = dspec[2]
        elif dspec[0] == "per-sender-fifo":
            self.deliv_mode = _DELIV_PSF
            self.lambda_prob = dspec[1]
            self.max_age = dspec[2]
        else:
            self.deliv_mode = _DELIV_OLDEST
            self.lambda_prob = 0.0
            self.max_age = 0
        # Message plane: entries are (sender, payload, enq_note, seq, msg)
        # tuples; enq_note is the destination's step-note count at enqueue,
        # so age == note_counts[dest] - enq_note with no per-entry aging.
        self.pending: List[List[tuple]] = [[] for _ in range(n)]
        self.note_counts = [0] * n
        self.dest_steps = [0] * n
        self.seqs = [0] * n
        # Detector plane: merged per-pid breakpoint arrays + monotone cursor.
        self.seg_times = [times for times, _ in tables]
        self.seg_values = [values for _, values in tables]
        self.seg_idx = [0] * n
        self.parked = [-1] * n
        # Engine state.
        self.decisions: Dict[int, Any] = {}
        self.decision_times: Dict[int, int] = {}
        self.has_decided = [False] * n
        self.correct_set = spec.pattern.correct
        self.check_stop = spec.stop == "all-correct-decided"
        self.undecided_correct = len(self.correct_set)
        self.extra_steps = spec.extra_steps
        self.record_trace = spec.trace == "full"
        self.steps: List[StepRecord] = []
        self.queried: Dict[int, List[Tuple[int, Any]]] = (
            {p: [] for p in range(n)} if self.record_trace else {}
        )
        self.states: List[Any] = []
        self.cores: List[Any] = []
        self.transition = None
        self.decision_of = None
        self.lambda_skip = False
        self.mr_x: List[Any] = []
        self.mr_round: List[int] = []
        self.mr_phase: List[int] = []
        self.mr_opened: List[bool] = []
        self.mr_decided: List[Any] = []
        self.mr_leads: List[Dict[int, Dict[int, Any]]] = []
        self.mr_reps: List[Dict[int, Dict[int, Any]]] = []
        self.mr_props: List[Dict[int, Dict[int, Any]]] = []
        self.mr_segments: List[List[tuple]] = []
        if spec.program == "dag-builder":
            from repro.core.dag import DagCore

            self.engine = _ENGINE_DAG
            self.cores = [DagCore(p, n) for p in range(n)]
        elif _specialization_for(spec.automaton) == "mr-quorum":
            self.engine = _ENGINE_MR
            proposals = spec.proposals
            self.mr_x = [proposals[p] for p in range(n)]
            self.mr_round = [1] * n
            self.mr_phase = [_MR_LEAD] * n
            self.mr_opened = [False] * n
            self.mr_decided = [None] * n
            self.mr_leads = [{} for _ in range(n)]
            self.mr_reps = [{} for _ in range(n)]
            self.mr_props = [{} for _ in range(n)]
            # Per-segment (leader, sorted-quorum-or-None, raw-d) tables:
            # quorum membership and unanimity loops run over the sorted
            # tuple, matching the frozenset hooks value-for-value.
            self.mr_segments = [
                [_mr_segment(v) for v in self.seg_values[p]] for p in range(n)
            ]
        else:
            self.engine = _ENGINE_GENERIC
            auto = spec.automaton
            self.states = [
                auto.initial_state(p, n, spec.proposals[p]) for p in range(n)
            ]
            self.transition = auto.transition
            self.decision_of = auto.decision
            self.lambda_skip = bool(getattr(type(auto), "lambda_quiescent", False))

    # -- epoch cursor ---------------------------------------------------

    def advance_epochs(self, t: int) -> None:
        epochs = self.epochs
        while self.next_epoch_at is not None and t >= self.next_epoch_at:
            self.epoch_idx += 1
            self.alive = epochs[self.epoch_idx][1]
            self.next_epoch_at = (
                epochs[self.epoch_idx + 1][0]
                if self.epoch_idx + 1 < len(epochs)
                else None
            )
        self.alive_set = set(self.alive)
        self.n_alive = len(self.alive)
        self.k_alive = self.n_alive.bit_length()

    # -- results --------------------------------------------------------

    def result(self) -> RunResult:
        spec = self.spec
        n = self.n
        if spec.program == "dag-builder":
            outputs: Dict[int, List[Tuple[int, Any]]] = {p: [] for p in range(n)}
            initial: Dict[int, Any] = {p: None for p in range(n)}
        else:
            outputs = {p: [] for p in range(n)}
            initial = {p: None for p in range(n)}
        # The interpreted engine assembles these dicts by iterating its
        # pid-keyed contexts, so insertion order is ascending pid — not
        # decision order.  Downstream consumers iterate the dicts (e.g.
        # the agreement checkers' grouping messages), so order matters
        # for byte-identity even though dict equality ignores it.
        decisions = {p: self.decisions[p] for p in sorted(self.decisions)}
        decision_times = {
            p: self.decision_times[p] for p in sorted(self.decision_times)
        }
        return RunResult(
            n=n,
            pattern=spec.pattern,
            steps=self.steps,
            decisions=decisions,
            decision_times=decision_times,
            outputs=outputs,
            initial_outputs=initial,
            queried=self.queried,
            stop_reason=self.reason or "manual",
            final_time=self.time,
            messages_sent=self.sent,
            messages_delivered=self.delivered,
            total_steps=self.time,
        )


def _mr_segment(value: Any) -> tuple:
    """One specialized quorum-MR segment: ``(leader, sorted_quorum, raw)``.

    ``sorted_quorum`` is ``None`` when the quorum is empty (the wait can
    never be satisfied in this segment — QuorumMR's ``quorum and ...``).
    """
    leader, quorum = value
    members = tuple(sorted(quorum))
    return (leader, members if members else None, value)


class _FallbackLane:
    """An interpreted lane: a real ``System`` built from the spec."""

    def __init__(self, index: int, spec: LaneSpec, reason: str):
        self.index = index
        self.spec = spec
        self.reason = reason
        self.processes: Optional[Mapping[int, Process]] = None

    def run(self) -> RunResult:
        spec = self.spec
        if spec.processes_factory is not None:
            processes = dict(spec.processes_factory())
        elif spec.program == "dag-builder":
            from repro.core.sampling import DagBuilder

            processes = {p: DagBuilder() for p in range(spec.pattern.n)}
        else:
            processes = {
                p: AutomatonProcess(spec.automaton, spec.proposals[p])
                for p in range(spec.pattern.n)
            }
        self.processes = processes
        system = System(
            processes,
            spec.pattern,
            spec.history,
            scheduler=(
                build_scheduler(spec.scheduler) if spec.scheduler else None
            ),
            delivery=build_delivery(spec.delivery) if spec.delivery else None,
            seed=spec.seed,
            trace=spec.trace,
        )
        stop = all_correct_decided if spec.stop == "all-correct-decided" else None
        return system.run(
            max_steps=spec.max_steps,
            stop_when=stop,
            extra_steps=spec.extra_steps,
        )

    def extras(self) -> Dict[int, Any]:
        if self.spec.program == "dag-builder" and self.processes is not None:
            return {p: proc.core for p, proc in self.processes.items()}
        return {}


class BatchSystem:
    """Advance many independent runs in one process, bit-identically.

    ``specs`` describe the lanes; :meth:`run` returns one
    :class:`RunResult` per lane, in spec order, each equal to what
    ``System.run()`` yields from the same configuration and seed.  Lanes
    the capability probe rejects execute on the interpreted engine
    (``stats["fallback_reasons"]`` says why).

    ``use_numpy`` forces the control plane on (requires numpy) or off;
    ``None`` auto-detects.  Numpy never changes results — it only
    accelerates history merging, retirement scans and statistics.
    """

    def __init__(
        self,
        specs: Sequence[LaneSpec],
        use_numpy: Optional[bool] = None,
        slice_ticks: int = 96,
    ):
        if use_numpy is None:
            use_numpy = _np is not None
        elif use_numpy and _np is None:
            raise ValueError("use_numpy=True but numpy is unavailable")
        self.use_numpy = use_numpy
        self.slice_ticks = slice_ticks
        self.specs = list(specs)
        self.lanes: List[Any] = []
        reasons: Dict[str, int] = {}
        for i, spec in enumerate(self.specs):
            reason, tables = _probe(spec)
            if reason is None:
                self.lanes.append(_FastLane(i, spec, tables))
            else:
                self.lanes.append(_FallbackLane(i, spec, reason))
                reasons[reason] = reasons.get(reason, 0) + 1
                if _obs._ENABLED:
                    _obs.metrics().inc("batch.fallback")
                    # Structured fallback reason: one event per demoted
                    # lane (tick = lane index), so a batch-vs-serial trace
                    # names exactly which lanes lost the fast path and why.
                    _obs.tracer().event(
                        "batch.fallback", tick=i, lane=i, reason=reason
                    )
        self.stats: Dict[str, Any] = {
            "lanes": len(self.lanes),
            "fast": sum(1 for l in self.lanes if isinstance(l, _FastLane)),
            "fallback": sum(
                1 for l in self.lanes if isinstance(l, _FallbackLane)
            ),
            "fallback_reasons": reasons,
            "steps": 0,
            # Filled by run(): per-wave active-lane and retirement curves.
            "waves": 0,
            "wave_occupancy": [],
            "wave_retired": [],
        }
        self._results: List[Optional[RunResult]] = [None] * len(self.lanes)

    # -- introspection ---------------------------------------------------

    def lane_modes(self) -> List[str]:
        """Per-lane routing: ``"fast"`` or ``"fallback:<reason>"``."""
        return [
            "fast" if isinstance(l, _FastLane) else f"fallback:{l.reason}"
            for l in self.lanes
        ]

    def extras(self, index: int) -> Dict[int, Any]:
        """Per-process engine extras of lane ``index`` (DAG lanes: cores)."""
        lane = self.lanes[index]
        if isinstance(lane, _FallbackLane):
            return lane.extras()
        if lane.engine == _ENGINE_DAG:
            return {p: core for p, core in enumerate(lane.cores)}
        return {}

    def control_vectors(self) -> Dict[str, Any]:
        """Batch-level control vectors (numpy arrays when enabled).

        ``time``/``steps`` per lane plus the per-lane decided-process
        counts — the decision vector the sweeps aggregate over.
        """
        times = [
            (r.final_time if r is not None else 0) for r in self._results
        ]
        decided = [
            (len(r.decisions) if r is not None else 0) for r in self._results
        ]
        if self.use_numpy:
            return {
                "time": _np.asarray(times, dtype=_np.int64),
                "decided": _np.asarray(decided, dtype=_np.int64),
            }
        return {"time": times, "decided": decided}

    # -- execution -------------------------------------------------------

    def run(self) -> List[RunResult]:
        """Execute every lane to completion; results in spec order.

        Alongside the results, :attr:`stats` gains the batch's execution
        shape: ``waves`` (fused-loop rounds), ``wave_occupancy`` (active
        fast lanes entering each wave) and ``wave_retired`` (lanes that
        finished during it) — the retirement curve that shows how much of
        the batch's width survives to the tail.  Deterministic, collected
        traced or not; under observability the run is additionally
        wrapped in a ``batch.run`` span with one ``batch.wave`` event per
        round.
        """
        tracer = _obs.tracer() if _obs._ENABLED else None
        with (
            tracer.span(
                "batch.run",
                lanes=self.stats["lanes"],
                fast=self.stats["fast"],
                fallback=self.stats["fallback"],
            )
            if tracer is not None
            else nullcontext()
        ):
            results = self._results
            fast: List[_FastLane] = []
            for lane in self.lanes:
                if isinstance(lane, _FallbackLane):
                    result = lane.run()
                    results[lane.index] = result
                    self.stats["steps"] += result.total_steps
                else:
                    fast.append(lane)
            slice_ticks = self.slice_ticks
            occupancy: List[int] = self.stats["wave_occupancy"]
            retired: List[int] = self.stats["wave_retired"]
            active = fast
            while active:
                occupancy.append(len(active))
                still: List[_FastLane] = []
                for lane in active:
                    _advance(lane, slice_ticks)
                    if lane.reason is None:
                        still.append(lane)
                    else:
                        results[lane.index] = lane.result()
                        self.stats["steps"] += lane.time
                retired.append(len(active) - len(still))
                if tracer is not None:
                    tracer.event(
                        "batch.wave",
                        tick=len(occupancy) - 1,
                        active=len(active),
                        retired=len(active) - len(still),
                    )
                active = still
            self.stats["waves"] = len(occupancy)
        return list(results)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# The fused step loop
# ----------------------------------------------------------------------


def _advance(lane: _FastLane, ticks: int) -> None:
    """Advance one fast lane by up to ``ticks`` steps.

    This is the hot loop; every branch mirrors one line of
    ``System.advance`` / ``System._run_loop`` and the shipped policies,
    with per-step dispatch replaced by integer mode codes, ``rng.choice``
    replaced by the inlined ``getrandbits`` rejection draw it performs
    internally, and pending-entry objects replaced by enqueue-time step
    notes in flat arrays.  Deviating from the interpreted engine here is a bug; the
    oracle suite (``tests/kernel/test_batch.py``) enforces bit-identity.
    """
    t = lane.time
    budget = lane.budget
    remaining_extra = lane.remaining_extra
    check_stop = lane.check_stop
    extra_steps = lane.extra_steps
    record_trace = lane.record_trace
    engine = lane.engine
    sched_mode = lane.sched_mode
    deliv_mode = lane.deliv_mode
    coalescing = lane.coalescing
    n = lane.n
    alive = lane.alive
    n_alive = lane.n_alive
    k_alive = lane.k_alive
    alive_set = lane.alive_set
    next_epoch_at = lane.next_epoch_at
    sched_grb = lane.sched_rng.getrandbits
    max_gap = lane.max_gap
    sd = lane.sd
    last = lane.last_sched
    lambda_prob = lane.lambda_prob
    max_age = lane.max_age
    pending = lane.pending
    note_counts = lane.note_counts
    dest_steps = lane.dest_steps
    dest_rngs = lane.dest_rngs
    seqs = lane.seqs
    seg_times = lane.seg_times
    seg_values = lane.seg_values
    seg_idx = lane.seg_idx
    parked = lane.parked
    decisions = lane.decisions
    decision_times = lane.decision_times
    has_decided = lane.has_decided
    correct_set = lane.correct_set
    undecided = lane.undecided_correct
    steps = lane.steps
    queried = lane.queried
    sent = 0
    delivered_n = 0
    done = 0
    reason: Optional[str] = None

    if engine == _ENGINE_MR:
        mr_x = lane.mr_x
        mr_round = lane.mr_round
        mr_phase = lane.mr_phase
        mr_opened = lane.mr_opened
        mr_decided = lane.mr_decided
        mr_leads = lane.mr_leads
        mr_reps = lane.mr_reps
        mr_props = lane.mr_props
        mr_segments = lane.mr_segments
        from repro.consensus.mostefaoui_raynal import LEAD, PROP, REP

    while done < ticks:
        # ---- _run_loop: budget / stop / extra-steps protocol ----------
        if budget <= 0:
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
            lane.advance_epochs(t)
            alive = lane.alive
            alive_set = lane.alive_set
            n_alive = lane.n_alive
            k_alive = lane.k_alive
            next_epoch_at = lane.next_epoch_at
        if not n_alive:
            reason = "all_crashed"
            break

        # ---- scheduler -------------------------------------------------
        if sched_mode == _SCHED_RF:
            sd0 = sd[0] + 1
            sd[0] = sd0
            if sd0 >= sd[1]:
                threshold = sd0 - max_gap
                overdue = [p for p in alive if last[p] < threshold]
                if overdue:
                    pid = overdue[0]
                    last[pid] = sd0
                    sd[1] = sd0 + 1
                else:
                    low = last[alive[0]]
                    for p in alive:
                        lp = last[p]
                        if lp < low:
                            low = lp
                    sd[1] = low + max_gap + 1
                    r = sched_grb(k_alive)
                    while r >= n_alive:
                        r = sched_grb(k_alive)
                    pid = alive[r]
                    last[pid] = sd0
            else:
                r = sched_grb(k_alive)
                while r >= n_alive:
                    r = sched_grb(k_alive)
                pid = alive[r]
                last[pid] = sd0
        elif sched_mode == _SCHED_RR:
            n_rr = alive[-1] + 1
            cursor = lane.rr_cursor
            pid = alive[0]
            for _ in range(n_rr):
                candidate = cursor % n_rr
                cursor += 1
                if candidate in alive_set:
                    pid = candidate
                    break
            lane.rr_cursor = cursor
        else:
            pid = lane.sched_obj.next_process(alive, t, lane.sched_rng)

        # ---- delivery (with O(1) enqueue-note aging) -------------------
        nc = note_counts[pid] + 1
        note_counts[pid] = nc
        entries = pending[pid]
        if coalescing and entries:
            # CoalescingDelivery: drop, per sender, every DAG payload
            # older than the sender's newest one (probe guarantees all
            # payloads in this lane are DAGs).
            newest: Dict[int, int] = {}
            for e in entries:
                s = e[0]
                q = e[3]
                if q > newest.get(s, -1):
                    newest[s] = q
            i = 0
            while i < len(entries):
                e = entries[i]
                if e[3] < newest.get(e[0], -1):
                    del entries[i]
                else:
                    i += 1
        message = None
        if entries:
            if deliv_mode == _DELIV_FAIR:
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
            elif deliv_mode == _DELIV_OLDEST:
                message = entries[0]
                del entries[0]
            else:  # per-sender FIFO
                oldest = entries[0]
                if nc - oldest[2] >= max_age:
                    message = oldest
                    del entries[0]
                else:
                    rng = dest_rngs[pid]
                    if rng.random() >= lambda_prob:
                        senders = sorted({e[0] for e in entries})
                        ln = len(senders)
                        grb = rng.getrandbits
                        kk = ln.bit_length()
                        r = grb(kk)
                        while r >= ln:
                            r = grb(kk)
                        sender = senders[r]
                        for i, e in enumerate(entries):
                            if e[0] == sender:
                                message = e
                                del entries[i]
                                break
        dest_steps[pid] += 1
        if message is not None:
            delivered_n += 1

        # ---- detector segment cursor (monotone per pid) ---------------
        si = seg_idx[pid]
        times = seg_times[pid]
        nseg = len(times)
        if si + 1 < nseg and t >= times[si + 1]:
            si += 1
            while si + 1 < nseg and t >= times[si + 1]:
                si += 1
            seg_idx[pid] = si

        # ---- engines ---------------------------------------------------
        my_sends = None  # broadcast payloads (MR), or (dest, payload) list
        if engine == _ENGINE_MR:
            if message is None and parked[pid] == si:
                # Lambda-quiescence: the phase machine parked at a failed
                # wait with this very detector segment; re-running it is a
                # provable no-op (hooks are pure in (state, d)).
                d_raw = mr_segments[pid][si][2]
                if record_trace:
                    queried[pid].append((t, d_raw))
                    steps.append(
                        StepRecord(
                            index=len(steps),
                            time=t,
                            pid=pid,
                            message=None,
                            detector_value=d_raw,
                            sends=(),
                        )
                    )
                t += 1
                budget -= 1
                done += 1
                continue
            leader, quorum, d_raw = mr_segments[pid][si]
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
                if mr_decided[pid] is None and unanimous and first != UNKNOWN:
                    mr_decided[pid] = x
                    decisions[pid] = x
                    decision_times[pid] = t
                    has_decided[pid] = True
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
        elif engine == _ENGINE_GENERIC:
            d_raw = seg_values[pid][si]
            if message is None and lane.lambda_skip and parked[pid] == si:
                if record_trace:
                    queried[pid].append((t, d_raw))
                    steps.append(
                        StepRecord(
                            index=len(steps),
                            time=t,
                            pid=pid,
                            message=None,
                            detector_value=d_raw,
                            sends=(),
                        )
                    )
                t += 1
                budget -= 1
                done += 1
                continue
            delivered = (
                DeliveredMessage(message[0], message[1])
                if message is not None
                else None
            )
            outcome = lane.transition(lane.states[pid], pid, delivered, d_raw)
            lane.states[pid] = outcome.state
            if not has_decided[pid]:
                dec = lane.decision_of(outcome.state)
                if dec is not None:
                    decisions[pid] = dec
                    decision_times[pid] = t
                    has_decided[pid] = True
                    if pid in correct_set:
                        undecided -= 1
            if outcome.sends:
                my_sends = outcome.sends
            if lane.lambda_skip:
                parked[pid] = si
        else:  # _ENGINE_DAG
            d_raw = seg_values[pid][si]
            core = lane.cores[pid]
            if message is not None:
                core.absorb(message[1])
            core.sample(d_raw, t)
            dag = core.dag
            my_sends = [(dest, dag) for dest in range(n)]

        # ---- enqueue sends / trace ------------------------------------
        if record_trace:
            send_msgs: List[Message] = []
            if engine == _ENGINE_MR:
                if my_sends is not None:
                    for payload in my_sends:
                        seq = seqs[pid]
                        for dest in range(n):
                            msg_obj = Message(
                                pid, dest, payload, uid=(pid, seq), sent_at=t
                            )
                            pending[dest].append(
                                (pid, payload, note_counts[dest], seq, msg_obj)
                            )
                            send_msgs.append(msg_obj)
                            seq += 1
                            sent += 1
                        seqs[pid] = seq
            elif my_sends is not None:
                seq = seqs[pid]
                for dest, payload in my_sends:
                    msg_obj = Message(
                        pid, dest, payload, uid=(pid, seq), sent_at=t
                    )
                    pending[dest].append(
                        (pid, payload, note_counts[dest], seq, msg_obj)
                    )
                    send_msgs.append(msg_obj)
                    seq += 1
                    sent += 1
                seqs[pid] = seq
            queried[pid].append((t, d_raw))
            steps.append(
                StepRecord(
                    index=len(steps),
                    time=t,
                    pid=pid,
                    message=message[4] if message is not None else None,
                    detector_value=d_raw,
                    sends=tuple(send_msgs),
                )
            )
        elif my_sends is not None:
            # Metrics mode: delivery only reads entry[0..2]; the seq slot is
            # needed solely by coalescing lanes, so plain lanes enqueue
            # 3-tuples with no per-message arithmetic.
            if engine == _ENGINE_MR:
                for payload in my_sends:
                    for dest in range(n):
                        pending[dest].append((pid, payload, note_counts[dest]))
                    sent += n
            elif coalescing:
                seq = seqs[pid]
                for dest, payload in my_sends:
                    pending[dest].append(
                        (pid, payload, note_counts[dest], seq)
                    )
                    seq += 1
                    sent += 1
                seqs[pid] = seq
            else:
                for dest, payload in my_sends:
                    pending[dest].append((pid, payload, note_counts[dest]))
                    sent += 1
        t += 1
        budget -= 1
        done += 1

    lane.time = t
    lane.budget = budget
    lane.remaining_extra = remaining_extra
    lane.sent += sent
    lane.delivered += delivered_n
    lane.undecided_correct = undecided
    lane.reason = reason
