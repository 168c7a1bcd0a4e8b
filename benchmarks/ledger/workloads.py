"""The seven ledger workloads: build, measured section, correctness check.

Each ``rep_*`` function performs one *repetition*: it builds fresh inputs
and program state (timed as ``build_s``), runs the measured section, shuts
the program down and checks its outputs.  ``run.py`` repeats it for the
run's duration and reports medians.

What ``--seed`` controls: everything clients send (sessions, keys, values,
arrival ticks) and the kernel's scheduler/delivery randomness (the
injected inter-replica message delay, via ``ServiceConfig.seed`` / lane
seeds).  What is pinned per workload: the failure pattern and the sampled
detector history of the service workloads (``HISTORY_SEED``) and the three
extraction cases — measured on the seed state, the Sigma^nu+ quorum draw
alone moves kernel steps per command by ~10 % and an extraction case by
3x, which no regression bound could absorb.  ``kernel_lanes`` averages
1 024 lanes, so there the seed drives patterns and histories too.

``repro`` is imported inside functions: ``run.py`` times the imports.
"""

from __future__ import annotations

import asyncio
import hashlib
import importlib.util
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import loadgen
from spans import Recorder

HISTORY_SEED = 42 + 777  # what ServiceCore(seed=42) would sample from
STEPS_PER_TICK = 256
LOGICAL_DEADLINE_TICKS = 100_000
TCP_TIMEOUT_S = 120.0

#: Full sizes.  Smaller than the sizing runs in ISSUE 12 (1 500 / 12 000
#: commands, 3 outputs per extractor): a driver run must hold at least
#: three repetitions inside ``run_seconds`` for its median to shed a
#: noisy one, so one repetition is sized to ~3-4 s on the 2-core box.
SIZES: Dict[str, Dict[str, Any]] = {
    "burst_b1": dict(
        n=3, commands=1000, sessions=8, arrival_every=0,
        batch_size=1, max_inflight=4,
    ),
    "burst_b16": dict(
        n=3, commands=10000, sessions=8, arrival_every=0,
        batch_size=16, max_inflight=4,
    ),
    "closed_rw": dict(
        n=3, sessions=32, per_session=100, think_ticks=1,
        batch_size=4, max_inflight=4, queue_depth=64,
    ),
    "failover_n5": dict(
        n=5, commands=750, sessions=8, arrival_every=1,
        batch_size=4, max_inflight=4, queue_depth=4096,
        crash_at=75_000, omega_switch_at=87_800,
    ),
    "tcp_closed": dict(
        n=3, sessions=2, per_session=300,
        batch_size=4, max_inflight=4, queue_depth=64,
    ),
    "kernel_lanes": dict(n=5, lanes=1024, steps=300),
    "extract_trie": dict(
        n=5, trials=(2, 3, 4), max_steps=2500, min_outputs=2,
    ),
}

_DIVIDED_IN_QUICK = ("commands", "per_session", "lanes", "crash_at",
                     "omega_switch_at")


def sizes_for(name: str, quick: bool) -> Dict[str, Any]:
    """The workload's sizes; ``quick`` divides the work by ten."""
    sizes = dict(SIZES[name])
    if quick:
        for key in _DIVIDED_IN_QUICK:
            if key in sizes:
                sizes[key] = max(1, sizes[key] // 10)
        if name == "extract_trie":
            sizes.update(trials=(3,), min_outputs=1)
    return sizes


@dataclass
class Rep:
    """One repetition's measurements (times in seconds)."""

    build_s: float
    wall_s: float
    ops: int  # committed commands / lanes / extraction cases
    ops_s: float  # the time those took (kernel_lanes: batched phase)
    latency_s: List[float]  # per-operation, due -> done
    steps: int  # kernel (or simulator) steps executed
    steps_s: float  # the time those took (kernel_lanes: interpreted phase)
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    digest: Optional[str] = None  # equal across repetitions when set
    layer: Dict[str, float] = field(default_factory=dict)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Service workloads
# ----------------------------------------------------------------------


class _LedgerDetector:
    """(Omega, Sigma^nu+) with the history pinned to ``HISTORY_SEED``.

    With ``omega_switch_at`` the Omega component is built here instead of
    sampled: p0 everywhere until that kernel time, then p1 — a valid
    Omega history whenever p1 is correct, and one that keeps trusting p0
    for a while after it crashed."""

    def __init__(self, omega_switch_at: Optional[int] = None):
        self.omega_switch_at = omega_switch_at

    def sample_history(self, pattern, _rng):
        from repro.detectors import (
            Omega, PairedHistory, ScheduleHistory, SigmaNuPlus,
        )

        rng = random.Random(HISTORY_SEED)
        if self.omega_switch_at is None:
            omega = Omega().sample_history(pattern, rng)
        else:
            omega = ScheduleHistory(
                {
                    p: [(0, 0), (self.omega_switch_at, 1)]
                    for p in pattern.processes
                }
            )
        return PairedHistory(
            [omega, SigmaNuPlus().sample_history(pattern, rng)]
        )


class _TracedDetector:
    """Times sampling and hands the kernel a span-recording history."""

    def __init__(self, inner, recorder: Recorder):
        self.inner, self.recorder = inner, recorder

    def sample_history(self, pattern, rng):
        start = time.perf_counter()
        history = self.inner.sample_history(pattern, rng)
        self.recorder.values["detector.sample_s"] += (
            time.perf_counter() - start
        )
        return _TracedHistory(history, self.recorder)


class _TracedHistory:
    def __init__(self, inner, recorder: Recorder):
        self.value = recorder.traced("detector.value", inner.value)


def _instrument(service, clock, rec: Recorder, submit_await: Dict) -> None:
    """Install the traced round's wrappers on the live instances."""
    core, values = service.core, rec.values

    def scanned_log(log) -> None:
        values["certify.slots_scanned"] += len(log) + 1

    def scanned_length(length) -> None:
        values["certify.slots_scanned"] += length + 1

    def after_step(_taken) -> None:
        lengths = [len(core.replicas[p].log) for p in core.alive()]
        if lengths:
            lag = max(lengths) - min(lengths)
            if lag > values["replog.follower_lag_max"]:
                values["replog.follower_lag_max"] = lag

    def moved(count) -> None:
        values["core.refeed.moved"] += count

    rec.wrap(core, "step", "core.step", after_step)
    rec.wrap(core, "has_work", "core.has_work")
    rec.wrap(core, "certified_log", "core.certified_log", scanned_log)
    rec.wrap(core, "certified_length", "core.certified_length",
             scanned_length)
    rec.wrap(core, "feed_batch", "core.feed_batch")
    rec.wrap(core, "refeed_pending", "core.refeed_pending", moved)
    rec.wrap(core, "leader_hint", "core.leader_hint")
    for replica in core.replicas.values():
        rec.wrap(replica, "feed", "replog.feed")
    rec.wrap(service.invariants, "observe", "invariants.observe")
    rec.wrap(service, "try_submit", "service.try_submit")
    def awaited(args, seconds) -> None:
        submit_await[args[:2]] = seconds  # keyed by (session, seq)

    rec.wrap_coroutine(service, "submit", "service.submit", on_done=awaited)
    rec.wrap_coroutine(service, "read", "service.read", nests=True)
    rec.wrap_coroutine(clock, "sleep_ticks", "clock.sleep_ticks")


def _service_layers(
    service, rec: Recorder, load, clock_ticks: int, submit_await: Dict,
    batch_size: int,
) -> Dict[str, float]:
    calls, self_s, values, stats = (
        rec.calls, rec.self_s, rec.values, service.stats,
    )
    certify = ("core.certified_log", "core.certified_length")
    scanned = values["certify.slots_scanned"]
    step_s = self_s["core.step"] + self_s["detector.value"]
    wall = load.wall_s
    unattributed = wall - rec.attributed_s()
    overheads = [
        rtt - submit_await[key]
        for key, rtt in load.rtt_by_command.items()
        if key in submit_await
    ]
    rtts = list(load.rtt_by_command.values())
    return {
        "certify.calls": sum(calls[c] for c in certify),
        "certify.busy_s": sum(self_s[c] for c in certify),
        "certify.slots_scanned": scanned,
        "certify.useful_frac": (
            service.certified_slots / scanned if scanned else 0.0
        ),
        "invariants.calls": calls["invariants.observe"],
        "invariants.busy_s": self_s["invariants.observe"],
        "core.step.calls": calls["core.step"],
        "core.step.busy_s": self_s["core.step"],
        "kernel.steps": stats["kernel_steps"],
        "kernel.steps_per_s": (
            stats["kernel_steps"] / step_s if step_s else 0.0
        ),
        "core.has_work.calls": calls["core.has_work"],
        "core.has_work.busy_s": self_s["core.has_work"],
        "core.feed.calls": calls["core.feed_batch"],
        "core.refeed.moved": values["core.refeed.moved"],
        "core.leader_hint.calls": calls["core.leader_hint"],
        "detector.sample_s": values["detector.sample_s"],
        "detector.value.calls": calls["detector.value"],
        "detector.value.busy_s": self_s["detector.value"],
        "replog.log_len": max(
            len(r.log) for r in service.core.replicas.values()
        ),
        "replog.feed.calls": calls["replog.feed"],
        "replog.follower_lag_max": values["replog.follower_lag_max"],
        "service.batches": stats["batches"],
        "service.batch_fill": (
            stats["committed"] / (stats["batches"] * batch_size)
            if stats["batches"] else 0.0
        ),
        "service.duplicates": stats["duplicates"],
        "service.refeeds": stats["refeeds"],
        "service.ticks": stats["ticks"],
        "service.submit.calls": (
            calls["service.submit"] + calls["service.try_submit"]
        ),
        "service.submit.busy_s": self_s["service.try_submit"],
        "service.read.calls": calls["service.read"],
        "service.read.busy_s": self_s["service.read"],
        "clock.sleep_calls": calls["clock.sleep_ticks"],
        "clock.ticks": clock_ticks,
        "unattributed_s": unattributed,
        "unattributed_frac": unattributed / wall if wall else 0.0,
        "net.rtt_p50_ms": percentile(rtts, 0.50) * 1e3,
        "net.rtt_p99_ms": percentile(rtts, 0.99) * 1e3,
        "net.overhead_p50_ms": percentile(overheads, 0.50) * 1e3,
        "net.bytes_per_cmd": (
            load.bytes_moved / load.committed if load.committed else 0.0
        ),
    }


def _load_layers(load) -> Dict[str, float]:
    """Generator-side numbers.  The TCP driver records no ticks (on the
    wall clock they would restate the milliseconds), so those read 0."""
    ticks = sorted(load.commit_ticks)
    gaps = [b - a for a, b in zip(ticks, ticks[1:])]
    return {
        "load.scheduled": load.scheduled,
        "load.submitted": load.submitted,
        "load.shed": load.shed,
        "load.timed_out": load.timed_out,
        "load.late_ticks_max": load.late_ticks_max,
        "load.commit_p99_ms": percentile(load.latency_s, 0.99) * 1e3,
        "load.commit_p50_ticks": percentile(load.latency_ticks, 0.50),
        "load.commit_p99_ticks": percentile(load.latency_ticks, 0.99),
        "load.outage_ticks": max(gaps, default=0),
    }


def _check_service(service, expected: List, load) -> List[str]:
    from repro.smr import check_certified_reads, check_service_log

    core = service.core
    problems: List[str] = []
    if not service.invariants.ok:
        problems.append(f"invariants: {service.invariants.violations[:2]}")
    log_report = check_service_log(core.certified_log())
    if not log_report.ok:
        problems.append(f"service log: {log_report.violations[:2]}")
    read_report = check_certified_reads(
        service.read_log, core.logs(), core.quorum
    )
    if not read_report.ok:
        problems.append(f"reads: {read_report.violations[:2]}")
    applied = service.applied_commands
    if len(applied) != len(expected) or set(applied) != set(expected):
        problems.append(
            f"exactly-once: {len(applied)} applied, "
            f"{len(expected)} scheduled"
        )
    if load.failed:
        problems.append(
            f"load: {load.shed} shed, {load.timed_out} timed out, "
            f"{load.errors} errors"
        )
    return problems


def rep_service(
    name: str, sizes: Dict[str, Any], seed: int, rec: Optional[Recorder]
) -> Rep:
    """One repetition of a service workload on a fresh loop and service."""
    from repro.service import (
        ConsensusService, ServiceConfig, TickClock, logical_event_loop,
    )
    from repro.service.net import serve_tcp

    build_start = time.perf_counter()
    over_tcp = name == "tcp_closed"
    closed = name == "closed_rw"
    rng = random.Random(f"ledger/{name}/{seed}")
    if over_tcp or closed:
        scripts = loadgen.session_scripts(
            rng, sizes["sessions"], sizes["per_session"], text=over_tcp
        )
        rows = [row for script in scripts for row in script]
    else:
        rows = loadgen.open_schedule(
            rng, sizes["commands"], sizes["sessions"], sizes["arrival_every"]
        )
    expected = [(session, seq, op) for _due, session, seq, op in rows]

    detector: Any = _LedgerDetector(sizes.get("omega_switch_at"))
    if rec is not None:
        detector = _TracedDetector(detector, rec)
    config = ServiceConfig(
        n=sizes["n"],
        seed=seed,
        batch_size=sizes["batch_size"],
        max_inflight=sizes["max_inflight"],
        queue_depth=sizes.get("queue_depth", len(rows)),
        steps_per_tick=STEPS_PER_TICK,
        crash_times=(
            {0: sizes["crash_at"]} if "crash_at" in sizes else {}
        ),
        detector=detector,
    )
    loop = asyncio.new_event_loop() if over_tcp else logical_event_loop()
    submit_await: Dict = {}

    async def main():
        clock = TickClock(loop)
        service = ConsensusService(config, clock)
        if rec is not None:
            _instrument(service, clock, rec, submit_await)
        service.start()
        server = None
        try:
            first_tick = clock.now_ticks()
            if over_tcp:
                server = await serve_tcp(service, "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                load = await loadgen.tcp_closed(
                    "127.0.0.1", port, scripts, TCP_TIMEOUT_S
                )
            elif closed:
                load = await loadgen.closed_read_write(
                    service, clock, scripts, sizes["think_ticks"],
                    LOGICAL_DEADLINE_TICKS,
                )
            else:
                load = await loadgen.open_loop(
                    service, clock, rows, LOGICAL_DEADLINE_TICKS
                )
            steps = service.stats["kernel_steps"]
            clock_ticks = clock.now_ticks() - first_tick
        finally:
            if server is not None:
                server.close()
                await server.wait_closed()
            await service.stop()
        return service, load, steps, clock_ticks

    try:
        asyncio.set_event_loop(loop)
        service, load, steps, clock_ticks = loop.run_until_complete(main())
    finally:
        asyncio.set_event_loop(None)
        loop.close()

    # Layer numbers first: the checks below call wrapped methods again.
    layer = _load_layers(load)
    if rec is not None:
        layer.update(
            _service_layers(
                service, rec, load, clock_ticks, submit_await,
                sizes["batch_size"],
            )
        )
    return Rep(
        build_s=load.start - build_start,
        wall_s=load.wall_s,
        ops=load.committed,
        ops_s=load.wall_s,
        latency_s=load.latency_s,
        steps=steps,
        steps_s=load.wall_s,
        attempted=load.scheduled + load.reads,
        failed=load.failed,
        problems=_check_service(service, expected, load),
        # Two TCP connections interleave by wall time: order is not pinned.
        digest=None if over_tcp else _digest(service.applied_commands),
        layer=layer,
    )


# ----------------------------------------------------------------------
# kernel_lanes
# ----------------------------------------------------------------------


def rep_kernel_lanes(
    name: str, sizes: Dict[str, Any], seed: int, rec: Optional[Recorder]
) -> Rep:
    """The same lanes through one ``System.run()`` each, then through one
    ``BatchSystem``; results must be equal lane by lane."""
    from repro.consensus.interface import consensus_outcome
    from repro.consensus.properties import check_uniform_consensus
    from repro.consensus.quorum_mr import QuorumMR
    from repro.detectors import Omega, PairedDetector, Sigma
    from repro.harness.runner import random_pattern
    from repro.kernel.automaton import AutomatonProcess
    from repro.kernel.batch import BatchSystem, LaneSpec
    from repro.kernel.failures import FailurePattern
    from repro.kernel.system import System

    n, steps = sizes["n"], sizes["steps"]
    now = time.perf_counter
    build_start = now()
    detector = PairedDetector(Omega(), Sigma("pivot"))
    specs = []
    for i in range(sizes["lanes"]):
        lane_seed = seed * 100_003 + i
        pattern = (
            FailurePattern(n, {})
            if lane_seed % 2 == 0
            else random_pattern(n, random.Random(lane_seed), max_faulty=2)
        )
        lane_rng = random.Random(f"ledger/lane/{lane_seed}")
        specs.append(
            LaneSpec(
                pattern=pattern,
                history=detector.sample_history(pattern, lane_rng),
                seed=lane_seed,
                max_steps=steps,
                automaton=QuorumMR(),
                proposals={p: lane_rng.randrange(2) for p in range(n)},
                trace="metrics",
            )
        )

    def construct(spec):
        processes = {
            p: AutomatonProcess(spec.automaton, spec.proposals[p])
            for p in range(n)
        }
        return System(
            processes, spec.pattern, spec.history, seed=spec.seed,
            trace="metrics",
        )

    def run(system):
        return system.run(max_steps=steps)

    def run_batch(batch):
        return batch.run()

    if rec is not None:
        construct = rec.traced("interp.construct", construct)
        run = rec.traced("interp.run", run)
        run_batch = rec.traced("batch.run", run_batch)

    batch_build_start = now()
    batch = BatchSystem(
        specs, use_numpy=importlib.util.find_spec("numpy") is not None
    )
    start = now()
    batch_build_s = start - batch_build_start
    build_s = start - build_start

    interpreted, lane_s = [], []
    lane_start = start
    for spec in specs:
        interpreted.append(run(construct(spec)))
        lane_end = now()
        lane_s.append(lane_end - lane_start)
        lane_start = lane_end
    interp_s = lane_start - start
    batched = run_batch(batch)
    batch_s = now() - lane_start

    failed = 0
    problems: List[str] = []
    for i, (spec, a, b) in enumerate(zip(specs, interpreted, batched)):
        safe = check_uniform_consensus(
            consensus_outcome(a, spec.proposals), require_termination=False
        )
        if a != b or not safe.ok:
            failed += 1
            if len(problems) < 3:
                problems.append(
                    f"lane {i}: "
                    + ("engines differ" if a != b else str(safe.violations))
                )
    total_steps = sum(r.total_steps for r in interpreted)
    layer: Dict[str, float] = {
        "batch.build_s": batch_build_s,
        "batch.run_s": batch_s,
        "batch.lanes_fast": batch.stats["fast"],
        "batch.lanes_fallback": batch.stats["fallback"],
        "batch.waves": batch.stats["waves"],
        "batch.steps_per_s": total_steps / batch_s,
    }
    if rec is not None:
        layer.update(
            {
                "interp.construct_s": rec.self_s["interp.construct"],
                "interp.run_s": rec.self_s["interp.run"],
                "unattributed_s": interp_s + batch_s - rec.attributed_s(),
            }
        )
        layer["unattributed_frac"] = layer["unattributed_s"] / (
            interp_s + batch_s
        )
    return Rep(
        build_s=build_s,
        wall_s=interp_s + batch_s,
        ops=len(specs),
        ops_s=batch_s,
        latency_s=lane_s,
        steps=total_steps,
        steps_s=interp_s,
        attempted=len(specs),
        failed=failed,
        problems=problems,
        digest=_digest(
            (r.decisions, r.decision_times, r.total_steps, r.messages_sent)
            for r in interpreted
        ),
        layer=layer,
    )


# ----------------------------------------------------------------------
# extract_trie
# ----------------------------------------------------------------------


def rep_extract_trie(
    name: str, sizes: Dict[str, Any], seed: int, rec: Optional[Recorder]
) -> Rep:
    """T_{D -> Sigma^nu} over quorum-MR / (Omega, Sigma) on the pinned
    ``bench_extraction.py`` cases (trial = pattern seed = run seed)."""
    from repro.consensus.quorum_mr import QuorumMR
    from repro.core.simtrie import TrieCounters, merge_counter_dicts
    from repro.detectors import (
        Omega, PairedDetector, Sigma, clear_history_cache,
    )
    from repro.harness.runner import random_pattern, run_extraction

    now = time.perf_counter
    build_start = now()
    clear_history_cache()  # every repetition samples its histories anew
    detector = PairedDetector(Omega(), Sigma("pivot"))
    cases = [
        (trial, random_pattern(sizes["n"], random.Random(trial), max_faulty=2))
        for trial in sizes["trials"]
    ]

    def run_case(trial, pattern):
        return run_extraction(
            QuorumMR(), detector, pattern, seed=trial,
            max_steps=sizes["max_steps"], min_outputs=sizes["min_outputs"],
            trace="metrics",
        )

    if rec is not None:
        run_case = rec.traced("extract.case", run_case)

    start = now()
    outcomes, case_s = [], []
    case_start = start
    for trial, pattern in cases:
        outcomes.append(run_case(trial, pattern))
        case_end = now()
        case_s.append(case_end - case_start)
        case_start = case_end
    wall = case_start - start

    problems = [
        f"trial {trial}: Sigma^nu check failed: {outcome.sigma_nu_check}"
        for (trial, _p), outcome in zip(cases, outcomes)
        if not outcome.sigma_nu_check
    ]
    counters = TrieCounters(
        **(merge_counter_dicts([o.search_counters for o in outcomes]) or {})
    )
    layer: Dict[str, float] = {
        "extract.case_s": statistics.mean(case_s),
        "extract.queries": counters.queries,
        "extract.prefix_hit_rate": counters.prefix_hit_rate,
        "extract.free_step_rate": counters.free_step_rate,
        "extract.steps_simulated": counters.steps_simulated,
        "extract.nodes_created": counters.nodes_created,
        "extract.outputs": sum(
            len(values)
            for outcome in outcomes
            for values in outcome.result.outputs.values()
        ),
    }
    if rec is not None:
        layer["unattributed_s"] = wall - rec.attributed_s()
        layer["unattributed_frac"] = layer["unattributed_s"] / wall
    return Rep(
        build_s=start - build_start,
        wall_s=wall,
        ops=len(cases),
        ops_s=wall,
        latency_s=case_s,
        steps=counters.steps_simulated,
        steps_s=wall,
        attempted=len(cases),
        failed=len(problems),
        problems=problems,
        digest=_digest(
            sorted(outcome.result.outputs.items()) for outcome in outcomes
        ),
        layer=layer,
    )


#: name -> (repetition function, the modules it imports — what ``setup_s``
#: times).  Dict order is the order rounds interleave in.
WORKLOADS: Dict[str, Any] = {
    **{
        name: (
            rep_service,
            ("repro.service", "repro.service.net", "repro.smr",
             "repro.detectors"),
        )
        for name in ("burst_b1", "burst_b16", "closed_rw", "failover_n5",
                     "tcp_closed")
    },
    "kernel_lanes": (
        rep_kernel_lanes,
        ("repro.kernel.batch", "repro.kernel.system",
         "repro.consensus.quorum_mr", "repro.consensus.properties",
         "repro.detectors", "repro.harness.runner"),
    ),
    "extract_trie": (
        rep_extract_trie,
        ("repro.harness.runner", "repro.core.simtrie",
         "repro.consensus.quorum_mr", "repro.detectors"),
    ),
}
