#!/usr/bin/env python
"""Runtime determinism smoke check: run an experiment twice, diff digests.

Usage: PYTHONPATH=src python benchmarks/check_determinism.py
           [--exp NAME | --chaos | --service] [--quick/--full] [--jobs N]
           [--verbose]

The static pass (``python -m repro lint``) proves the *patterns* that break
determinism are absent; this script is its dynamic counterpart.  It executes
the chosen experiment sweep (EXP-3, the extraction pipeline, by default —
the deepest consumer of replay, tries, and caching) twice in-process with
identical parameters and compares SHA-256 digests of the rendered tables
and of the merged obs counter registries.  Any divergence — ambient RNG,
set-order leakage, cross-run cache contamination — fails with exit 1.

With ``--jobs N`` (N > 1) the second run additionally exercises the
parallel sweep driver, so the diff doubles as a serial-vs-parallel parity
check.

The quick and full parameterizations of every experiment are the ones
``repro experiment [--quick]`` runs
(``repro.harness.experiments.EXPERIMENTS``).

CI runs the quick parameterization; it completes in well under a minute.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

from repro.harness.experiments import EXPERIMENTS


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical_counters(snapshot: dict) -> str:
    """Registry snapshot as sorted (section, key, value) triples.

    Key insertion order and zero-valued counters are presentation detail
    (a worker that never increments a counter ships no delta for it), so
    they are normalized away before hashing.
    """
    triples = []
    for section, values in sorted(snapshot.items()):
        if not isinstance(values, dict):
            triples.append((section, "", repr(values)))
            continue
        for key, value in sorted(values.items()):
            if section == "counters" and not value:
                continue
            triples.append((section, key, repr(value)))
    return repr(triples)


def run_once(exp: str, quick: bool, jobs: int) -> dict:
    """One full experiment run; returns digests of everything observable."""
    from repro import obs
    from repro.detectors.base import clear_history_cache

    # Fresh cross-run state: the point is to prove a rerun reproduces the
    # first run from nothing but (parameters, seeds).
    clear_history_cache()
    obs.enable(label=f"determinism:{exp}", fresh_metrics=True)
    try:
        table = EXPERIMENTS[exp].run(quick=quick, jobs=jobs)
    finally:
        obs.disable()
    rendered = table.render()
    counters = _canonical_counters(obs.metrics().snapshot())
    return {
        "table": _digest(rendered),
        "counters": _digest(counters),
        "rendered": rendered,
        "counters_text": counters,
    }


#: The quick --chaos parameterization: three matrix rows covering all
#: three run kinds (consensus liveness, consensus safety, register safety).
CHAOS_QUICK_NAMES = ("omega-crashed", "split-quorums", "register-split")
CHAOS_QUICK_BUDGET = 60_000

#: The --service parameterization: burst workload at several batch sizes.
SERVICE_QUICK = dict(clients=5, commands=40, seed=17)
SERVICE_FULL = dict(clients=8, commands=96, seed=17)
SERVICE_BATCH_SIZES = (1, 4, 16)


def run_service_once(quick: bool) -> dict:
    """One service pass: the seeded burst workload at every batch size.

    The whole asyncio service runs on the logical clock, so the applied
    command sequence and the counter registry are functions of (spec,
    config) alone.  The rendered table carries one row per batch size
    *plus* the cross-batch digest set — so a single diff proves both
    double-run identity and that batching never changes what is applied.
    """
    from repro import obs
    from repro.detectors.base import clear_history_cache
    from repro.harness.load import LoadSpec, run_service_load
    from repro.service.service import ServiceConfig

    params = SERVICE_QUICK if quick else SERVICE_FULL
    spec = LoadSpec(mode="open", arrival_every=0, deadline_ticks=8000,
                    **params)

    clear_history_cache()
    obs.enable(label="determinism:service", fresh_metrics=True)
    try:
        lines = []
        digests = set()
        for batch_size in SERVICE_BATCH_SIZES:
            config = ServiceConfig(
                n=3,
                seed=params["seed"],
                batch_size=batch_size,
                queue_depth=max(params["commands"], 64),
            )
            report, service = run_service_load(config, spec)
            digests.add(report.applied_digest)
            lines.append(
                f"batch={batch_size} committed={report.committed} "
                f"shed={report.shed} timed_out={report.timed_out} "
                f"kernel_steps={report.kernel_steps} "
                f"applied={report.applied_digest} "
                f"p50={report.latency_percentile(0.5)} "
                f"p99={report.latency_percentile(0.99)} "
                f"invariants_ok={service.invariants.ok}"
            )
        lines.append(f"cross_batch_digests={sorted(digests)}")
        if len(digests) != 1:
            lines.append("CROSS-BATCH DIVERGENCE")
    finally:
        obs.disable()
    rendered = "\n".join(lines)
    # Timers hold wall durations — logical identity lives in counters
    # and gauges only.
    snapshot = {
        k: v
        for k, v in obs.metrics().snapshot().items()
        if k != "timers"
    }
    counters = _canonical_counters(snapshot)
    return {
        "table": _digest(rendered),
        "counters": _digest(counters),
        "rendered": rendered,
        "counters_text": counters,
    }


def run_chaos_once(quick: bool, jobs: int) -> dict:
    """One chaos-matrix run; returns digests of verdicts and counters."""
    from repro import obs
    from repro.chaos.matrix import run_matrix
    from repro.detectors.base import clear_history_cache

    names = CHAOS_QUICK_NAMES if quick else None
    budget = CHAOS_QUICK_BUDGET if quick else None

    clear_history_cache()
    obs.enable(label="determinism:chaos", fresh_metrics=True)
    try:
        report = run_matrix(seed=0, budget=budget, jobs=jobs, names=names)
    finally:
        obs.disable()
    rendered = "\n".join(
        f"{v.config} ok={v.ok} found={sorted(v.found)} cases={v.cases} "
        f"steps={v.steps} sample={v.sample!r}"
        for v in report.verdicts
    )
    counters = _canonical_counters(obs.metrics().snapshot())
    return {
        "table": _digest(rendered),
        "counters": _digest(counters),
        "rendered": rendered,
        "counters_text": counters,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Run an experiment sweep twice with identical seeds and fail "
            "if the result digests differ (dynamic determinism check)."
        ),
        epilog=(
            "Exit codes: 0 = digests identical, 1 = determinism violation, "
            "2 = usage error.  The static counterpart is "
            "'python -m repro lint' (see docs/linting.md)."
        ),
    )
    parser.add_argument(
        "--exp",
        default="exp3",
        choices=sorted(EXPERIMENTS),
        help="experiment sweep to run twice (default: exp3, extraction)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="full parameterization (default: quick)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the SECOND run (first is always serial), "
        "making the diff a serial-vs-parallel parity check (default 1)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="print the rendered tables on mismatch",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="diff the chaos fuzzing matrix instead of an experiment sweep "
        "(quick: three rows, capped budget; full: the whole matrix)",
    )
    parser.add_argument(
        "--service",
        action="store_true",
        help="diff the asyncio consensus service instead: the seeded "
        "burst workload at batch sizes 1/4/16 on the logical clock, "
        "twice — also proves the applied digest is batch-size-invariant",
    )
    args = parser.parse_args(argv)

    if args.chaos and args.service:
        print("error: pick one of --chaos / --service", file=sys.stderr)
        return 2

    quick = not args.full
    if args.service:
        label = "consensus service"
    elif args.chaos:
        label = "chaos matrix"
    else:
        label = args.exp
    if args.service:
        once = lambda jobs: run_service_once(quick)  # noqa: E731
    elif args.chaos:
        once = lambda jobs: run_chaos_once(quick, jobs)  # noqa: E731
    else:
        once = lambda jobs: run_once(args.exp, quick, jobs)  # noqa: E731
    print(
        f"run 1/2: {label} ({'quick' if quick else 'full'}, serial) ...",
        flush=True,
    )
    first = once(1)
    print(
        f"run 2/2: {label} ({'quick' if quick else 'full'}, "
        f"jobs={args.jobs}) ...",
        flush=True,
    )
    second = once(args.jobs)

    ok = True
    for key in ("table", "counters"):
        match = first[key] == second[key]
        print(
            f"{key:8s}: {first[key][:16]} vs {second[key][:16]} "
            f"[{'ok' if match else 'MISMATCH'}]"
        )
        ok = ok and match

    if not ok:
        print(
            f"{label} is not deterministic: rerun with the same seeds "
            f"produced different results",
            file=sys.stderr,
        )
        if args.verbose:
            print("--- run 1 table ---\n" + first["rendered"])
            print("--- run 2 table ---\n" + second["rendered"])
            print("--- run 1 counters ---\n" + first["counters_text"])
            print("--- run 2 counters ---\n" + second["counters_text"])
        return 1
    print(f"{label} deterministic: identical table and counter digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
