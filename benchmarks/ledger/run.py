"""The perf ledger: one command, seven workloads, every metric by name.

Three ways to call it (all from the repository root)::

    python benchmarks/ledger/run.py [--seed 42] [--repeats 3] [--quick]
                                    [--trace-out FILE] [--json-out FILE]
    python benchmarks/ledger/run.py --workload NAME --seed N --seconds S
                                    --trace 0|1
    python benchmarks/ledger/run.py --compare A.json B.json

The first is the ledger proper: every (workload, round) runs in a fresh
subprocess, rounds interleave across workloads, one extra traced round
gives the per-layer table, and the report carries median, quartiles and n
per metric.  The second is one such subprocess — also what the benchmark
driver calls (``BENCHMARK.json``): it repeats the workload for
``--seconds``, checks every repetition, and prints one JSON object as the
last line of standard output.  The third compares two ``--json-out``
ledgers.  Metric names, units and bounds are read from ``BENCHMARK.json``;
README.md beside this file explains each.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO_ROOT, "src")
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 600


def load_declared() -> Dict[str, Any]:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# One run: --workload NAME
# ----------------------------------------------------------------------


def _time_imports(modules) -> List[float]:
    """Import the workload's modules ``IMPORT_SAMPLES`` times, dropping
    every ``repro`` module in between so each sample executes them again
    (the first also pays for the standard library).  Nothing holds a
    reference yet, and the last import is the one the run uses."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        for loaded in [m for m in sys.modules if m.split(".")[0] == "repro"]:
            del sys.modules[loaded]
        start = time.perf_counter()
        for module in modules:
            importlib.import_module(module)
        samples.append(time.perf_counter() - start)
    return samples


def run_workload(args, declared: Dict[str, Any]) -> int:
    import report
    import workloads
    from spans import Recorder

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no program to measure at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    rep_fn, modules = workloads.WORKLOADS[args.workload]
    import_s = _time_imports(modules)
    sizes = workloads.sizes_for(args.workload, args.quick)

    # Repeat for --seconds; a traced run alternates untraced and traced
    # repetitions so the overhead is measured inside one process.
    untraced: List[workloads.Rep] = []
    traced: List[workloads.Rep] = []
    recorder = None
    started = time.perf_counter()
    while True:
        trace_now = args.trace and len(untraced) > len(traced)
        rec = Recorder(args.workload) if trace_now else None
        rep = rep_fn(args.workload, sizes, args.seed, rec)
        if rec is not None:
            traced.append(rep)
            recorder = rec
        else:
            untraced.append(rep)
        enough = len(traced) >= 1 if args.trace else len(untraced) >= 2
        if enough and time.perf_counter() - started >= args.seconds:
            break

    reps = untraced + traced
    print(
        f"run.py: {args.workload}: {len(untraced)} untraced + {len(traced)} "
        "traced repetitions, wall_s "
        + " ".join(f"{rep.wall_s:.3f}" for rep in reps),
        file=sys.stderr,
    )
    problems = [p for rep in reps for p in rep.problems]
    failed = sum(rep.failed for rep in reps)
    if len({rep.digest for rep in reps}) > 1:
        problems.append("outputs differ between repetitions of one seed")
        failed += 1
    if any(rep.ops == 0 for rep in reps):
        print(f"run.py: nothing completed: {problems}", file=sys.stderr)
        return 1

    median = statistics.median
    if args.trace:
        section = "per_layer"
        values: Dict[str, float] = {
            spec["name"]: median(
                [rep.layer.get(spec["name"], 0) for rep in traced]
            )
            for spec in declared[section]
        }
        values["trace_overhead_frac"] = (
            median([r.wall_s for r in traced])
            / median([r.wall_s for r in untraced])
            - 1
        )
        produced = set(values) | {k for rep in traced for k in rep.layer}
    else:
        section = "end_to_end"
        values = {
            "setup_s": median(import_s) + median([r.build_s for r in reps]),
            "wall_s": median([r.wall_s for r in reps]),
            "cmds_per_s": median([r.ops / r.ops_s for r in reps]),
            "commit_p50_ms": 1e3 * median(
                [workloads.percentile(r.latency_s, 0.5) for r in reps]
            ),
            "ksteps_per_cmd": median([r.steps / r.ops for r in reps]),
            "interp_steps_per_s": median(
                [r.steps / r.steps_s for r in reps]
            ),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss / 1024,
        }
        produced = set(values)
    mismatch = report.validate_names(declared, produced, section)
    if mismatch:
        print(f"run.py: BENCHMARK.json {mismatch}", file=sys.stderr)
        return 2

    if args.trace_out and recorder is not None:
        with open(args.trace_out, "a") as handle:
            recorder.write_jsonl(handle)
    for problem in problems:
        print(f"run.py: {args.workload}: CHECK FAILED: {problem}",
              file=sys.stderr)
    units = {spec["name"]: spec["unit"] for spec in declared[section]}
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(rep.attempted for rep in reps),
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 1 if problems else 0


# ----------------------------------------------------------------------
# The ledger: every workload, interleaved rounds, one traced round
# ----------------------------------------------------------------------


def _child(args, name: str, trace: int) -> Dict[str, Any]:
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.quick:
        command.append("--quick")
    if trace and args.trace_out:
        command += ["--trace-out", args.trace_out]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(
            f"run.py: {name} (trace {trace}) exited {done.returncode} "
            "without a result"
        )
    return json.loads(lines[-1])


def run_ledger(args, declared: Dict[str, Any]) -> int:
    import report

    names = [w["name"] for w in declared["workloads"]]
    if args.trace_out:
        open(args.trace_out, "w").close()  # traced runs append to it
    results: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for round_index in range(args.repeats):
        for name in names:
            print(f"round {round_index + 1}/{args.repeats}: {name}",
                  file=sys.stderr, flush=True)
            results[name].append(_child(args, name, trace=0))
    traced = {}
    for name in names:
        print(f"traced round: {name}", file=sys.stderr, flush=True)
        traced[name] = _child(args, name, trace=1)

    doc: Dict[str, Any] = {
        "schema": report.SCHEMA,
        "seed": args.seed,
        "repeats": args.repeats,
        "seconds": args.seconds,
        "quick": args.quick,
        "workloads": {},
    }
    all_correct = True
    for name in names:
        runs = results[name] + [traced[name]]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        all_correct = all_correct and correct
        doc["workloads"][name] = {
            "end_to_end": {
                spec["name"]: report.summarize(
                    [r["metrics"][spec["name"]]["value"]
                     for r in results[name]],
                    spec["unit"],
                )
                for spec in declared["end_to_end"]
            },
            "per_layer": traced[name]["metrics"],
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
            "correct": correct,
        }
    report.print_ledger(doc, sys.stdout)
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(doc, handle, indent=1)
            handle.write("\n")
    return 0 if all_correct else 1


def run_compare(args, declared: Dict[str, Any]) -> int:
    import report

    docs = []
    for path in args.compare:
        with open(path) as handle:
            docs.append(json.load(handle))
    return 1 if report.print_compare(*docs, declared, sys.stdout) else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--repeats", type=int, default=3,
                        help="untraced rounds per workload (default 3)")
    parser.add_argument("--quick", action="store_true",
                        help="one round, sizes / 10, as short as allowed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run repeats its workload "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="write the traced runs' spans as JSONL")
    parser.add_argument("--json-out", metavar="FILE",
                        help="write the ledger document (for --compare)")
    parser.add_argument("--workload", help="run this workload once, in "
                        "this process, and print one JSON line")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    declared = load_declared()
    if args.quick:
        args.repeats = 1
    if args.seconds is None:
        args.seconds = 0 if args.quick else declared["run_seconds"]
    if args.compare:
        return run_compare(args, declared)
    if args.workload:
        names = [w["name"] for w in declared["workloads"]]
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}: {names}")
        return run_workload(args, declared)
    return run_ledger(args, declared)


if __name__ == "__main__":
    # Hash randomisation gives every process its own dict/set collision
    # pattern: on burst_b16 that alone moved the fastest of 8 repetitions
    # by 5.4 % between ten processes, against 2.8 % with the seed pinned.
    # Both sides of a comparison run under the same seed, so pin it.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.exit(main())
