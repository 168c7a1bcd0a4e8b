"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``consensus``      run A_nuc (or the full (Ω, Σν) stack) on a configurable
                   system and print decisions, verdicts and optionally a
                   step transcript
``experiment``     run one of the EXP-1..EXP-9 sweeps and print its table
                   (the committed ``benchmarks/results/exp-N.txt``)
``sweep``          run a CSV sweep spec (rows override an experiment's
                   parameters) and print its table(s)
``contamination``  play the Section 6.3 scenario against naive / A_nuc
``adversary``      run the Theorem 7.1 partition adversary for (n, t)
``extract``        run the necessity transformation T_{D -> Σν} and report
                   the emitted quorums and checker verdicts
``reproduce``      run all nine experiments and print one combined report
                   of the committed tables
``trace``          inspect a JSONL trace written by ``--trace-out``
                   (timeline, per-path aggregates, counter totals);
                   ``trace diff A B`` attributes tick/wall deltas per
                   span path, ``trace flame FILE`` draws an ASCII
                   flamegraph
``lint``           run the determinism & model-fidelity static analysis
                   (rule catalog in docs/linting.md)
``chaos``          run the fault-injection matrix, fuzz single configs, or
                   replay a shrunk ``repro-counterexample/1`` artifact
``serve``          run the consensus service against wall clocks with a
                   newline-JSON TCP front (production mode)
``load``           play a seeded load spec against an in-process service
                   on the logical clock; print latency/throughput report

Every command is a thin veneer over the public library API; the CLI exists
so the reproduction can be poked without writing Python.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Dict, List, Optional, Sequence

from contextlib import contextmanager

from repro.analysis.trace import decision_summary, transcript
from repro.kernel.failures import FailurePattern


@contextmanager
def _maybe_traced(args, label: str):
    """Trace the command body into ``args.trace_out`` when requested."""
    trace_out = getattr(args, "trace_out", None)
    if not trace_out:
        yield
        return
    from repro import obs
    from repro.obs.export import environment_stamp, write_trace

    tracer = obs.enable(label=label)
    try:
        yield
    finally:
        obs.disable()
        count = write_trace(
            trace_out,
            tracer,
            # Export-time read after obs.disable(); not a hot-path write.
            registry=obs.metrics(),  # repro: noqa RPR301 -- trace export runs once, after tracing ends
            meta={"command": label, "environment": environment_stamp()},
        )
        print(f"(trace: {count} records -> {trace_out})")


def _parse_crashes(items: Sequence[str]) -> Dict[int, int]:
    crashes: Dict[int, int] = {}
    for item in items:
        try:
            pid_text, time_text = item.split(":", 1)
            crashes[int(pid_text)] = int(time_text)
        except ValueError as exc:
            raise SystemExit(
                f"bad --crash {item!r}: expected '<pid>:<time>'"
            ) from exc
    return crashes


def _pattern_from_args(args) -> FailurePattern:
    return FailurePattern(args.n, _parse_crashes(args.crash))


def cmd_consensus(args) -> int:
    from repro.consensus import check_nonuniform_consensus, consensus_outcome
    from repro.harness.runner import run_nuc, run_stack

    pattern = _pattern_from_args(args)
    rng = random.Random(args.seed)
    proposals = {p: rng.choice(args.values) for p in range(args.n)}
    if args.algorithm == "stack":
        outcome = run_stack(pattern, proposals, seed=args.seed)
    else:
        outcome = run_nuc(pattern, proposals, seed=args.seed)
    print(f"pattern   : {pattern}")
    print(f"proposals : {proposals}")
    print(decision_summary(outcome.result))
    print(f"verdict   : {outcome.nonuniform}")
    if args.algorithm == "stack":
        print(f"emulated Sigma^nu+ : {outcome.boosted_check}")
    if args.transcript:
        print("\n--- transcript (first steps) ---")
        print(transcript(outcome.result, limit=args.transcript))
    return 0 if outcome.nonuniform.ok else 1


def cmd_experiment(args) -> int:
    from repro.harness.experiments import EXPERIMENTS

    with _maybe_traced(args, f"experiment:{args.name}"):
        table = EXPERIMENTS[args.name].run(quick=args.quick, jobs=args.jobs)
    print(table.render())
    return 0


def cmd_sweep(args) -> int:
    """Run the spec file's sweep(s) and print the rendered tables."""
    from repro.harness.spec import SpecError, load_specs

    try:
        specs = load_specs(args.spec)
    except (OSError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rendered = (
        "\n\n".join(spec.run(jobs=args.jobs).render() for spec in specs) + "\n"
    )
    sys.stdout.write(rendered)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(rendered)
        print(f"(table written to {args.output})")
    return 0


def cmd_contamination(args) -> int:
    from repro.separation.contamination import run_contamination_scenario

    report = run_contamination_scenario(args.algorithm, seed=args.seed)
    print(f"algorithm  : {report.algorithm}")
    print(f"decisions  : {report.decisions}")
    print(f"agreement  : {report.agreement}")
    print(f"crash of 2 : t={report.crash_time}")
    print(
        f"history ok : omega={bool(report.omega_check)} "
        f"sigma={bool(report.sigma_check)}"
    )
    if report.distrust_events:
        print(f"distrusts  : {len(report.distrust_events)} events")
    expected = (args.algorithm == "naive") == report.contaminated
    print(
        "outcome    : "
        + ("CONTAMINATED" if report.contaminated else "safe")
        + (" (as the paper predicts)" if expected else " (UNEXPECTED)")
    )
    return 0 if expected else 1


def cmd_adversary(args) -> int:
    from repro.separation.adversary import run_partition_adversary
    from repro.separation.from_scratch_sigma import FromScratchSigma

    n, t = args.n, args.t
    verdict = run_partition_adversary(
        lambda pid: FromScratchSigma(n, t), n, t, seed=args.seed
    )
    print(verdict)
    if verdict.a_quorum is not None and verdict.b_quorum is not None:
        print(
            f"  A' = {sorted(verdict.a_quorum)} at p{verdict.a_process} "
            f"(tau={verdict.tau}); B' = {sorted(verdict.b_quorum)} "
            f"at p{verdict.b_process}"
        )
    expected = verdict.violated == (t >= n / 2)
    return 0 if expected else 1


def cmd_extract(args) -> int:
    from repro.consensus import QuorumMR
    from repro.detectors import Omega, PairedDetector, Sigma
    from repro.harness.runner import run_extraction

    pattern = _pattern_from_args(args)
    detector = PairedDetector(Omega(), Sigma("pivot"))
    with _maybe_traced(args, "extract"):
        outcome = run_extraction(QuorumMR(), detector, pattern, seed=args.seed)
    print(f"pattern : {pattern}")
    for p in range(args.n):
        quorums = [sorted(q) for _, q in outcome.result.outputs[p]]
        print(f"  p{p}: {quorums[:8]}" + (" ..." if len(quorums) > 8 else ""))
    print(f"Sigma^nu (Thm 5.4): {outcome.sigma_nu_check}")
    print(f"Sigma    (Thm 5.8): {outcome.sigma_check}")
    return 0 if outcome.sigma_nu_check.ok else 1


def cmd_reproduce(args) -> int:
    from repro.harness.experiments import EXPERIMENTS

    sections = []
    for experiment in EXPERIMENTS.values():
        print(f"running {experiment.label} ...", flush=True)
        sections.append(experiment.run(quick=args.quick, jobs=args.jobs).render())
    report = (
        "REPRODUCTION REPORT\n"
        "The weakest failure detector to solve nonuniform consensus\n"
        "(Eisler, Hadzilacos, Toueg; PODC 2005)\n"
        + "=" * 70 + "\n\n"
        + "\n\n".join(sections)
        + "\n"
    )
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(report)
    print()
    print(report)
    if args.output:
        print(f"(written to {args.output})")
    return 0


def _read_validated_trace(path: str, force: bool):
    """Parse + schema-check one trace; ``None`` signals a fatal error."""
    from repro.obs.export import read_trace, validate_trace

    records = read_trace(path)
    errors = validate_trace(records)
    if errors:
        print(f"{path}: invalid trace, {len(errors)} schema error(s)")
        for error in errors:
            print(f"  - {error}")
        if not force:
            return None
    return records


def cmd_trace(args) -> int:
    """Dispatch ``repro trace [diff|flame] ...``.

    The positional grammar keeps the original ``repro trace FILE`` form
    working: a target that is not a subaction is treated as the file to
    render.
    """
    if args.target == "diff":
        return _trace_diff(args)
    if args.target == "flame":
        return _trace_flame(args)
    if args.rest:
        raise SystemExit(
            f"unexpected extra argument(s) {args.rest!r}; usage: "
            f"repro trace FILE | repro trace diff A B | repro trace flame FILE"
        )
    from repro.obs.analyze import render_trace

    records = _read_validated_trace(args.target, args.force)
    if records is None:
        return 1
    print(
        render_trace(
            records,
            top=args.top,
            width=args.width,
            max_rows=args.max_rows,
            timeline=not args.no_timeline,
        )
    )
    return 0


def _trace_diff(args) -> int:
    """``repro trace diff A B`` — per-span-path attribution of deltas."""
    from repro.obs.analyze import diff_traces, render_diff

    if len(args.rest) != 2:
        raise SystemExit("usage: repro trace diff TRACE_A TRACE_B")
    a_records = _read_validated_trace(args.rest[0], args.force)
    b_records = _read_validated_trace(args.rest[1], args.force)
    if a_records is None or b_records is None:
        return 1
    diff = diff_traces(
        a_records,
        b_records,
        wall_tol_ms=args.tolerance_ms,
        wall_rel_tol=args.rel_tolerance,
    )
    print(render_diff(diff, top=args.top, show_all=args.all))
    if args.expect_equal_ticks and not diff.tick_exact:
        print(
            "\nFAIL: logical-tick deltas found between traces that were "
            "expected identical (nondeterminism or a changed workload)"
        )
        return 1
    return 0


def _trace_flame(args) -> int:
    """``repro trace flame FILE`` — ASCII flamegraph over span paths."""
    from repro.obs.analyze import render_flame

    if len(args.rest) != 1:
        raise SystemExit("usage: repro trace flame TRACE")
    records = _read_validated_trace(args.rest[0], args.force)
    if records is None:
        return 1
    print(
        render_flame(
            records,
            width=args.width,
            by=args.by,
            max_rows=args.max_rows,
        )
    )
    return 0


def cmd_lint(args) -> int:
    from repro.lint.cli import cmd_lint as run

    return run(args)


def _print_matrix_verdict(verdict) -> None:
    status = "ok " if verdict.ok else "FAIL"
    found = ",".join(sorted(verdict.found)) or "-"
    expected = ",".join(sorted(verdict.expected)) or "-"
    print(
        f"  {status} {verdict.config:<22} found={found:<42} "
        f"expected={expected} cases={verdict.cases}"
    )
    if not verdict.ok and verdict.sample:
        print(f"       sample: {verdict.sample}")


def cmd_chaos(args) -> int:
    from repro.chaos import CONFIGS

    if args.replay:
        from repro.chaos import load_counterexample, replay_counterexample

        try:
            document = load_counterexample(args.replay)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if document["config"] not in CONFIGS:
            print(f"error: unknown chaos config {document['config']!r}",
                  file=sys.stderr)
            return 2
        with _maybe_traced(args, "chaos:replay"):
            reproduced, outcome, document = replay_counterexample(document)
        print(f"artifact : {args.replay}")
        print(f"config   : {document['config']}")
        print(f"property : {document['property']}")
        print(f"recorded : {document['message']}")
        if reproduced:
            live = next(
                v
                for v in outcome.violations
                if v.property == document["property"]
            )
            print(f"replayed : {live.message}")
            print(f"verdict  : reproduced in {outcome.steps} steps")
            return 0
        print("verdict  : NOT reproduced (checkers accepted the replay)")
        return 1

    if args.list:
        for name, config in CONFIGS.items():
            tag = "injected" if config.injector else "honest"
            print(f"  {name:<22} [{tag}] {config.description}")
        return 0

    names = args.config or None
    if names:
        unknown = [name for name in names if name not in CONFIGS]
        if unknown:
            raise SystemExit(
                f"unknown chaos config(s) {unknown}; "
                f"see 'python -m repro chaos --list'"
            )

    from repro.chaos.matrix import run_matrix

    with _maybe_traced(args, "chaos:matrix"):
        report = run_matrix(
            seed=args.seed,
            budget=args.budget,
            jobs=args.jobs,
            shrink=args.shrink,
            names=names,
        )
    print(f"chaos injection matrix (seed={report.seed})")
    for verdict in report.verdicts:
        _print_matrix_verdict(verdict)
        if verdict.shrink is not None:
            result = verdict.shrink
            print(
                f"       shrunk: {len(result.script)}-step script "
                f"(from {result.original_schedule_len}), "
                f"{result.evaluations} evaluations"
            )
            if args.out:
                from pathlib import Path

                from repro.chaos import save_counterexample

                path = (
                    Path(args.out)
                    / f"{verdict.config}-{result.property.replace(' ', '-')}"
                    f"-seed{report.seed}.json"
                )
                save_counterexample(result, path)
                print(f"       saved : {path}")
    print("matrix exact" if report.ok else "matrix NOT exact")
    return 0 if report.ok else 1


def _service_config(args):
    """The ``ServiceConfig`` that ``serve`` and ``load`` share."""
    from repro.service import ServiceConfig

    return ServiceConfig(
        n=args.n,
        seed=args.seed,
        batch_size=args.batch_size,
        queue_depth=args.queue_depth,
        crash_times=_parse_crashes(args.crash),
    )


def cmd_serve(args) -> int:
    """Run the service on wall clocks behind the TCP front."""
    import asyncio

    from repro.service import ConsensusService, TickClock
    from repro.service.net import serve_tcp

    config = _service_config(args)

    async def main() -> None:
        loop = asyncio.get_running_loop()
        service = ConsensusService(config, TickClock(loop))
        service.start()
        server = await serve_tcp(service, args.host, args.port)
        host, port = server.sockets[0].getsockname()[:2]
        print(
            f"consensus service on {host}:{port} "
            f"(n={config.n}, batch={config.batch_size})",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            server.close()
            await service.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("\n(service stopped)")
    return 0


def cmd_load(args) -> int:
    """Seeded load against an in-process service on the logical clock."""
    from repro.harness.load import LoadSpec, run_service_load

    config = _service_config(args)
    spec = LoadSpec(
        mode=args.mode,
        clients=args.clients,
        commands=args.commands,
        arrival_every=args.arrival_every,
        think_ticks=args.think_ticks,
        seed=args.seed,
    )
    with _maybe_traced(args, "service:load"):
        report, service = run_service_load(
            config, spec, read_every=args.read_every
        )
    row = report.to_row()
    print(
        f"service load report (n={config.n}, batch={config.batch_size}, "
        f"mode={spec.mode}, seed={spec.seed})"
    )
    for key in (
        "submitted",
        "committed",
        "shed",
        "timed_out",
        "batches",
        "ticks",
        "kernel_steps",
        "commands_per_kstep",
        "latency_p50_ticks",
        "latency_p99_ticks",
        "latency_max_ticks",
        "wall_seconds",
    ):
        print(f"  {key:<20}: {row[key]}")
    print(f"  applied_digest      : {row['applied_digest'][:16]}…")
    invariants = service.invariants
    print(
        "  invariants          : "
        + ("ok" if invariants.ok else f"FAIL {invariants.violations[:2]}")
    )
    if args.json_out:
        import json

        with open(args.json_out, "w") as fh:
            json.dump(row, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"(report written to {args.json_out})")
    return 0 if invariants.ok and report.timed_out == 0 else 1


#: Options several commands share, declared once (see :func:`_add_shared`).
_SHARED_OPTIONS = {
    "--n": dict(type=int),
    "--seed": dict(type=int, default=0),
    "--crash": dict(
        action="append",
        default=[],
        metavar="PID:TIME",
        help="crash a process at a time (repeatable)",
    ),
    "--jobs": dict(
        type=int,
        default=1,
        metavar="N",
        help="worker processes (default 1 = serial; results are identical "
        "for every N)",
    ),
    "--trace-out": dict(
        default=None,
        metavar="FILE",
        help="write a repro-trace/2 JSONL trace of the run "
        "(inspect with 'repro trace FILE')",
    ),
    "--quick": dict(action="store_true", help="small parameterization"),
    "--batch-size": dict(type=int, default=4),
    "--queue-depth": dict(type=int, default=64),
}


#: The flags of :func:`_service_config`, which ``serve`` and ``load`` share.
_SERVICE_FLAGS = ("--n", "--seed", "--batch-size", "--queue-depth", "--crash")


def _add_shared(parser, *flags: str, n: int = 3) -> None:
    """Add the shared options ``flags``; ``n`` is the default of ``--n``."""
    for flag in flags:
        extra = {"default": n} if flag == "--n" else {}
        parser.add_argument(flag, **_SHARED_OPTIONS[flag], **extra)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Executable reproduction of 'The weakest failure detector to "
            "solve nonuniform consensus' (Eisler, Hadzilacos, Toueg)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    consensus = sub.add_parser(
        "consensus", help="run A_nuc or the full (Omega, Sigma^nu) stack"
    )
    _add_shared(consensus, "--n", "--crash", "--seed", n=4)
    consensus.add_argument(
        "--algorithm", choices=["anuc", "stack"], default="anuc"
    )
    consensus.add_argument(
        "--values", nargs="+", default=["red", "blue"], help="proposal pool"
    )
    consensus.add_argument(
        "--transcript",
        type=int,
        default=0,
        metavar="N",
        help="print the first N transcript lines",
    )
    consensus.set_defaults(func=cmd_consensus)

    experiment = sub.add_parser("experiment", help="run an EXP-1..EXP-9 sweep")
    experiment.add_argument(
        "name", choices=[f"exp{i}" for i in range(1, 10)]
    )
    _add_shared(experiment, "--quick", "--jobs", "--trace-out")
    experiment.set_defaults(func=cmd_experiment)

    sweep = sub.add_parser(
        "sweep", help="run a CSV sweep spec; print its table(s)"
    )
    sweep.add_argument(
        "spec", help="sweep spec file (.csv; rows override an experiment's "
        "full parameters)"
    )
    _add_shared(sweep, "--jobs")
    sweep.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="also write the rendered table(s) to FILE",
    )
    sweep.set_defaults(func=cmd_sweep)

    contamination = sub.add_parser(
        "contamination", help="the Section 6.3 scenario"
    )
    contamination.add_argument(
        "algorithm", choices=["naive", "anuc"], nargs="?", default="naive"
    )
    _add_shared(contamination, "--seed")
    contamination.set_defaults(func=cmd_contamination)

    adversary = sub.add_parser(
        "adversary", help="the Theorem 7.1 partition adversary"
    )
    _add_shared(adversary, "--n", "--seed", n=4)
    adversary.add_argument("--t", type=int, default=2)
    adversary.set_defaults(func=cmd_adversary)

    extract = sub.add_parser(
        "extract", help="run T_{D -> Sigma^nu} over (Omega, Sigma)/quorum-MR"
    )
    _add_shared(extract, "--n", "--crash", "--seed", "--trace-out")
    extract.set_defaults(func=cmd_extract)

    reproduce = sub.add_parser(
        "reproduce", help="run all nine experiments; print one report"
    )
    _add_shared(reproduce, "--quick", "--jobs")
    reproduce.add_argument(
        "--output", default=None, metavar="FILE", help="also write the report"
    )
    reproduce.set_defaults(func=cmd_reproduce)

    trace = sub.add_parser(
        "trace",
        help="inspect (FILE), compare (diff A B) or flame (flame FILE) "
        "JSONL traces written by --trace-out",
    )
    trace.add_argument(
        "target",
        help="a repro-trace/2 JSONL file, or the subaction "
        "'diff' / 'flame'",
    )
    trace.add_argument(
        "rest",
        nargs="*",
        help="trace file(s) for 'diff' (two) and 'flame' (one)",
    )
    trace.add_argument(
        "--top", type=int, default=12, metavar="N",
        help="rows in the aggregate / diff tables (by self ticks)",
    )
    trace.add_argument(
        "--width", type=int, default=64, metavar="COLS",
        help="timeline / flamegraph bar width in columns",
    )
    trace.add_argument(
        "--max-rows", type=int, default=40, metavar="N",
        help="maximum timeline/flamegraph rows before truncation",
    )
    trace.add_argument(
        "--no-timeline", action="store_true", help="skip the ASCII timeline"
    )
    trace.add_argument(
        "--force", action="store_true",
        help="render even if schema validation fails",
    )
    trace.add_argument(
        "--tolerance-ms", type=float, default=5.0, metavar="MS",
        help="diff: absolute wall-clock noise floor per span path",
    )
    trace.add_argument(
        "--rel-tolerance", type=float, default=0.25, metavar="FRAC",
        help="diff: relative wall-clock noise floor (fraction of the "
        "larger side)",
    )
    trace.add_argument(
        "--expect-equal-ticks", action="store_true",
        help="diff: exit 1 on any logical-tick delta (same-seed "
        "determinism check)",
    )
    trace.add_argument(
        "--all", action="store_true",
        help="diff: list every compared path, not just significant ones",
    )
    trace.add_argument(
        "--by", choices=["ticks", "wall"], default=None,
        help="flame: weight axis (default: ticks, falling back to wall "
        "when the trace has no tick extent)",
    )
    trace.set_defaults(func=cmd_trace)

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection matrix / schedule fuzzing / replay",
    )
    _add_shared(chaos, "--seed", "--jobs", "--trace-out")
    chaos.add_argument(
        "--budget",
        type=int,
        default=None,
        help="per-config step budget override",
    )
    chaos.add_argument(
        "--config",
        action="append",
        default=[],
        help="restrict to named config(s); repeatable",
    )
    chaos.add_argument(
        "--replay",
        default=None,
        metavar="ARTIFACT",
        help="replay a repro-counterexample/1 JSON artifact (exit 0: "
        "reproduced, 1: not reproduced, 2: unreadable or malformed)",
    )
    chaos.add_argument(
        "--shrink",
        action="store_true",
        help="shrink each primary violation to a minimal scripted prefix",
    )
    chaos.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="directory for shrunk counterexample artifacts",
    )
    chaos.add_argument(
        "--list", action="store_true", help="list matrix configs and exit"
    )
    chaos.set_defaults(func=cmd_chaos)

    serve = sub.add_parser(
        "serve",
        help="run the consensus service (wall clock, newline-JSON TCP)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7707)
    _add_shared(serve, *_SERVICE_FLAGS)
    serve.set_defaults(func=cmd_serve)

    load = sub.add_parser(
        "load",
        help="seeded load against an in-process service (logical clock)",
    )
    _add_shared(load, *_SERVICE_FLAGS, "--trace-out")
    load.add_argument(
        "--mode",
        choices=["open", "closed"],
        default="open",
        help="open: rate-driven arrivals (shed on backpressure); "
        "closed: commit-driven clients with think time",
    )
    load.add_argument("--clients", type=int, default=8)
    load.add_argument("--commands", type=int, default=64)
    load.add_argument(
        "--arrival-every",
        type=int,
        default=2,
        metavar="TICKS",
        help="open loop: mean ticks between arrivals (0 = burst)",
    )
    load.add_argument(
        "--think-ticks", type=int, default=1, metavar="TICKS",
        help="closed loop: ticks between a commit and the next send",
    )
    load.add_argument(
        "--read-every", type=int, default=0, metavar="N",
        help="issue a certified read every N commits (0 = never)",
    )
    load.add_argument(
        "--json-out", default=None, metavar="FILE",
        help="also write the report row as JSON",
    )
    load.set_defaults(func=cmd_load)

    lint = sub.add_parser(
        "lint",
        help="determinism & model-fidelity static analysis (RPR rules)",
    )
    from repro.lint.cli import add_arguments as add_lint_arguments

    add_lint_arguments(lint)
    lint.set_defaults(func=cmd_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
