"""CLI bodies for ``repro sweep`` and ``repro store {ls,gc,diff}``.

Thin veneers over :mod:`repro.harness.spec` and :mod:`repro.store.store`;
argument registration lives in :mod:`repro.cli` next to the other
subcommands.  Usage documentation: ``docs/sweeps.md``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Any, Dict, List, Optional

from repro.store.store import ResultStore, default_store_root


def _open_store(args) -> ResultStore:
    return ResultStore(getattr(args, "store_dir", None) or default_store_root())


def _stats_line(store: ResultStore) -> str:
    stats = store.stats
    rate = f"{100.0 * stats.hit_rate:.1f}%" if stats.lookups else "n/a"
    return (
        f"store: {stats.hits} hit(s), {stats.misses} miss(es), "
        f"{stats.invalidated} invalidated, {stats.skipped} unstorable, "
        f"{stats.writes} written (hit rate {rate})"
    )


def cmd_sweep(args) -> int:
    """Run the spec file's sweep(s) through the store; print the tables."""
    from repro.harness.spec import SpecError, load_specs

    try:
        specs = load_specs(args.spec)
    except (OSError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    store: Optional[ResultStore] = None if args.no_store else _open_store(args)
    sections: List[str] = []
    spec_names: List[str] = []
    for spec in specs:
        table = spec.run(jobs=args.jobs, store=store)
        sections.append(table.render())
        spec_names.append(spec.name or spec.experiment)
    rendered = "\n\n".join(sections) + "\n"
    sys.stdout.write(rendered)

    if args.output:
        with open(args.output, "w") as fh:
            fh.write(rendered)
        print(f"(table written to {args.output})")

    stats: Dict[str, Any] = {
        "spec": args.spec,
        "sweeps": spec_names,
        "jobs": args.jobs,
        "store": None if store is None else store.root,
        "table_sha256": hashlib.sha256(rendered.encode("utf-8")).hexdigest(),
    }
    if store is not None:
        print(_stats_line(store))
        stats.update(store.stats.as_dict())
        stats["hit_rate"] = store.stats.hit_rate
    if args.stats_json:
        with open(args.stats_json, "w") as fh:
            json.dump(stats, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"(stats written to {args.stats_json})")

    if args.require_warm is not None:
        if store is None:
            print("error: --require-warm needs the store", file=sys.stderr)
            return 2
        if store.stats.hit_rate < args.require_warm:
            print(
                f"warm-cache requirement failed: hit rate "
                f"{store.stats.hit_rate:.3f} < {args.require_warm:.3f}",
                file=sys.stderr,
            )
            return 1
    return 0


def cmd_store(args) -> int:
    action = args.action
    if action == "ls":
        return _store_ls(args)
    if action == "gc":
        return _store_gc(args)
    if action == "diff":
        if not getattr(args, "spec", None):
            print("error: 'store diff' needs a spec file", file=sys.stderr)
            return 2
        return _store_diff(args)
    raise SystemExit(f"unknown store action {action!r}")  # pragma: no cover


def _store_ls(args) -> int:
    store = _open_store(args)
    objects = store.ls()
    if args.json:
        json.dump(
            {"root": store.root, "objects": objects},
            sys.stdout,
            indent=2,
            sort_keys=True,
        )
        sys.stdout.write("\n")
        return 0
    print(f"store: {store.root}")
    print(f"objects: {len(objects)} record(s)")
    for entry in objects:
        print(
            f"  {entry['config_digest'][:12]} sig={entry['code_signature'][:12]} "
            f"{entry['fn']} {entry['bytes']}B {entry['created_at']}"
        )
    return 0


def _store_gc(args) -> int:
    store = _open_store(args)
    summary = store.gc(mode="all" if args.all else "stale", dry_run=args.dry_run)
    verb = "would remove" if summary["dry_run"] else "removed"
    print(
        f"gc[{summary['mode']}]: {verb} {len(summary['removed'])} record(s), "
        f"kept {summary['kept']}, {summary['bytes_freed']}B freed"
    )
    if args.verbose:
        for path in summary["removed"]:
            print(f"  - {path}")
    return 0


def _store_diff(args) -> int:
    """What a sweep over SPEC would re-run right now (no execution)."""
    from repro.harness.parallel import SweepTask
    from repro.harness.spec import SpecError, load_specs

    try:
        specs = load_specs(args.spec)
    except (OSError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    store = _open_store(args)

    # Expand each spec's tasks without running them: intercept run_sweep
    # at both its definition site and the experiments module's imported
    # name (the sweeps call the bare name).
    from repro.harness import experiments, parallel

    captured: List[SweepTask] = []
    originals = (parallel.run_sweep, experiments.run_sweep)

    def _capture(tasks, **kwargs):
        captured.extend(list(tasks))
        raise _DiffDone()

    with_counters = bool(getattr(args, "counters", False))
    per_spec: List[Dict[str, Any]] = []
    for spec in specs:
        captured.clear()
        parallel.run_sweep = _capture  # type: ignore[assignment]
        experiments.run_sweep = _capture  # type: ignore[assignment]
        try:
            spec.run(jobs=1)
        except _DiffDone:
            pass
        finally:
            parallel.run_sweep, experiments.run_sweep = originals
        diff = store.diff_tasks(
            [(t.fn, t.kwargs) for t in captured],
            with_telemetry=with_counters,
        )
        per_spec.append({"sweep": spec.name, **diff})

    if args.json:
        json.dump(
            {"spec": args.spec, "store": store.root, "sweeps": per_spec},
            sys.stdout,
            indent=2,
            sort_keys=True,
        )
        sys.stdout.write("\n")
        return 0
    would_run = 0
    for entry in per_spec:
        counts = entry["counts"]
        would_run += counts["miss"] + counts["invalidated"] + counts["unstorable"]
        print(
            f"{entry['sweep']}: {counts['hit']} cached, {counts['miss']} new, "
            f"{counts['invalidated']} invalidated by code changes, "
            f"{counts['unstorable']} unstorable"
        )
        if with_counters:
            _print_counter_deltas(entry)
    print(f"a sweep now would execute {would_run} task(s)")
    return 0


def _print_counter_deltas(entry: Dict[str, Any]) -> None:
    """Summed per-counter work deltas of one sweep's telemetry rows.

    ``current - previous`` over every row that carries telemetry under
    both the current and a displaced code signature, so the number reads
    "how much more (or less) deterministic work the new code does on the
    rows it already ran".  Rows without stored telemetry (untraced
    sweeps, fresh rows) are counted but contribute nothing.
    """
    current: Dict[str, int] = {}
    previous: Dict[str, int] = {}
    compared = 0
    for row in entry.get("tasks", []):
        now = (row.get("telemetry") or {}).get("counters")
        then = (row.get("previous_telemetry") or {}).get("counters")
        if not (now and then):
            continue
        compared += 1
        for name, value in now.items():
            current[name] = current.get(name, 0) + int(value)
        for name, value in then.items():
            previous[name] = previous.get(name, 0) + int(value)
    if not compared:
        print("  counters: no rows carry telemetry under both signatures")
        return
    deltas = sorted(
        (
            (name, current.get(name, 0), previous.get(name, 0))
            for name in set(current) | set(previous)
            if current.get(name, 0) != previous.get(name, 0)
        ),
        key=lambda item: (-abs(item[1] - item[2]), item[0]),
    )
    if not deltas:
        print(f"  counters: identical across {compared} telemetry row(s)")
        return
    print(f"  counter deltas over {compared} telemetry row(s) (now - then):")
    for name, now_total, then_total in deltas[:12]:
        print(
            f"    {name:<32} {then_total} -> {now_total} "
            f"({now_total - then_total:+d})"
        )


class _DiffDone(Exception):
    """Internal: stop an experiment after its tasks were captured."""
