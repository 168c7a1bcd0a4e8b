"""Aggregation, printing and ``--compare`` for the ledger.

A ledger document (``--json-out``) holds, per workload, every end-to-end
metric as ``{unit, median, q1, q3, n, values}`` over the untraced rounds
and every per-layer metric as ``{unit, value}`` from the traced round.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, Iterable, List, Optional, Tuple

SCHEMA = "repro-ledger/1"

LOGICAL_SERVICE = ("burst_b1", "burst_b16", "closed_rw", "failover_n5")
EXACT_STEPS = LOGICAL_SERVICE + ("kernel_lanes", "extract_trie")

#: ``--compare`` gates beyond BENCHMARK.json's: counts that repeat exactly
#: for one seed get exact bounds there, which a driver comparing medians
#: over *different* seeds cannot use.  (metric, workloads, kind, bound,
#: better); ``rel`` is a share of A's median, ``abs`` is in the unit.
EXACT_GATES: Tuple[Tuple[str, Tuple[str, ...], str, float, str], ...] = (
    ("ksteps_per_cmd", EXACT_STEPS, "rel", 0.01, "lower"),
    ("load.commit_p50_ticks", LOGICAL_SERVICE, "abs", 1, "lower"),
    ("load.commit_p99_ticks", LOGICAL_SERVICE, "abs", 1, "lower"),
    ("load.outage_ticks", ("failover_n5",), "abs", 1, "lower"),
    ("batch.steps_per_s", ("kernel_lanes",), "rel", 0.10, "higher"),
    ("failed_frac", (), "abs", 0, "lower"),  # () = every workload
)


def summarize(values: List[float], unit: str) -> Dict[str, Any]:
    """Median, quartiles and n of one metric over the rounds."""
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "unit": unit,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": list(values),
    }


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e9:
        return str(int(value))
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.0f}"


def print_ledger(doc: Dict[str, Any], out) -> None:
    """Every metric by name with its unit: end-to-end per workload, then
    the per-layer table (rows metrics, columns workloads)."""
    names = list(doc["workloads"])
    print(
        f"ledger seed={doc['seed']} rounds={doc['repeats']} "
        f"seconds/run={doc['seconds']}"
        + ("  [quick: sizes / 10, no bounds]" if doc["quick"] else ""),
        file=out,
    )
    for name in names:
        row = doc["workloads"][name]
        print(f"\n== {name}: end to end (untraced rounds)", file=out)
        print(
            f"  {'metric':<22}{'unit':<8}{'median':>12}{'q1':>12}"
            f"{'q3':>12}{'n':>4}",
            file=out,
        )
        for metric, s in row["end_to_end"].items():
            print(
                f"  {metric:<22}{s['unit']:<8}{_fmt(s['median']):>12}"
                f"{_fmt(s['q1']):>12}{_fmt(s['q3']):>12}{s['n']:>4}",
                file=out,
            )
        print(
            f"  {'failed_frac':<22}{'fraction':<8}"
            f"{_fmt(row['failed_frac']):>12}"
            f"   ({row['failed']} of {row['attempted']} operations)"
            + ("" if row["correct"] else "   CHECKS FAILED"),
            file=out,
        )
    print("\n== per layer (traced round)", file=out)
    width = max(len(n) for n in names) + 2
    print(
        f"  {'metric':<26}{'unit':<8}"
        + "".join(f"{n:>{width}}" for n in names),
        file=out,
    )
    layer_names = list(doc["workloads"][names[0]]["per_layer"])
    for metric in layer_names:
        cells = [doc["workloads"][n]["per_layer"][metric] for n in names]
        print(
            f"  {metric:<26}{cells[0]['unit']:<8}"
            + "".join(f"{_fmt(c['value']):>{width}}" for c in cells),
            file=out,
        )


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------


def _spread(summary: Dict[str, Any]) -> float:
    median = abs(summary["median"])
    return (summary["q3"] - summary["q1"]) / median if median else 0.0


def _verdict(
    a: List[float], b: List[float], worse: float, bound: float,
    spread: float, better: str,
) -> str:
    """``worse`` and ``bound`` in the same terms (share or unit)."""
    sign = 1 if better == "lower" else -1
    all_worse = min(sign * v for v in b) > max(sign * v for v in a)
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    resolved = spread <= bound
    if worse > bound:
        return "regressed" if resolved or all_worse else "unresolved"
    return "ok" if resolved or all_better else "unresolved"


def _gates(name: str, declared: Dict[str, Any]) -> Dict[str, Tuple]:
    """metric -> (kind, bound, better) for one workload's row."""
    gates = {
        spec["name"]: ("rel", spec["bound"], spec["better"])
        for spec in declared["end_to_end"]
    }
    for metric, workloads, kind, bound, better in EXACT_GATES:
        if not workloads or name in workloads:
            gates[metric] = (kind, bound, better)
    return gates


def _cell(row: Dict[str, Any], metric: str) -> Dict[str, Any]:
    """A metric's summary, wherever the ledger document keeps it."""
    if metric in row["end_to_end"]:
        return row["end_to_end"][metric]
    if metric == "failed_frac":
        return summarize([row["failed_frac"]], "fraction")
    cell = row["per_layer"][metric]
    return summarize([cell["value"]], cell["unit"])


def _compare_rows(
    doc_a: Dict[str, Any], doc_b: Dict[str, Any], declared: Dict[str, Any]
) -> Iterable[Tuple[str, str, str, float, float, str, str, str]]:
    for name, row_a in doc_a["workloads"].items():
        row_b = doc_b["workloads"].get(name)
        if row_b is None:
            continue
        for metric, (kind, bound, better) in _gates(name, declared).items():
            a, b = _cell(row_a, metric), _cell(row_b, metric)
            sign = 1 if better == "lower" else -1
            worse = sign * (b["median"] - a["median"])
            if kind == "rel":
                base = abs(a["median"])
                worse = worse / base if base else 0.0
                spread = max(_spread(a), _spread(b))
                shown = f"{worse:+.1%} vs {bound:.0%}"
                spread_shown = f"{spread:.1%}"
            else:
                spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"])
                shown = f"{worse:+.4g} vs {bound:g} {a['unit']}"
                spread_shown = _fmt(spread)
            verdict = _verdict(
                a["values"], b["values"], worse, bound, spread, better
            )
            yield (name, metric, a["unit"], a["median"], b["median"],
                   shown, spread_shown, verdict)


def print_compare(
    doc_a: Dict[str, Any], doc_b: Dict[str, Any], declared: Dict[str, Any],
    out,
) -> int:
    """One line per (workload, metric): B's median against A's, the delta
    in the *worse* direction against the bound, and a verdict.  Returns
    the number of ``regressed`` lines."""
    if doc_a["quick"] or doc_b["quick"]:
        print("note: a --quick ledger has one round; spreads read 0",
              file=out)
    print(
        f"{'workload':<14}{'metric':<24}{'unit':<8}{'A':>11}{'B':>11}"
        f"  {'worse vs bound':<22}{'spread':>8}  verdict",
        file=out,
    )
    regressed = 0
    for name, metric, unit, a, b, shown, spread, verdict in _compare_rows(
        doc_a, doc_b, declared
    ):
        regressed += verdict == "regressed"
        print(
            f"{name:<14}{metric:<24}{unit:<8}{_fmt(a):>11}{_fmt(b):>11}"
            f"  {shown:<22}{spread:>8}  {verdict}",
            file=out,
        )
    return regressed


def validate_names(
    declared: Dict[str, Any], produced: Iterable[str], section: str
) -> Optional[str]:
    """The produced metric names must be exactly the declared ones."""
    want = {spec["name"] for spec in declared[section]}
    got = set(produced)
    if want == got:
        return None
    return (
        f"{section}: missing {sorted(want - got)}, "
        f"undeclared {sorted(got - want)}"
    )
