"""Contract tests for the ledger; run explicitly (not part of tier-1)::

    python -m pytest benchmarks/ledger -q

Two ``--quick`` ledgers (sizes / 10, one round) are run once per session:
the names they print must be exactly the ones ``BENCHMARK.json`` declares,
and every count that the logical clock makes exact must repeat.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
COUNT_UNITS = ("count", "steps", "ticks", "slots")
WALL_CLOCK = ("tcp_closed",)  # real timers: its counts vary run to run


@pytest.fixture(scope="session")
def declared():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="session")
def quick_runs(tmp_path_factory):
    """(stdout, ledger document) of two identical --quick invocations."""
    runs = []
    for i in range(2):
        path = tmp_path_factory.mktemp("ledger") / f"quick{i}.json"
        done = subprocess.run(
            [sys.executable, RUN, "--quick", "--json-out", str(path)],
            cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stdout
        with open(path) as handle:
            runs.append((done.stdout, json.load(handle)))
    return runs


def test_declaration_within_contract_limits(declared):
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = [
        spec["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for spec in declared[section]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in declared["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])


def test_printed_names_are_the_declared_names(declared, quick_runs):
    stdout, doc = quick_runs[0]
    assert list(doc["workloads"]) == [w["name"] for w in declared["workloads"]]
    for row in doc["workloads"].values():
        for section in ("end_to_end", "per_layer"):
            assert set(row[section]) == {
                m["name"] for m in declared[section]
            }
            for spec in declared[section]:
                assert row[section][spec["name"]]["unit"] == spec["unit"]
    # The text report names every workload and metric it aggregated; the
    # one extra line is failed_frac, carried by attempted/failed (a metric
    # that is 0 at seed cannot have a relative bound).
    printed = set(re.findall(r"^(?:==|  )\s*([A-Za-z0-9_.-]+)", stdout, re.M))
    known = {
        spec["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for spec in declared[section]
    }
    assert printed - {"metric", "per"} == known | {"failed_frac"}


def test_quick_ledger_is_correct(quick_runs):
    for _stdout, doc in quick_runs:
        for name, row in doc["workloads"].items():
            assert row["correct"] and row["failed_frac"] == 0, name
            for metric, summary in row["end_to_end"].items():
                assert summary["median"] > 0, (name, metric)


def test_exact_counts_repeat(declared, quick_runs):
    (_a, doc_a), (_b, doc_b) = quick_runs
    counted = [
        m["name"] for m in declared["per_layer"] if m["unit"] in COUNT_UNITS
    ]
    for name in doc_a["workloads"]:
        if name in WALL_CLOCK:
            continue
        row_a, row_b = doc_a["workloads"][name], doc_b["workloads"][name]
        assert (
            row_a["end_to_end"]["ksteps_per_cmd"]["values"]
            == row_b["end_to_end"]["ksteps_per_cmd"]["values"]
        ), name
        for metric in counted:
            assert (
                row_a["per_layer"][metric]["value"]
                == row_b["per_layer"][metric]["value"]
            ), (name, metric)


def test_compare_of_a_ledger_with_itself_is_clean(quick_runs, tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(quick_runs[0][1]))
    done = subprocess.run(
        [sys.executable, RUN, "--compare", str(path), str(path)],
        cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout
    assert "regressed" not in done.stdout
    assert "unresolved" not in done.stdout
