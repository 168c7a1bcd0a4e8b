"""The committed EXP tables are what the experiments' full parameters print.

``python -m repro experiment expN > benchmarks/results/exp-N.txt``
regenerates each reference table from its row of ``EXPERIMENTS``; this test
runs every row in-process and requires the rendered table to match the
committed file byte for byte.  Each table must also carry the verdict the
paper predicts, so a regenerated file cannot quietly commit a failure.
"""

import os

import pytest

from repro.harness.experiments import EXPERIMENTS

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
RESULTS = os.path.join(REPO_ROOT, "benchmarks", "results")


def _exp1(row):
    assert row[4] == "yes", row  # agreement_ok
    assert row[2] == row[3], row  # every run decided


def _exp2(row):
    assert row[3] == "yes", row  # all_valid


def _exp3(row):
    assert row[3] == "yes", row  # sigma_nu_ok
    assert row[4] == "yes", row  # sigma_ok (Thm 5.8)


def _exp4(row):
    if row[2] == "yes":  # t < n/2
        assert row[3] == "yes", row  # from-scratch Sigma valid
    else:
        assert "VIOLATED" in row[4], row  # the adversary wins


def _exp5(row):
    algorithm, violated, history_valid = row[0], row[3], row[4]
    assert history_valid == "yes", row
    assert violated == ("yes" if algorithm == "naive" else "no"), row


def _exp6(row):
    assert row[3] == "yes" and row[4] == "yes", row  # merged run, states


def _exp7(row):
    assert row[5] == "1.00", row  # decided_rate


def _exp8(row):
    assert row[4] == "yes", row  # agreement_ok
    assert row[2] == row[3], row  # every run decided


def _exp9(row):
    arm, atomic = row[0], row[3]
    sigma_arm = arm.startswith("Sigma /") or arm.startswith("Sigma control")
    assert atomic == ("yes" if sigma_arm else "no"), row


VERDICTS = {
    "exp1": _exp1,
    "exp2": _exp2,
    "exp3": _exp3,
    "exp4": _exp4,
    "exp5": _exp5,
    "exp6": _exp6,
    "exp7": _exp7,
    "exp8": _exp8,
    "exp9": _exp9,
}

#: Experiments that take more than a couple of seconds run under ``-m slow``.
SLOW = {"exp3"}


@pytest.mark.parametrize(
    "experiment",
    [
        pytest.param(name, marks=pytest.mark.slow) if name in SLOW else name
        for name in EXPERIMENTS
    ],
)
def test_spec_regenerates_committed_table(experiment):
    table = EXPERIMENTS[experiment].run()
    for row in table.rows:
        VERDICTS[experiment](row)
    committed = os.path.join(RESULTS, f"exp-{experiment[len('exp'):]}.txt")
    with open(committed) as fh:
        assert table.render() + "\n" == fh.read()
