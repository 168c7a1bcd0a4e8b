#!/usr/bin/env python3
"""Quickstart: solve nonuniform consensus with A_nuc and (Omega, Sigma^nu+).

Builds a 4-process system in which process 3 crashes at time 20, samples a
valid (Omega, Sigma^nu+) history, runs the paper's A_nuc algorithm (Figs.
4-5) and checks the outcome against the nonuniform consensus properties.

Run:  python examples/quickstart.py
"""

import random

from repro import (
    AnucAutomaton,
    AutomatonProcess,
    FailurePattern,
    Omega,
    PairedDetector,
    SigmaNuPlus,
    System,
    check_nonuniform_consensus,
    consensus_outcome,
)


def main() -> None:
    n = 4
    pattern = FailurePattern(n, {3: 20})  # process 3 crashes at time 20
    proposals = {0: "apple", 1: "banana", 2: "cherry", 3: "durian"}

    detector = PairedDetector(Omega(), SigmaNuPlus())
    history = detector.sample_history(pattern, random.Random(42))

    processes = {
        p: AutomatonProcess(AnucAutomaton(), proposals[p]) for p in range(n)
    }
    system = System(processes, pattern, history, seed=42)
    result = system.run(
        max_steps=20000, stop_when=lambda s: s.all_correct_decided()
    )

    print(f"pattern      : {pattern}")
    print(f"proposals    : {proposals}")
    print(f"decisions    : {result.decisions}")
    print(f"decided at   : {result.decision_times}")
    print(f"steps taken  : {result.step_count}")
    print(f"messages     : {result.messages_sent} sent, "
          f"{result.messages_delivered} delivered")

    report = check_nonuniform_consensus(consensus_outcome(result, proposals))
    print(f"verdict      : {report}")
    if not report.ok:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
