#!/usr/bin/env python3
"""Inside the necessity proof: DAGs of samples and simulated schedules.

Runs A_DAG (Fig. 1) live over (Omega, Sigma), then walks the machinery of
Section 4:

* the DAG's compact frontier representation and its order-theoretic facts
  (Observations 4.1-4.4);
* a path through the DAG and the canonical simulated schedule it induces
  (the Lemma 4.10 construction, through the simulation trie the extraction
  uses): quorum-MR, simulated step by step, decides;
* the formal payoff (Lemma 4.9): the simulated schedule paired with the
  samples' tau-times validates as a *run* of the algorithm using the
  detector — checked with the independent run validator.

Run:  python examples/dag_explorer.py
"""

import random

from repro import (
    CoalescingDelivery,
    DagBuilder,
    FailurePattern,
    Omega,
    PairedDetector,
    QuorumMR,
    Sigma,
    System,
)
from repro.core.dag import balanced_chain
from repro.core.simtrie import IncrementalExtractionEngine
from repro.kernel.runs import PureRun, validate_run


def main() -> None:
    pattern = FailurePattern(3, {2: 30})
    detector = PairedDetector(Omega(), Sigma("pivot"))
    history = detector.sample_history(pattern, random.Random(11))

    print("== running A_DAG for 500 steps ==")
    processes = {p: DagBuilder() for p in range(3)}
    system = System(
        processes, pattern, history, seed=11, delivery=CoalescingDelivery()
    )
    system.run(max_steps=500)

    dag = processes[0].core.dag
    print(f"process 0's DAG: {len(dag)} samples, frontier {dag.frontier}")
    sample = dag.get((0, 3))
    print(f"sample (0,#3): d={sample.d}, tau={sample.t}, "
          f"frontier={sample.frontier}")
    fresh = dag.descendants(sample)
    print(f"|G|{sample!r}| = {len(fresh)} descendants "
          f"(all post-crash ones are correct-only)")

    print("\n== a canonical simulated schedule (Lemma 4.10) ==")
    chain = balanced_chain(fresh)
    engine = IncrementalExtractionEngine(QuorumMR(), 3)
    sim = engine.trie.simulate({p: "v0" for p in range(3)}, chain, target=0)
    print(f"chain length {len(chain)}; process 0 decides "
          f"{sim.decisions.get(0)!r} after {sim.target_decided_at} steps "
          f"with participants {sorted(sim.participants)}")

    print("\n== Lemma 4.9: the simulated schedule is a run of A using D ==")
    run = PureRun(
        automaton=QuorumMR(),
        n=3,
        proposals={p: "v0" for p in range(3)},
        pattern=pattern,
        history=history.value,
        schedule=sim.schedule,
        times=[s.t for s in sim.path],
    )
    violations = validate_run(run)
    print(f"run validator: {'VALID' if not violations else violations[:2]}")

    print("\n== the extraction condition (Fig. 2 lines 15-17) ==")
    found = {}
    for value in (0, 1):
        found[value] = engine.find_deciding_schedule(
            {p: value for p in range(3)}, fresh, target=0, barrier=sample
        )
        print(f"I_{value}: deciding schedule with participants "
              f"{sorted(found[value].participants)} "
              f"(len {len(found[value].schedule)})")
    quorum = found[0].participants | found[1].participants
    print(f"extracted Sigma^nu quorum: {sorted(quorum)}")
    if violations:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
