"""The experiment sweeps EXP-1 .. EXP-9 (see DESIGN.md section 4).

Each function runs one experiment family and returns an
:class:`~repro.analysis.tables.Table` ready to print.  Its parameters are
required keyword arguments; :data:`EXPERIMENTS` at the bottom of this module
is their only source: per experiment, the ``full`` parameters that print the
committed ``benchmarks/results/exp-N.txt`` table and the ``quick`` overrides
of ``--quick`` runs.  ``repro experiment``, ``repro reproduce`` and
``repro sweep`` all run the experiments through that table.

Every sweep accepts ``jobs``: its independent, seeded runs are dispatched
through :func:`repro.harness.parallel.run_sweep`, so ``jobs=1`` (the
default) executes inline while ``jobs>1`` fans the runs out over worker
processes.  Results come back in task order and each run is a pure function
of its arguments, so the rendered tables are identical for every ``jobs``
value.  Sweeps whose tables only need decisions and counts run their
systems under ``trace="metrics"``; EXP-7 keeps full traces (its round
estimate reads the step log).
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.analysis.stats import rate, summarize
from repro.analysis.tables import Table
from repro.consensus.flood_p import FloodSetPerfect
from repro.consensus.mostefaoui_raynal import MostefaouiRaynal
from repro.consensus.quorum_mr import QuorumMR
from repro.detectors.omega import Omega
from repro.detectors.paired import PairedDetector
from repro.detectors.perfect import Perfect
from repro.detectors.sigma import Sigma
from repro.detectors.sigma_nu import SigmaNu
from repro.harness.parallel import SweepTask, run_sweep
from repro.harness.runner import (
    random_binary_proposals,
    random_pattern,
    run_boosting,
    run_consensus_algorithm,
    run_extraction,
    run_from_scratch_sigma,
    run_nuc,
    run_stack,
)
from repro.kernel.failures import FailurePattern
from repro.separation.contamination import run_contamination_scenario
from repro import obs as _obs


#: One experiment's tasks in groups: (row key, the tasks behind that row).
Groups = List[Tuple[Any, List[SweepTask]]]


def _sweep(name: str, groups: Groups, jobs: int) -> List[Tuple[Any, List[Any]]]:
    """Run every group's tasks under an ``exp.<name>`` span; return each
    row key with its group's results, in task order."""
    tasks = [task for _, group in groups for task in group]
    with (
        _obs.tracer().span(f"exp.{name}", tasks=len(tasks), jobs=jobs)
        if _obs._ENABLED
        else nullcontext()
    ):
        results = iter(run_sweep(tasks, jobs=jobs))
    return [(key, [next(results) for _ in group]) for key, group in groups]


def exp1_nuc_sufficiency(
    *, ns: Sequence[int], seeds: Sequence[int], jobs: int = 1
) -> Table:
    """EXP-1 (Thms 6.27/6.28): A_nuc and the full stack solve nonuniform
    consensus in any environment, including minority-correct ones."""
    table = Table(
        "EXP-1: nonuniform consensus sufficiency — A_nuc with (Omega, Sigma^nu+)"
        " and the (Omega, Sigma^nu) stack",
        ["algo", "n", "runs", "decided", "agreement_ok", "mean_steps", "mean_msgs"],
    )
    # (algo, runner, rng salt, step budget): the stack's two layers get
    # twice A_nuc's budget.
    arms = (("A_nuc", run_nuc, 7919, 30000), ("stack", run_stack, 104729, 60000))
    groups: Groups = []
    for n in ns:
        for algo, runner, salt, max_steps in arms:
            tasks: List[SweepTask] = []
            for seed in seeds:
                rng = random.Random((seed + 1) * salt + n)
                tasks.append(
                    SweepTask(
                        runner,
                        dict(
                            pattern=random_pattern(n, rng),
                            proposals=random_binary_proposals(n, rng),
                            seed=seed,
                            max_steps=max_steps,
                            trace="metrics",
                        ),
                    )
                )
            groups.append(((algo, n), tasks))
    for (algo, n), outcomes in _sweep("exp1", groups, jobs):
        agreement = (
            all(o.nonuniform.ok for o in outcomes)
            if algo == "A_nuc"
            else all(o.nonuniform.ok and o.boosted_check.ok for o in outcomes)
        )
        table.add_row(
            algo,
            n,
            len(outcomes),
            sum(1 for o in outcomes if o.metrics.all_correct_decided),
            agreement,
            summarize(o.metrics.steps for o in outcomes).mean,
            summarize(o.metrics.messages_sent for o in outcomes).mean,
        )
    table.add_note(
        "failure patterns sample up to n-1 crashes; 'agreement_ok' also "
        "covers validity and, for the stack, the emulated Sigma^nu+ checks"
    )
    return table


def exp2_boosting(
    *, ns: Sequence[int], seeds: Sequence[int], jobs: int = 1
) -> Table:
    """EXP-2 (Thm 6.7): the booster's output satisfies all four Sigma^nu+
    properties in any environment, whatever the faulty processes'
    Sigma^nu style."""
    table = Table(
        "EXP-2: T_{Sigma^nu -> Sigma^nu+} output validity",
        ["n", "faulty_style", "runs", "all_valid", "mean_outputs", "mean_steps"],
    )
    groups: Groups = []
    for n in ns:
        for style in ("selfish", "junk", "obedient"):
            tasks: List[SweepTask] = []
            for seed in seeds:
                rng = random.Random((seed + 1) * 31 + n)
                pattern = random_pattern(n, rng, max_crash_time=50)
                detector = SigmaNu(style)
                tasks.append(
                    SweepTask(
                        run_boosting,
                        dict(
                            pattern=pattern, seed=seed, detector=detector, trace="metrics"
                        ),
                    )
                )
            groups.append(((n, style), tasks))
    for (n, style), outcomes in _sweep("exp2", groups, jobs):
        table.add_row(
            n,
            style,
            len(outcomes),
            all(o.check.ok for o in outcomes),
            summarize(o.metrics.outputs_emitted for o in outcomes).mean,
            summarize(o.metrics.steps for o in outcomes).mean,
        )
    return table


def _exp3_task(label: str, pattern: FailurePattern, seed: int):
    """One EXP-3 extraction.  The (subject automaton, detector) pair is
    built here, in the worker, so only the label crosses the process
    boundary."""
    from repro.consensus.chandra_toueg import ChandraTouegS
    from repro.detectors.perfect import EventuallyPerfect

    if label == "(Omega,Sigma) / quorum-MR":
        subject, detector = QuorumMR(), PairedDetector(Omega(), Sigma("pivot"))
    elif label == "P / floodset":
        subject, detector = FloodSetPerfect(), Perfect(lag=4)
    elif label == "Omega / MR (majority env)":
        subject, detector = MostefaouiRaynal(), Omega()
    elif label == "<>P / Chandra-Toueg (majority env)":
        subject, detector = ChandraTouegS(), EventuallyPerfect()
    else:
        raise ValueError(f"unknown EXP-3 subject {label!r}")
    return run_extraction(subject, detector, pattern, seed=seed, trace="metrics")


def exp3_extraction(
    *, ns: Sequence[int], seeds: Sequence[int], jobs: int = 1
) -> Table:
    """EXP-3 (Thms 5.4/5.8): T_{D -> Sigma^nu} over several (D, A) pairs.

    Because every subject algorithm here solves *uniform* consensus with its
    detector, the extracted history must satisfy full Sigma as well
    (Theorem 5.8) — both verdicts are reported.
    """
    subjects = [
        ("(Omega,Sigma) / quorum-MR", None),
        ("P / floodset", None),
        ("Omega / MR (majority env)", "majority"),
        ("<>P / Chandra-Toueg (majority env)", "majority"),
    ]
    table = Table(
        "EXP-3: necessity extraction T_{D -> Sigma^nu}",
        ["subject", "n", "runs", "sigma_nu_ok", "sigma_ok", "mean_quorum_size"],
    )
    groups: Groups = []
    for label, env in subjects:
        for n in ns:
            max_faulty = (n - 1) // 2 if env == "majority" else n - 1
            tasks: List[SweepTask] = []
            for seed in seeds:
                rng = random.Random((seed + 1) * 53 + n)
                pattern = random_pattern(
                    n, rng, max_faulty=max_faulty, max_crash_time=40
                )
                tasks.append(
                    SweepTask(
                        _exp3_task,
                        dict(label=label, pattern=pattern, seed=seed),
                    )
                )
            groups.append(((label, n), tasks))
    for (label, n), outcomes in _sweep("exp3", groups, jobs):
        sizes: List[int] = []
        for o in outcomes:
            for p, events in o.result.outputs.items():
                sizes.extend(len(q) for _, q in events[1:])
        table.add_row(
            label,
            n,
            len(outcomes),
            all(o.sigma_nu_check.ok for o in outcomes),
            all(o.sigma_check.ok for o in outcomes),
            summarize(sizes).mean if sizes else float("nan"),
        )
    return table


def _exp4_adversary_task(n: int, t: int, seed: int):
    """One Theorem 7.1 adversary run (the process factory closes over
    ``(n, t)`` inside the worker; closures don't pickle)."""
    from repro.separation.adversary import run_partition_adversary
    from repro.separation.from_scratch_sigma import FromScratchSigma

    return run_partition_adversary(
        lambda pid: FromScratchSigma(n, t), n, t, seed=seed
    )


def exp4_separation(
    *, cases: Sequence[Tuple[int, int]], seeds: Sequence[int], jobs: int = 1
) -> Table:
    """EXP-4 (Thm 7.1): (Omega, Sigma^nu) vs (Omega, Sigma) by environment.

    For ``t < n/2`` the from-scratch algorithm implements Sigma (validated by
    the Sigma checker); for ``t >= n/2`` the partition adversary breaks any
    candidate transformation — here, the same algorithm run with threshold
    ``n - t``.
    """
    table = Table(
        "EXP-4: Theorem 7.1 separation — E_t environments",
        ["n", "t", "t<n/2", "from-scratch Sigma valid", "adversary verdict"],
    )
    groups: Groups = []
    for n, t in cases:
        majority = t < n / 2
        tasks: List[SweepTask] = []
        for seed in seeds:
            if majority:
                rng = random.Random(seed * 17 + n)
                crashed = rng.sample(range(n), t)
                pattern = FailurePattern(
                    n, {p: rng.randint(0, 30) for p in crashed}
                )
                tasks.append(
                    SweepTask(
                        run_from_scratch_sigma,
                        dict(
                            n=n,
                            t=t,
                            pattern=pattern,
                            seed=seed,
                            trace="metrics",
                        ),
                    )
                )
            else:
                tasks.append(
                    SweepTask(_exp4_adversary_task, dict(n=n, t=t, seed=seed))
                )
        groups.append(((n, t, majority), tasks))
    for (n, t, majority), outcomes in _sweep("exp4", groups, jobs):
        if majority:
            ok = all(o.check.ok for o in outcomes)
            table.add_row(n, t, True, ok, "adversary inapplicable (no partition)")
        else:
            broke = all(v.violated for v in outcomes)
            table.add_row(
                n,
                t,
                False,
                "n/a (not claimed)",
                "intersection VIOLATED" if broke else "survived (unexpected)",
            )
    table.add_note(
        "the adversary attacks the from-scratch algorithm run with "
        "threshold n-t; Theorem 7.1 says every transformation fails likewise"
    )
    return table


def exp5_contamination(*, seeds: Sequence[int], jobs: int = 1) -> Table:
    """EXP-5 (Section 6.3): the naive Sigma^nu quorum algorithm is
    contaminable; A_nuc is not, under the same scenario family."""
    table = Table(
        "EXP-5: Section 6.3 contamination scenario (n=3, process 2 faulty)",
        [
            "algorithm",
            "seed",
            "decisions(correct)",
            "agreement violated",
            "history valid",
            "distrust events",
        ],
    )
    groups: Groups = [
        (
            (algorithm, seed),
            [
                SweepTask(
                    run_contamination_scenario,
                    dict(algorithm=algorithm, seed=seed),
                )
            ],
        )
        for algorithm in ("naive", "anuc")
        for seed in seeds
    ]
    for (algorithm, seed), (report,) in _sweep("exp5", groups, jobs):
        correct_decisions = {
            p: v for p, v in report.decisions.items() if p in (0, 1)
        }
        table.add_row(
            algorithm,
            seed,
            str(correct_decisions),
            report.contaminated,
            report.omega_check.ok and report.sigma_check.ok,
            len(report.distrust_events),
        )
    table.add_note(
        "expected: naive violates nonuniform agreement in every seed; "
        "A_nuc never does and shows distrust activity instead"
    )
    return table


def exp6_merging(*, seeds: Sequence[int], n: int, jobs: int = 1) -> Table:
    """EXP-6 (Lemma 2.2): merged mergeable runs are runs, and participants'
    final states are preserved."""
    from repro.harness.merging import random_mergeable_pair_report

    table = Table(
        "EXP-6: Lemma 2.2 merging of mergeable runs",
        ["seed", "|S0|", "|S1|", "merged is run", "states preserved"],
    )
    groups: Groups = [
        (seed, [SweepTask(random_mergeable_pair_report, dict(n=n, seed=seed))])
        for seed in seeds
    ]
    for seed, (report,) in _sweep("exp6", groups, jobs):
        table.add_row(
            seed,
            report.len0,
            report.len1,
            report.merged_valid,
            report.states_preserved,
        )
    return table


def _exp7_task(algo: str, pattern: FailurePattern, proposals: Dict[int, Any], seed: int):
    """One EXP-7 run; algorithms and detectors are built in the worker.

    Full traces are kept: the round estimate reads LEAD tags out of the
    step log.
    """
    if algo == "MR (Omega, majority env)":
        return run_consensus_algorithm(
            MostefaouiRaynal(), Omega(), pattern, proposals, seed=seed
        )
    if algo == "quorum-MR (Omega,Sigma)":
        return run_consensus_algorithm(
            QuorumMR(),
            PairedDetector(Omega(), Sigma("pivot")),
            pattern,
            proposals,
            seed=seed,
        )
    if algo == "A_nuc (Omega,Sigma^nu+)":
        return run_nuc(pattern, proposals, seed=seed)
    raise ValueError(f"unknown EXP-7 algorithm {algo!r}")


_EXP7_ALGOS = (
    "MR (Omega, majority env)",
    "quorum-MR (Omega,Sigma)",
    "A_nuc (Omega,Sigma^nu+)",
)


def exp7_scaling(
    *, ns: Sequence[int], seeds: Sequence[int], jobs: int = 1
) -> Table:
    """EXP-7 (cost profile): steps and messages to decision for A_nuc vs the
    MR baselines, and booster output cadence, as n grows."""
    table = Table(
        "EXP-7: scaling — mean steps / messages / rounds to decision",
        ["algo", "n", "mean_steps", "mean_msgs", "mean_rounds", "decided_rate"],
    )
    groups: Groups = []
    for n in ns:
        per_seed: List[Tuple[FailurePattern, FailurePattern, Dict[int, Any]]] = []
        for seed in seeds:
            rng = random.Random(seed * 13 + n)
            maj_pattern = random_pattern(n, rng, max_faulty=(n - 1) // 2)
            any_pattern = random_pattern(n, rng)
            proposals = random_binary_proposals(n, rng)
            per_seed.append((maj_pattern, any_pattern, proposals))
        for algo in _EXP7_ALGOS:
            tasks: List[SweepTask] = []
            for seed, (maj_pattern, any_pattern, proposals) in zip(seeds, per_seed):
                pattern = (
                    maj_pattern if algo == "MR (Omega, majority env)" else any_pattern
                )
                tasks.append(
                    SweepTask(
                        _exp7_task,
                        dict(
                            algo=algo,
                            pattern=pattern,
                            proposals=proposals,
                            seed=seed,
                        ),
                    )
                )
            groups.append(((algo, n), tasks))
    for (label, n), outcomes in _sweep("exp7", groups, jobs):
        rounds = [r for o in outcomes for r in _decision_rounds(o)]
        table.add_row(
            label,
            n,
            summarize(o.metrics.steps for o in outcomes).mean,
            summarize(o.metrics.messages_sent for o in outcomes).mean,
            summarize(rounds).mean if rounds else float("nan"),
            rate(
                sum(1 for o in outcomes if o.metrics.all_correct_decided),
                len(outcomes),
            ),
        )
    return table


def exp8_exhaustive(
    *, n: int, crash_times: Sequence[int], seeds: Sequence[int], jobs: int = 1
) -> Table:
    """EXP-8: exhaustive environment coverage at small n.

    "In any environment" means for every failure pattern; a simulator can at
    least enumerate every crash *set* for small n (combined with a grid of
    crash times) and check A_nuc on each.  With n = 3 and two candidate
    times this is every subset of up to n-1 processes crashing early or
    late — including every minority-correct pattern.
    """
    import itertools as _it

    from repro.kernel.environment import Environment

    env = Environment.any_failures(n)
    table = Table(
        f"EXP-8: exhaustive crash-set sweep for A_nuc (n={n}, "
        f"times={list(crash_times)})",
        ["crash_set", "patterns", "runs", "decided", "agreement_ok"],
    )
    groups: Groups = []
    for crash_set in env.enumerate_crash_sets():
        patterns: List[FailurePattern] = []
        members = sorted(crash_set)
        if not members:
            patterns.append(FailurePattern.no_failures(n))
        else:
            for times in _it.product(crash_times, repeat=len(members)):
                patterns.append(FailurePattern(n, dict(zip(members, times))))
        tasks: List[SweepTask] = []
        for pattern in patterns:
            for seed in seeds:
                rng = random.Random(f"exp8/{sorted(crash_set)}/{seed}")
                proposals = random_binary_proposals(n, rng)
                tasks.append(
                    SweepTask(
                        run_nuc,
                        dict(
                            pattern=pattern,
                            proposals=proposals,
                            seed=seed,
                            max_steps=40000,
                            trace="metrics",
                        ),
                    )
                )
        groups.append(((members, len(patterns)), tasks))
    for (members, pattern_count), outcomes in _sweep("exp8", groups, jobs):
        table.add_row(
            "{" + ",".join(str(p) for p in members) + "}" if members else "{}",
            pattern_count,
            len(outcomes),
            sum(1 for o in outcomes if o.metrics.all_correct_decided),
            all(o.nonuniform.ok for o in outcomes),
        )
    return table


def _decision_rounds(outcome) -> List[int]:
    """Per correct decider, the highest LEAD round it opened by its decision.

    The runner keeps no automaton state, so the round is read from the
    LEAD tags of the decider's sent messages in the step log.
    """
    rounds: List[int] = []
    result = outcome.result
    for p, decided_at in result.decision_times.items():
        if p not in result.pattern.correct:
            continue
        opened = 0
        for record in result.steps:
            if record.pid != p or record.time > decided_at:
                continue
            for message in record.sends:
                payload = message.payload
                if (
                    isinstance(payload, tuple)
                    and len(payload) >= 2
                    and payload[0] == "LEAD"
                    and isinstance(payload[1], int)
                ):
                    opened = max(opened, payload[1])
        if opened:
            rounds.append(opened)
    return rounds


def exp9_registers(*, seeds: Sequence[int], jobs: int = 1) -> Table:
    """EXP-9 (paper intro / [3]'s technique): registers need Sigma.

    Under Sigma the ABD quorum-register emulation stays atomic across
    random workloads and crashes; under Sigma^nu the lost-write scenario
    produces a checked atomicity violation on a certified-legal history —
    the executable reason the uniform proof route cannot carry the
    nonuniform result.

    The scenario arms are three tiny interactive runs; ``jobs`` is
    accepted like every experiment's, but the sweep always executes inline.
    """
    from repro.registers import RegisterHarness, check_register_safety
    from repro.registers.counterexample import (
        run_lost_write_scenario,
        run_sigma_control_arm,
    )

    table = Table(
        "EXP-9: quorum registers — Sigma atomic, Sigma^nu contaminable",
        ["arm", "seed", "operations", "atomic", "note"],
    )
    # Inline-only "sweep": the span mirrors what _sweep adds elsewhere,
    # guarded like every other instrumentation site.
    with (
        _obs.tracer().span("exp.exp9", seeds=len(seeds))
        if _obs._ENABLED
        else nullcontext()
    ):
        for seed in seeds:
            rng = random.Random(f"exp9/{seed}")
            n = 4
            pattern = FailurePattern(n, {3: rng.randint(20, 50)})
            scripts = {
                0: [("write", f"a{seed}"), ("read",)],
                1: [("read",), ("write", f"b{seed}")],
                2: [("read",), ("read",)],
                3: [("write", f"c{seed}")],
            }
            history = Sigma("pivot").sample_history(pattern, rng)
            harness = RegisterHarness(
                pattern=pattern, history=history, scripts=scripts, seed=seed
            )
            _, records, procs = harness.run()
            report = check_register_safety(
                records, RegisterHarness.incomplete_writes(procs)
            )
            table.add_row(
                "Sigma / ABD", seed, len(records), report.ok, "random workload"
            )
        for seed in seeds:
            report = run_lost_write_scenario(seed=seed)
            table.add_row(
                "Sigma^nu / lost write",
                seed,
                2,
                report.safety.ok,
                "history legal Sigma^nu"
                if report.sigma_nu_check.ok
                else "HISTORY INVALID?",
            )
        table.add_row(
            "Sigma control arm",
            0,
            0,
            True,
            "isolated write blocks"
            if run_sigma_control_arm()
            else "UNEXPECTED: write completed",
        )
    return table


@dataclass(frozen=True)
class Experiment:
    """One experiment: its report label, its runner, and its parameters.

    ``full`` prints the committed ``benchmarks/results/exp-N.txt`` table;
    ``quick`` overrides part of it for ``--quick`` runs.
    """

    label: str
    runner: Callable[..., Table]
    full: Dict[str, Any]
    quick: Dict[str, Any]

    def run(self, quick: bool = False, jobs: int = 1, **overrides: Any) -> Table:
        """Run the full (or quick) parameters, with ``overrides`` on top."""
        params = {**self.full, **(self.quick if quick else {}), **overrides}
        return self.runner(**params, jobs=jobs)


#: The only parameter source of the nine experiments.
EXPERIMENTS: Dict[str, Experiment] = {
    "exp1": Experiment(
        "EXP-1 (Thms 6.27/6.28)",
        exp1_nuc_sufficiency,
        full=dict(ns=(2, 3, 4, 5), seeds=(0, 1, 2)),
        quick=dict(ns=(2, 3), seeds=(0,)),
    ),
    "exp2": Experiment(
        "EXP-2 (Thm 6.7)",
        exp2_boosting,
        full=dict(ns=(2, 3, 4, 5), seeds=(0, 1, 2)),
        quick=dict(ns=(2, 3), seeds=(0,)),
    ),
    "exp3": Experiment(
        "EXP-3 (Thms 5.4/5.8)",
        exp3_extraction,
        full=dict(ns=(3, 4), seeds=(0, 1)),
        quick=dict(ns=(3,), seeds=(0,)),
    ),
    "exp4": Experiment(
        "EXP-4 (Thm 7.1)",
        exp4_separation,
        full=dict(
            cases=((2, 1), (4, 2), (5, 3), (6, 3), (3, 1), (5, 2)), seeds=(0, 1)
        ),
        quick=dict(cases=((2, 1), (4, 2), (3, 1)), seeds=(0,)),
    ),
    "exp5": Experiment(
        "EXP-5 (Section 6.3)",
        exp5_contamination,
        full=dict(seeds=(0, 1, 2)),
        quick=dict(seeds=(0,)),
    ),
    "exp6": Experiment(
        "EXP-6 (Lemma 2.2)",
        exp6_merging,
        full=dict(seeds=range(8), n=5),
        quick=dict(seeds=range(3)),
    ),
    "exp7": Experiment(
        "EXP-7 (cost profile)",
        exp7_scaling,
        full=dict(ns=(2, 3, 4, 5), seeds=(0, 1)),
        quick=dict(ns=(2, 3), seeds=(0,)),
    ),
    "exp8": Experiment(
        "EXP-8 (exhaustive small n)",
        exp8_exhaustive,
        full=dict(n=3, crash_times=(0, 25), seeds=(0,)),
        quick=dict(crash_times=(0,)),
    ),
    "exp9": Experiment(
        "EXP-9 (register gap)",
        exp9_registers,
        full=dict(seeds=(0, 1, 2)),
        quick=dict(seeds=(0,)),
    ),
}
