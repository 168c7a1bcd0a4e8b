"""The two-run partition adversary of Theorem 7.1 (ONLY IF direction).

For ``t >= n/2`` no algorithm transforms (Omega, Sigma^nu) to Sigma.  The
proof partitions Pi into A and B with ``|A|, |B| <= t`` and plays two runs:

* **R** — all of B crashes at time 0, A is correct.  The detector outputs
  the constant ``(min A, A)`` at A and ``(min B, B)`` at B (valid for this
  pattern).  Sigma-completeness forces some ``a in A`` to eventually output
  a quorum ``A' ⊆ A``, say at time ``tau``.

* **R'** — same detector outputs (also valid here), but now B is correct and
  its messages to A (and vice versa) are delayed past ``tau``; A crashes
  just after ``tau``.  Up to ``tau`` the processes of A cannot distinguish
  R' from R, so ``a`` again outputs ``A' ⊆ A``; Sigma-completeness at the
  correct B then forces some ``b`` to output ``B' ⊆ B``.  ``A' ∩ B' = ∅``
  violates Sigma's intersection property.

:func:`run_partition_adversary` executes this attack against *any* candidate
transformation (a process factory emitting quorums via ``ctx.output``).  The
simulator's determinism discipline — per-destination random streams, delivery
choices that depend only on locally observable state — makes the
indistinguishability argument hold literally: the A-side of R' replays the
A-side of R step for step, and the verdict double-checks that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, FrozenSet, List, Optional, Tuple

from repro.detectors.base import FunctionalHistory
from repro.kernel.automaton import Process
from repro.kernel.failures import FailurePattern
from repro.kernel.messages import BlockingPolicy, PerSenderFifoDelivery
from repro.kernel.scheduler import RoundRobinScheduler
from repro.kernel.system import System

TransformationFactory = Callable[[int], Process]


@dataclass
class AdversaryVerdict:
    """Outcome of the partition attack."""

    n: int
    t: int
    partition_a: FrozenSet[int]
    partition_b: FrozenSet[int]
    violated: bool
    reason: str
    tau: Optional[int] = None
    a_process: Optional[int] = None
    b_process: Optional[int] = None
    a_quorum: Optional[FrozenSet[int]] = None
    b_quorum: Optional[FrozenSet[int]] = None
    replay_consistent: bool = True
    notes: List[str] = field(default_factory=list)

    def __repr__(self) -> str:
        status = "VIOLATED" if self.violated else "survived"
        return (
            f"AdversaryVerdict(n={self.n}, t={self.t}, {status}: {self.reason})"
        )


def _partition(n: int) -> Tuple[FrozenSet[int], FrozenSet[int]]:
    half = n // 2
    return frozenset(range(half)), frozenset(range(half, n))


def _static_history(part_a: FrozenSet[int], part_b: FrozenSet[int]):
    """The constant (Omega, Sigma^nu) history used in both runs."""
    leader_a, leader_b = min(part_a), min(part_b)

    def value(p: int, t: int):
        if p in part_a:
            return (leader_a, part_a)
        return (leader_b, part_b)

    return FunctionalHistory(value)


def run_partition_adversary(
    factory: TransformationFactory,
    n: int,
    t: int,
    seed: int = 0,
    max_steps_r: int = 4000,
    max_steps_r2: int = 12000,
) -> AdversaryVerdict:
    """Attack a candidate (Omega, Sigma^nu) -> Sigma transformation in E_t.

    ``factory(pid)`` builds the transformation process for ``pid``; its
    emitted ``ctx.output`` values are the Sigma quorums under attack.  For
    ``t >= n/2`` a verdict with ``violated=True`` demonstrates the
    Theorem 7.1 separation; for ``t < n/2`` a sound transformation survives
    (it never outputs a quorum inside a minority partition in run R).
    """
    part_a, part_b = _partition(n)
    if len(part_a) > t or len(part_b) > t:
        return AdversaryVerdict(
            n=n,
            t=t,
            partition_a=part_a,
            partition_b=part_b,
            violated=False,
            reason=(
                f"no partition with both sides <= t exists (t={t} < n/2); "
                "the adversary does not apply"
            ),
        )
    history = _static_history(part_a, part_b)

    # ------------------------------------------------------------------
    # Run R: B crashes at time 0.
    # ------------------------------------------------------------------
    pattern_r = FailurePattern(n, {p: 0 for p in part_b})
    system_r = System(
        processes={p: factory(p) for p in range(n)},
        pattern=pattern_r,
        history=history,
        scheduler=RoundRobinScheduler(),
        delivery=PerSenderFifoDelivery(),
        seed=seed,
    )

    def a_contained_output(system: System) -> Optional[Tuple[int, int, FrozenSet[int]]]:
        for p in sorted(part_a):
            for when, quorum in system.contexts[p].outputs:
                if frozenset(quorum) <= part_a:
                    return p, when, frozenset(quorum)
        return None

    system_r.run(
        max_steps=max_steps_r,
        stop_when=lambda s: a_contained_output(s) is not None,
    )
    hit = a_contained_output(system_r)
    if hit is None:
        return AdversaryVerdict(
            n=n,
            t=t,
            partition_a=part_a,
            partition_b=part_b,
            violated=False,
            reason=(
                "in run R (B down from the start) no process of A ever "
                "output a quorum contained in A within the budget — the "
                "transformation never exposed a partition-local quorum"
            ),
        )
    a_pid, tau, a_quorum = hit
    a_outputs_r = list(system_r.contexts[a_pid].outputs)

    # ------------------------------------------------------------------
    # Run R': B correct, cross-partition traffic blocked until A replays
    # its R behaviour, then A crashes and the links open.
    # ------------------------------------------------------------------
    blocking = BlockingPolicy(
        inner=PerSenderFifoDelivery(),
        blocked=lambda m: (m.sender in part_a) != (m.dest in part_a),
    )
    system_r2 = System(
        processes={p: factory(p) for p in range(n)},
        pattern=FailurePattern(n),
        history=history,
        scheduler=RoundRobinScheduler(),
        delivery=blocking,
        seed=seed,
    )

    def a_replayed(system: System) -> bool:
        outputs = system.contexts[a_pid].outputs
        return any(frozenset(q) == a_quorum for _, q in outputs)

    system_r2.run(max_steps=max_steps_r2, stop_when=a_replayed)
    notes: List[str] = []
    replay_consistent = a_replayed(system_r2)
    if not replay_consistent:
        notes.append(
            "A-side replay diverged: a never reproduced its R-quorum in R'"
        )
        return AdversaryVerdict(
            n=n,
            t=t,
            partition_a=part_a,
            partition_b=part_b,
            violated=False,
            reason="replay divergence (simulator determinism assumption broken)",
            tau=tau,
            a_process=a_pid,
            a_quorum=a_quorum,
            replay_consistent=False,
            notes=notes,
        )
    a_values_r = [frozenset(q) for _, q in a_outputs_r]
    a_values_r2 = [frozenset(q) for _, q in system_r2.contexts[a_pid].outputs]
    if a_values_r2 != a_values_r[: len(a_values_r2)]:
        notes.append("A-side output prefixes differ between R and R'")

    # Crash A now and open the partition: B must reach completeness alone.
    system_r2.crash(part_a)
    blocking.release()

    def b_contained_output(system: System) -> Optional[Tuple[int, int, FrozenSet[int]]]:
        for p in sorted(part_b):
            for when, quorum in system.contexts[p].outputs:
                if frozenset(quorum) <= part_b:
                    return p, when, frozenset(quorum)
        return None

    system_r2.run(
        max_steps=max_steps_r2,
        stop_when=lambda s: b_contained_output(s) is not None,
    )
    hit_b = b_contained_output(system_r2)
    if hit_b is None:
        return AdversaryVerdict(
            n=n,
            t=t,
            partition_a=part_a,
            partition_b=part_b,
            violated=False,
            reason=(
                "after A crashed, no process of B output a quorum contained "
                "in B within the budget — the transformation gave up "
                "Sigma-completeness instead of intersection"
            ),
            tau=tau,
            a_process=a_pid,
            a_quorum=a_quorum,
            replay_consistent=replay_consistent,
            notes=notes,
        )
    b_pid, _, b_quorum = hit_b
    disjoint = not (a_quorum & b_quorum)
    return AdversaryVerdict(
        n=n,
        t=t,
        partition_a=part_a,
        partition_b=part_b,
        violated=disjoint,
        reason=(
            f"run R' contains quorums {sorted(a_quorum)} (at {a_pid}) and "
            f"{sorted(b_quorum)} (at {b_pid}); "
            + ("disjoint — Sigma intersection violated" if disjoint else "they intersect")
        ),
        tau=tau,
        a_process=a_pid,
        b_process=b_pid,
        a_quorum=a_quorum,
        b_quorum=b_quorum,
        replay_consistent=replay_consistent,
        notes=notes,
    )
