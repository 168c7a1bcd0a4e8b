"""The fuzz-case space: seeded draws with JSON-serializable specs.

A :class:`FuzzCase` is everything the kernel needs to execute one run —
failure pattern, proposals (or register scripts), scheduler spec, delivery
spec, step budget and the run seed — drawn deterministically from a single
``random.Random``.  Specs are plain tuples/lists of primitives so a case can
be embedded verbatim in a ``repro-counterexample/1`` artifact and rebuilt.

Scheduler and delivery *instances* are stateful (cursors, aging bounds), so
they are built fresh from their specs for every execution, by
:func:`repro.kernel.scheduler.build_scheduler` and
:func:`repro.kernel.messages.build_delivery`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.kernel.failures import FailurePattern


@dataclass(frozen=True)
class FuzzCase:
    """One point of the fuzz space; a pure function of the draw seed."""

    config: str
    index: int
    seed: int
    n: int
    crash_times: Tuple[Tuple[int, int], ...]  # sorted (pid, time) pairs
    proposals: Tuple[Tuple[int, Any], ...]  # sorted (pid, value) pairs
    scheduler: Tuple[Any, ...]
    delivery: Tuple[Any, ...]
    max_steps: int

    def pattern(self) -> FailurePattern:
        return FailurePattern(self.n, dict(self.crash_times))

    def proposal_map(self) -> Dict[int, Any]:
        return dict(self.proposals)

    def to_json(self) -> Dict[str, Any]:
        return {
            "config": self.config,
            "index": self.index,
            "seed": self.seed,
            "n": self.n,
            "crash_times": [list(ct) for ct in self.crash_times],
            "proposals": [
                [p, _spec_to_json(v) if isinstance(v, tuple) else v]
                for p, v in self.proposals
            ],
            "scheduler": _spec_to_json(self.scheduler),
            "delivery": _spec_to_json(self.delivery),
            "max_steps": self.max_steps,
        }

    def run_seed(self) -> int:
        """The kernel seed of this case's execution (pure in seed/index)."""
        return (self.seed * 1_000_003 + self.index) & 0x7FFFFFFF

    @staticmethod
    def from_json(data: Dict[str, Any]) -> "FuzzCase":
        return FuzzCase(
            config=data["config"],
            index=data["index"],
            seed=data["seed"],
            n=data["n"],
            crash_times=tuple(
                (int(p), int(t)) for p, t in data["crash_times"]
            ),
            proposals=tuple(
                (int(p), _spec_from_json(v) if isinstance(v, list) else v)
                for p, v in data["proposals"]
            ),
            scheduler=_spec_from_json(data["scheduler"]),
            delivery=_spec_from_json(data["delivery"]),
            max_steps=data["max_steps"],
        )


def _spec_to_json(spec: Sequence[Any]) -> List[Any]:
    return [
        _spec_to_json(part) if isinstance(part, (tuple, list)) else part
        for part in spec
    ]


def _spec_from_json(data: Sequence[Any]) -> Tuple[Any, ...]:
    return tuple(
        _spec_from_json(part) if isinstance(part, list) else part
        for part in data
    )


# ----------------------------------------------------------------------
# Spec draws
# ----------------------------------------------------------------------


def _draw_scheduler_spec(rng: random.Random, n: int) -> Tuple[Any, ...]:
    roll = rng.random()
    if roll < 0.2:
        return ("round-robin",)
    if roll < 0.7:
        return ("random-fair", rng.choice((8, 16, 32, 64)))
    # Adversarially-skewed weights: some processes step much more often.
    weights = tuple(
        (p, rng.choice((0.05, 0.3, 1.0, 4.0, 20.0))) for p in range(n)
    )
    return ("weighted", weights, rng.choice((32, 64, 128)))


def _draw_delivery_spec(rng: random.Random) -> Tuple[Any, ...]:
    roll = rng.random()
    if roll < 0.55:
        return (
            "fair-random",
            round(rng.uniform(0.15, 0.9), 3),
            rng.choice((15, 40, 80)),
        )
    if roll < 0.85:
        return (
            "per-sender-fifo",
            round(rng.uniform(0.15, 0.8), 3),
            rng.choice((20, 60)),
        )
    return ("oldest-first",)


def _draw_crashes(
    rng: random.Random,
    n: int,
    min_faulty: int,
    max_faulty: int,
    max_crash_time: int,
) -> Tuple[Tuple[int, int], ...]:
    count = rng.randint(min_faulty, max_faulty)
    crashed = sorted(rng.sample(sorted(range(n)), count))
    return tuple((p, rng.randint(0, max_crash_time)) for p in crashed)


#: Recognized proposal styles; each is a deterministic function of the draw
#: RNG and the failure pattern.
PROPOSAL_STYLES = ("binary", "split-halves", "register", "smr")


def _draw_proposals(
    rng: random.Random,
    pattern: FailurePattern,
    style: str,
    values: Sequence[Any],
) -> Tuple[Tuple[int, Any], ...]:
    """Per-process payloads: proposals, register scripts or SMR commands.

    * ``binary`` — one value per process, drawn from ``values``;
    * ``split-halves`` — the sorted correct set is split in two (matching
      :meth:`repro.chaos.injectors.SplitQuorums.halves`); the first half
      proposes ``values[0]``, the second ``values[1]`` — the Theorem 7.1
      corner in which non-intersecting quorums can decide differently;
    * ``register`` — a short script of ``("write", v)`` / ``("read",)``
      operations per process, write values unique per writer;
    * ``smr`` — a tuple of ``("append", pid, k)`` commands per process.
    """
    n = pattern.n
    if style == "binary":
        return tuple((p, rng.choice(list(values))) for p in range(n))
    if style == "split-halves":
        correct = sorted(pattern.correct)
        mid = (len(correct) + 1) // 2
        first = frozenset(correct[:mid])
        pool = list(values)
        return tuple(
            (
                p,
                pool[0]
                if p in first
                else pool[1 % len(pool)]
                if p in pattern.correct
                else rng.choice(pool),
            )
            for p in range(n)
        )
    if style == "register":
        # Several ops per client: later operations are invoked after earlier
        # ones respond, creating the real-time (non-overlapping) pairs the
        # register safety checker's order clause needs.
        proposals = []
        for p in range(n):
            ops: List[Any] = []
            for k in range(rng.randint(2, 4)):
                if rng.random() < 0.55:
                    ops.append(("write", p * 100 + k))
                else:
                    ops.append(("read",))
            proposals.append((p, tuple(ops)))
        return tuple(proposals)
    if style == "smr":
        return tuple(
            (
                p,
                tuple(
                    ("append", p, k) for k in range(rng.randint(1, 2))
                ),
            )
            for p in range(n)
        )
    raise ValueError(f"unknown proposal style {style!r}")


def draw_case(
    config: str,
    seed: int,
    index: int,
    ns: Sequence[int],
    max_steps: int,
    min_faulty: int = 0,
    max_faulty: Optional[int] = None,
    min_correct: int = 1,
    majority_correct: bool = False,
    max_crash_time: int = 40,
    values: Sequence[Any] = (0, 1),
    proposal_style: str = "binary",
) -> FuzzCase:
    """Draw one fuzz case; deterministic in ``(config, seed, index)``."""
    rng = random.Random(f"chaos/{config}/{seed}/{index}")
    n = rng.choice(list(ns))
    bound = n - min_correct if max_faulty is None else min(max_faulty, n - min_correct)
    if majority_correct:
        bound = min(bound, (n - 1) // 2)
    bound = max(bound, min_faulty)
    crash_times = _draw_crashes(rng, n, min_faulty, bound, max_crash_time)
    pattern = FailurePattern(n, dict(crash_times))
    proposals = _draw_proposals(rng, pattern, proposal_style, values)
    return FuzzCase(
        config=config,
        index=index,
        seed=seed,
        n=n,
        crash_times=crash_times,
        proposals=proposals,
        scheduler=_draw_scheduler_spec(rng, n),
        delivery=_draw_delivery_spec(rng),
        max_steps=max_steps,
    )


#: The case dimensions a mutation may re-draw, in a fixed order so the
#: mutation stream is deterministic.
MUTATION_DIMENSIONS = ("scheduler", "delivery", "crashes", "proposals")


def mutate_case(
    case: FuzzCase,
    rng: random.Random,
    index: int,
    min_faulty: int = 0,
    max_faulty: Optional[int] = None,
    min_correct: int = 1,
    majority_correct: bool = False,
    max_crash_time: int = 40,
    values: Sequence[Any] = (0, 1),
    proposal_style: str = "binary",
) -> FuzzCase:
    """Re-draw one dimension of ``case`` (coverage-guided neighborhood)."""
    dimension = rng.choice(MUTATION_DIMENSIONS)
    n = case.n
    scheduler = case.scheduler
    delivery = case.delivery
    crash_times = case.crash_times
    proposals = case.proposals
    if dimension == "scheduler":
        scheduler = _draw_scheduler_spec(rng, n)
    elif dimension == "delivery":
        delivery = _draw_delivery_spec(rng)
    elif dimension == "crashes":
        bound = (
            n - min_correct if max_faulty is None else min(max_faulty, n - min_correct)
        )
        if majority_correct:
            bound = min(bound, (n - 1) // 2)
        bound = max(bound, min_faulty)
        crash_times = _draw_crashes(rng, n, min_faulty, bound, max_crash_time)
        if proposal_style == "split-halves":
            # The half split depends on the correct set; re-derive so the
            # proposals keep targeting the Theorem 7.1 corner.
            pattern = FailurePattern(n, dict(crash_times))
            proposals = _draw_proposals(rng, pattern, proposal_style, values)
    else:
        pattern = FailurePattern(n, dict(case.crash_times))
        proposals = _draw_proposals(rng, pattern, proposal_style, values)
    return FuzzCase(
        config=case.config,
        index=index,
        seed=case.seed,
        n=n,
        crash_times=crash_times,
        proposals=proposals,
        scheduler=scheduler,
        delivery=delivery,
        max_steps=case.max_steps,
    )
