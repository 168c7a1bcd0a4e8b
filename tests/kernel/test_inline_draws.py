"""The kernel's inlined uniform draws consume the stream ``Random.choice`` does.

``RandomFairScheduler.next_process`` and ``FairRandomDelivery.pick`` take
``rng.getrandbits(k)`` with rejection instead of calling ``rng.choice``.
Every seeded run — the experiment tables, the golden service digests — is
pinned to that stream, so each draw must pick the index ``choice`` would
pick and leave the generator in the state ``choice`` would leave it in.  A
stdlib release that changed ``Random._randbelow`` fails here first.
"""

import random

import pytest

from repro.kernel.messages import FairRandomDelivery, MessageBuffer
from repro.kernel.scheduler import RandomFairScheduler

SIZES = range(1, 65)
SEEDS = (0, 1, 7, "sched", 2**40 + 3)
DRAWS = 8


@pytest.mark.parametrize("seed", SEEDS)
def test_scheduler_draw_is_random_choice(seed):
    rng, twin = random.Random(seed), random.Random(seed)
    for n in SIZES:
        alive = tuple(range(n))
        # A gap no run reaches: the overdue rule never preempts the draw.
        scheduler = RandomFairScheduler(max_gap=10**9)
        for t in range(DRAWS):
            assert scheduler.next_process(alive, t, rng) == twin.choice(alive)
            assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("seed", SEEDS)
def test_delivery_draw_is_random_choice(seed):
    rng, twin = random.Random(seed), random.Random(seed)
    # lambda_prob 0 still consumes the lambda draw; max_age never forces.
    policy = FairRandomDelivery(lambda_prob=0.0, max_age=10**9)
    for n in SIZES:
        buffer = MessageBuffer()
        sent = [buffer.send(0, 1, ("m", i), now=0) for i in range(n)]
        queue = buffer.entries_for(1)
        for now in range(1, DRAWS + 1):
            chosen = queue[policy.pick(queue, now, rng)].message
            twin.random()
            assert chosen == twin.choice(sent)
            assert rng.getstate() == twin.getstate()
