"""Receipt against a long-hand reference.

``MessageBuffer.receive`` counts the destination's step, hands the
policy's ``pick`` the live queue and the step count ``now``, pops the
entry it names and counts the delivery.  A pending message's age is
``now`` minus the destination's step count at the send, so nothing is
touched per step.  The reference here does it the long way: one counter
per pending message, incremented on every step of its destination, and
each policy's choice drawn from those ages long-hand (``rng.choice`` for
a uniform draw, a list filter for a blocking policy, a stale-drop for a
coalescing one).  The two must agree after every operation of a random
send / receive / close interleaving: on the message received, the rng
state, every pending age and all four counts.  A closed destination (a
crashed process) keeps nothing: the reference drops its pending messages
and ignores later sends to it.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.messages import (
    BlockingPolicy,
    CoalescingDelivery,
    FairRandomDelivery,
    MessageBuffer,
    OldestFirstDelivery,
    PerSenderFifoDelivery,
)

N = 3
LAMBDA_PROB, MAX_AGE = 0.3, 4

SEND = st.tuples(st.just("send"), st.integers(0, N - 1), st.integers(0, N - 1))
OP = st.one_of(
    SEND,
    st.tuples(st.just("lambda"), st.integers(0, N - 1)),
    st.tuples(st.just("deliver"), st.integers(0, N - 1), st.integers(0, 7)),
    st.tuples(st.just("supersede"), st.integers(0, N - 1), st.integers(0, 7)),
    st.tuples(st.just("close"), st.integers(0, N - 1)),
)
OPS = st.lists(OP, max_size=60)


class ReferenceAges:
    """uid -> age, aged one destination step at a time, and the buffer's
    four counts kept long-hand."""

    def __init__(self):
        self.pending = {p: [] for p in range(N)}  # dest -> [message], oldest first
        self.age = {}
        self.closed = set()
        self.sent = self.delivered = self.superseded = self.discarded = 0

    def send(self, message):
        self.sent += 1
        if message.dest in self.closed:
            self.discarded += 1
            return
        self.pending[message.dest].append(message)
        self.age[message.uid] = 0

    def close(self, dest):
        self.closed.add(dest)
        self.discarded += len(self.pending[dest])
        for message in self.pending[dest]:
            del self.age[message.uid]
        self.pending[dest] = []

    def note(self, dest):
        for message in self.pending[dest]:
            self.age[message.uid] += 1

    def _remove(self, message):
        self.pending[message.dest].remove(message)
        del self.age[message.uid]

    def deliver(self, message):
        self._remove(message)
        self.delivered += 1

    def supersede(self, message):
        self._remove(message)
        self.superseded += 1

    def entries(self, dest):
        """``(message, age)`` pairs pending for ``dest``, oldest first."""
        return [(m, self.age[m.uid]) for m in self.pending[dest]]

    def view(self, dest):
        return [(m.uid, age) for m, age in self.entries(dest)]

    def counts(self):
        return (self.sent, self.delivered, self.superseded, self.discarded)


def buffer_view(buffer, dest):
    now = buffer._dest_steps.get(dest, 0)
    return [
        (entry.message.uid, now - entry.sent_at_dest_step)
        for entry in buffer.entries_for(dest)
    ]


def buffer_counts(buffer):
    return (
        buffer.sent_count,
        buffer.delivered_count,
        buffer.superseded_count,
        buffer.discarded_count,
    )


def take(index):
    """A pick that names ``queue[index % len(queue)]``; -1 is lambda."""
    return lambda queue, now, rng: index if index < 0 else index % len(queue)


def supersede(index):
    """A pick that drops ``queue[index % len(queue)]`` and receives lambda."""

    def pick(queue, now, rng):
        del queue[index % len(queue)]
        return -1

    return pick


def apply(op, buffer, reference, clock):
    """One op on both; odd senders send coalescible ``("dag", ...)``."""
    kind = op[0]
    if kind == "send":
        tag = "dag" if op[1] % 2 else "m"
        message = buffer.send(op[1], op[2], (tag, clock), now=clock)
        reference.send(message)
    elif kind == "close":
        buffer.close(op[1])
        reference.close(op[1])
    else:
        dest = op[1]
        pending = reference.pending[dest]
        chosen = pending[op[2] % len(pending)] if len(op) > 2 and pending else None
        reference.note(dest)
        if kind == "lambda" or chosen is None:
            assert buffer.receive(dest, take(-1), None) is None
        elif kind == "supersede":
            assert buffer.receive(dest, supersede(op[2]), None) is None
            reference.supersede(chosen)
        else:
            assert buffer.receive(dest, take(op[2]), None) == chosen
            reference.deliver(chosen)


@settings(max_examples=200, deadline=None)
@given(OPS)
def test_ages_equal_the_per_step_reference(ops):
    buffer, reference = MessageBuffer(), ReferenceAges()
    for clock, op in enumerate(ops):
        apply(op, buffer, reference, clock)
        for dest in range(N):
            view = buffer_view(buffer, dest)
            assert view == reference.view(dest)
            ages = [age for _, age in view]
            assert ages == sorted(ages, reverse=True)  # the oldest is up front
        assert buffer_counts(buffer) == reference.counts()
        assert buffer.in_flight == sum(map(len, reference.pending.values()))


class NoDraws(random.Random):
    """A forced delivery is decided before any random draw."""

    def random(self):
        raise AssertionError("forced delivery must not consult the rng")

    def getrandbits(self, k):
        raise AssertionError("forced delivery must not consult the rng")


@settings(max_examples=150, deadline=None)
@given(
    OPS,
    st.sampled_from([FairRandomDelivery, PerSenderFifoDelivery]),
    st.integers(1, 6),
    st.integers(0, 2**16),
)
def test_forced_delivery_at_max_age(ops, policy_cls, max_age, seed):
    policy = policy_cls(lambda_prob=0.9, max_age=max_age)
    buffer, reference = MessageBuffer(), ReferenceAges()
    rng = random.Random(seed)
    for clock, op in enumerate(ops):
        apply(op, buffer, reference, clock)
        dest = clock % N
        reference.note(dest)
        entries = reference.entries(dest)
        if entries and entries[0][1] >= max_age:
            chosen = buffer.receive(dest, policy.pick, NoDraws())
            assert chosen == entries[0][0]
        else:
            chosen = buffer.receive(dest, policy.pick, rng)
            assert chosen is None or chosen in dict(entries)
        if chosen is not None:
            reference.deliver(chosen)


def is_dag(message):
    return message.payload[0] == "dag"


def drop_stale(reference, dest):
    """Supersede, per sender, every pending DAG but its newest."""
    newest = {}
    for message in reference.pending[dest]:
        if is_dag(message):
            newest[message.sender] = max(
                newest.get(message.sender, -1), message.uid[1]
            )
    for message in list(reference.pending[dest]):
        if is_dag(message) and message.uid[1] < newest[message.sender]:
            reference.supersede(message)


@settings(max_examples=150, deadline=None)
@given(OPS, st.integers(0, 2**16))
def test_coalescing_still_supersedes(ops, seed):
    # Odd senders' payloads are coalescible: only the newest may survive.
    policy = CoalescingDelivery(
        inner=FairRandomDelivery(lambda_prob=0.5, max_age=4),
        coalescible=lambda payload: payload[0] == "dag",
    )
    buffer, reference = MessageBuffer(), ReferenceAges()
    rng = random.Random(seed)
    for clock, op in enumerate(ops):
        apply(op, buffer, reference, clock)
        dest = clock % N
        reference.note(dest)
        drop_stale(reference, dest)
        chosen = buffer.receive(dest, policy.pick, rng)
        if chosen is not None:
            reference.deliver(chosen)
        assert buffer.superseded_count == reference.superseded
        assert buffer_view(buffer, dest) == reference.view(dest)


# ----------------------------------------------------------------------
# Every shipped policy's pick against its long-hand choice.
# ----------------------------------------------------------------------


def fair_random(entries, rng):
    """FairRandomDelivery long-hand: the oldest once due, else lambda or
    ``rng.choice``."""
    oldest, age = max(entries, key=lambda entry: entry[1])
    if age >= MAX_AGE:
        return oldest
    if rng.random() < LAMBDA_PROB:
        return None
    return rng.choice(entries)[0]


def per_sender_fifo(entries, rng):
    oldest, age = max(entries, key=lambda entry: entry[1])
    if age >= MAX_AGE:
        return oldest
    if rng.random() < LAMBDA_PROB:
        return None
    sender = rng.choice(sorted({message.sender for message, _ in entries}))
    return next(message for message, _ in entries if message.sender == sender)


def oldest_first(entries, rng):
    return max(entries, key=lambda entry: entry[1])[0]


def long_hand(name, reference, dest, rng, released):
    """One step of ``dest`` under policy ``name``, the long way; returns
    the message received (``None`` for lambda)."""
    reference.note(dest)
    if name == "coalescing":
        drop_stale(reference, dest)
    entries = reference.entries(dest)
    if name == "blocking" and not released:
        entries = [(m, age) for m, age in entries if m.sender != 0]
    if not entries:
        return None
    choose = {"per-sender-fifo": per_sender_fifo, "oldest-first": oldest_first}
    message = choose.get(name, fair_random)(entries, rng)
    if message is not None:
        reference.deliver(message)
    return message


#: Every shipped policy, built fresh (a blocking policy has state).
POLICIES = {
    "fair-random": lambda: FairRandomDelivery(LAMBDA_PROB, MAX_AGE),
    "per-sender-fifo": lambda: PerSenderFifoDelivery(LAMBDA_PROB, MAX_AGE),
    "oldest-first": OldestFirstDelivery,
    "coalescing": lambda: CoalescingDelivery(
        inner=FairRandomDelivery(LAMBDA_PROB, MAX_AGE),
        coalescible=lambda payload: payload[0] == "dag",
    ),
    # Messages from p0 are held back until the op list releases them.
    "blocking": lambda: BlockingPolicy(
        FairRandomDelivery(LAMBDA_PROB, MAX_AGE),
        blocked=lambda message: message.sender == 0,
    ),
}

# Sends and receives in equal shares, so queues hold several messages;
# one op in 20 opens the blocked links.
RECEIVE_OPS = st.lists(
    st.sampled_from(["send"] * 8 + ["receive"] * 8 + ["op"] * 3 + ["release"])
    .flatmap(
        lambda kind: {
            "send": SEND,
            "receive": st.tuples(st.just("receive"), st.integers(0, N - 1)),
            "op": OP,
            "release": st.just(("release",)),
        }[kind]
    ),
    min_size=10,
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(RECEIVE_OPS, st.sampled_from(sorted(POLICIES)), st.integers(0, 2**16))
def test_receive_matches_the_long_hand_choice(ops, name, seed):
    policy = POLICIES[name]()
    buffer, reference = MessageBuffer(), ReferenceAges()
    rng, twin_rng = random.Random(seed), random.Random(seed)
    released = False
    for clock, op in enumerate(ops):
        if op[0] == "receive":
            received = buffer.receive(op[1], policy.pick, rng)
            expected = long_hand(name, reference, op[1], twin_rng, released)
            assert received == expected
            assert rng.getstate() == twin_rng.getstate()
        elif op[0] == "release":
            released = True
            if name == "blocking":
                policy.release()
        else:
            apply(op, buffer, reference, clock)
        for dest in range(N):
            assert buffer_view(buffer, dest) == reference.view(dest)
        assert buffer_counts(buffer) == reference.counts()
