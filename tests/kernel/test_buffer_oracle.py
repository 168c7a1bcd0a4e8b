"""Message age against a per-step-increment reference.

The buffer defines a pending message's age as the destination's step count
now minus its step count at the send, and touches nothing per step.  The
reference here does it the long way — one counter per pending message,
incremented on every step of its destination — and the two must agree
after every operation of a random ``send`` / ``note_dest_step`` /
``deliver`` / ``supersede`` / ``close`` interleaving.  A closed destination
(a crashed process) keeps nothing: the reference drops its pending
messages and ignores later sends to it.  The fairness rules that read the
age (forced delivery at ``max_age``) and the coalescing policy are pinned
on top of the same interleavings, and so is every shipped policy's
one-call ``receive`` against the ``note_dest_step`` + ``choose`` +
``deliver`` it stands for.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.messages import (
    BlockingPolicy,
    CoalescingDelivery,
    FairRandomDelivery,
    Message,
    MessageBuffer,
    OldestFirstDelivery,
    PerSenderFifoDelivery,
)

N = 3

SEND = st.tuples(st.just("send"), st.integers(0, N - 1), st.integers(0, N - 1))
OP = st.one_of(
    SEND,
    st.tuples(st.just("note"), st.integers(0, N - 1)),
    st.tuples(st.just("deliver"), st.integers(0, N - 1), st.integers(0, 7)),
    st.tuples(st.just("deliver-copy"), st.integers(0, N - 1), st.integers(0, 7)),
    st.tuples(st.just("supersede"), st.integers(0, N - 1), st.integers(0, 7)),
    st.tuples(st.just("close"), st.integers(0, N - 1)),
)
OPS = st.lists(OP, max_size=60)


class ReferenceAges:
    """uid -> age, aged one destination step at a time."""

    def __init__(self):
        self.pending = {p: [] for p in range(N)}  # dest -> [uid], oldest first
        self.age = {}
        self.closed = set()
        self.discarded = 0

    def send(self, message):
        if message.dest in self.closed:
            self.discarded += 1
            return
        self.pending[message.dest].append(message.uid)
        self.age[message.uid] = 0

    def close(self, dest):
        self.closed.add(dest)
        self.discarded += len(self.pending[dest])
        for uid in self.pending[dest]:
            del self.age[uid]
        self.pending[dest] = []

    def note(self, dest):
        for uid in self.pending[dest]:
            self.age[uid] += 1

    def remove(self, message):
        self.pending[message.dest].remove(message.uid)
        del self.age[message.uid]

    def view(self, dest):
        return [(uid, self.age[uid]) for uid in self.pending[dest]]


def buffer_view(buffer, dest):
    return [
        (entry.message.uid, entry.age_in_dest_steps)
        for entry in buffer.entries_for(dest)
    ]


def apply(op, buffer, reference, clock):
    kind = op[0]
    if kind == "send":
        message = buffer.send(op[1], op[2], ("m", clock), now=clock)
        reference.send(message)
    elif kind == "note":
        buffer.note_dest_step(op[1])
        reference.note(op[1])
    elif kind == "close":
        buffer.close(op[1])
        reference.close(op[1])
    else:
        pending = buffer.pending_for(op[1])
        if not pending:
            return
        message = pending[op[2] % len(pending)]
        reference.remove(message)
        if kind == "supersede":
            buffer.supersede(message)
        elif kind == "deliver-copy":  # equal, not identical: matched by uid
            buffer.deliver(Message(*message))
        else:
            buffer.deliver(message)


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
    assert buffer.discarded_count == reference.discarded
    removed = (
        buffer.delivered_count + buffer.superseded_count + buffer.discarded_count
    )
    assert buffer.sent_count - removed == buffer.in_flight


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
        for dest in range(N):
            view = reference.view(dest)
            if view and view[0][1] >= max_age:
                chosen = policy.choose(buffer, dest, clock, NoDraws())
                assert chosen is not None and chosen.uid == view[0][0]
            else:
                chosen = policy.choose(buffer, dest, clock, rng)
                assert chosen is None or chosen.uid in dict(view)


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
        if op[0] == "send" and op[1] % 2:
            message = buffer.send(op[1], op[2], ("dag", clock), now=clock)
            reference.send(message)
        else:
            apply(op, buffer, reference, clock)
        dest = clock % N
        before = buffer.pending_for(dest)
        superseded_before = buffer.superseded_count
        policy.choose(buffer, dest, clock, rng)
        newest = {}
        for message in before:
            if message.payload[0] == "dag":
                newest[message.sender] = max(
                    newest.get(message.sender, -1), message.uid[1]
                )
        stale = [
            m for m in before
            if m.payload[0] == "dag" and m.uid[1] < newest[m.sender]
        ]
        for message in stale:
            reference.remove(message)
        assert buffer.superseded_count - superseded_before == len(stale)
        assert buffer_view(buffer, dest) == reference.view(dest)


#: Every shipped policy, built fresh (a blocking policy has state).
POLICIES = {
    "fair-random": lambda: FairRandomDelivery(lambda_prob=0.3, max_age=4),
    "per-sender-fifo": lambda: PerSenderFifoDelivery(
        lambda_prob=0.3, max_age=4
    ),
    "oldest-first": OldestFirstDelivery,
    "coalescing": lambda: CoalescingDelivery(
        inner=FairRandomDelivery(lambda_prob=0.3, max_age=4),
        coalescible=lambda payload: payload[0] == "dag",
    ),
    # Messages from p0 are held back until the op list releases them.
    "blocking": lambda: BlockingPolicy(
        FairRandomDelivery(lambda_prob=0.3, max_age=4),
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


def buffer_state(buffer):
    return (
        [buffer_view(buffer, dest) for dest in range(N)],
        buffer.sent_count,
        buffer.delivered_count,
        buffer.superseded_count,
        buffer.discarded_count,
    )


@settings(max_examples=200, deadline=None)
@given(RECEIVE_OPS, st.sampled_from(sorted(POLICIES)), st.integers(0, 2**16))
def test_receive_is_note_choose_deliver(ops, name, seed):
    # Twin buffers, policies and streams: ``receive`` steps one,
    # ``note_dest_step`` + ``choose`` + ``deliver`` the other.
    policy, twin_policy = POLICIES[name](), POLICIES[name]()
    buffer, twin = MessageBuffer(), MessageBuffer()
    rng, twin_rng = random.Random(seed), random.Random(seed)
    for clock, op in enumerate(ops):
        kind = op[0]
        if kind == "receive":
            dest = op[1]
            received = policy.receive(buffer, dest, rng)
            expected = twin_policy.choose(
                twin, dest, twin.note_dest_step(dest), twin_rng
            )
            if expected is not None:
                twin.deliver(expected)
            assert received == expected
            assert rng.getstate() == twin_rng.getstate()
        elif kind == "release":
            for each in (policy, twin_policy):
                if isinstance(each, BlockingPolicy):
                    each.release()
        elif kind == "send":
            tag = "dag" if op[1] % 2 else "m"  # odd senders coalesce
            for each in (buffer, twin):
                each.send(op[1], op[2], (tag, clock), now=clock)
        elif kind == "note":
            for each in (buffer, twin):
                each.note_dest_step(op[1])
        elif kind == "close":
            for each in (buffer, twin):
                each.close(op[1])
        else:
            pending = buffer.pending_for(op[1])
            if pending:
                message = pending[op[2] % len(pending)]
                for each in (buffer, twin):  # the twin's copy, by uid
                    if kind == "supersede":
                        each.supersede(message)
                    else:
                        each.deliver(message)
        assert buffer_state(buffer) == buffer_state(twin)
        removed = (
            buffer.delivered_count
            + buffer.superseded_count
            + buffer.discarded_count
        )
        assert buffer.sent_count - removed == buffer.in_flight
