"""Message buffer and delivery policies (Sections 2.1, 2.6, property (7))."""

import random

import pytest

from repro.kernel.messages import (
    BlockingPolicy,
    CoalescingDelivery,
    FairRandomDelivery,
    MessageBuffer,
    OldestFirstDelivery,
    PerSenderFifoDelivery,
)


def fill(buffer, triples, start_time=0):
    out = []
    for i, (sender, dest, payload) in enumerate(triples):
        out.append(buffer.send(sender, dest, payload, now=start_time + i))
    return out


class TestMessageBuffer:
    def test_send_assigns_unique_uids_per_sender(self):
        buffer = MessageBuffer()
        m1 = buffer.send(0, 1, "a", now=0)
        m2 = buffer.send(0, 2, "b", now=0)
        m3 = buffer.send(1, 2, "c", now=0)
        assert m1.uid == (0, 0)
        assert m2.uid == (0, 1)
        assert m3.uid == (1, 0)

    def test_pending_for_is_per_destination_oldest_first(self):
        buffer = MessageBuffer()
        fill(buffer, [(0, 1, "a"), (0, 2, "b"), (1, 1, "c")])
        pending = buffer.pending_for(1)
        assert [m.payload for m in pending] == ["a", "c"]

    def test_deliver_removes_exactly_one(self):
        buffer = MessageBuffer()
        msgs = fill(buffer, [(0, 1, "a"), (0, 1, "a")])
        buffer.deliver(msgs[0])
        assert buffer.pending_for(1) == [msgs[1]]
        assert buffer.delivered_count == 1

    def test_deliver_unknown_raises(self):
        buffer = MessageBuffer()
        msg = buffer.send(0, 1, "a", now=0)
        buffer.deliver(msg)
        with pytest.raises(LookupError):
            buffer.deliver(msg)

    def test_supersede_counts_separately(self):
        buffer = MessageBuffer()
        msgs = fill(buffer, [(0, 1, "old"), (0, 1, "new")])
        buffer.supersede(msgs[0])
        assert buffer.superseded_count == 1
        assert buffer.delivered_count == 0
        assert buffer.pending_for(1) == [msgs[1]]

    def test_aging_counts_destination_steps(self):
        buffer = MessageBuffer()
        fill(buffer, [(0, 1, "a")])
        buffer.note_dest_step(1)
        buffer.note_dest_step(1)
        buffer.note_dest_step(2)  # unrelated destination
        (entry,) = buffer.entries_for(1)
        assert entry.age_in_dest_steps == 2

    def test_in_flight_accounting(self):
        buffer = MessageBuffer()
        msgs = fill(buffer, [(0, 1, "a"), (1, 0, "b"), (0, 2, "c")])
        assert buffer.in_flight == 3
        buffer.deliver(msgs[1])
        assert buffer.in_flight == 2
        assert buffer.sent_count == 3

    def test_close_drops_the_pending_queue(self):
        buffer = MessageBuffer()
        msgs = fill(buffer, [(0, 2, "a"), (1, 2, "b"), (0, 1, "c")])
        buffer.close(2)
        assert buffer.pending_for(2) == [] and not buffer.has_pending(2)
        assert buffer.entries_for(2) == [] and buffer.oldest_for(2) is None
        assert buffer.pending_for(1) == [msgs[2]]
        assert (buffer.discarded_count, buffer.in_flight) == (2, 1)

    def test_sends_to_a_closed_mailbox_are_stamped_but_not_queued(self):
        buffer = MessageBuffer()
        buffer.send(0, 2, "before", now=0)
        buffer.close(2)
        late = buffer.send(0, 2, "late", now=5)
        after = buffer.send(0, 1, "other", now=6)
        assert late.uid == (0, 1) and late.sent_at == 5
        assert after.uid == (0, 2)
        assert not buffer.has_pending(2)
        assert buffer.sent_count == 3
        assert (buffer.discarded_count, buffer.in_flight) == (2, 1)

    def test_close_is_idempotent(self):
        buffer = MessageBuffer()
        fill(buffer, [(0, 2, "a")])
        buffer.close(2)
        buffer.close(2)
        buffer.close(3)  # nothing was ever sent to 3
        assert buffer.discarded_count == 1
        buffer.send(1, 3, "x", now=0)
        assert buffer.discarded_count == 2 and buffer.in_flight == 0


class TestOldestFirstDelivery:
    def test_delivers_oldest(self):
        buffer = MessageBuffer()
        msgs = fill(buffer, [(0, 1, "a"), (2, 1, "b")])
        policy = OldestFirstDelivery()
        assert policy.choose(buffer, 1, 0, random.Random(0)) == msgs[0]

    def test_lambda_only_when_empty(self):
        buffer = MessageBuffer()
        policy = OldestFirstDelivery()
        assert policy.choose(buffer, 1, 0, random.Random(0)) is None


class TestFairRandomDelivery:
    def test_aging_forces_overdue_delivery(self):
        buffer = MessageBuffer()
        msgs = fill(buffer, [(0, 1, "a")])
        policy = FairRandomDelivery(lambda_prob=0.99, max_age=3)
        rng = random.Random(0)
        for _ in range(3):
            buffer.note_dest_step(1)
        assert policy.choose(buffer, 1, 3, rng) == msgs[0]

    def test_every_message_eventually_delivered(self):
        """Property (7) on a finite run: drain a batch under the policy."""
        buffer = MessageBuffer()
        msgs = fill(buffer, [(s, 1, f"m{s}{i}") for s in range(3) for i in range(5)])
        policy = FairRandomDelivery(lambda_prob=0.5, max_age=10)
        rng = random.Random(42)
        delivered = []
        for step in range(500):
            buffer.note_dest_step(1)
            choice = policy.choose(buffer, 1, step, rng)
            if choice is not None:
                buffer.deliver(choice)
                delivered.append(choice.uid)
            if not buffer.has_pending(1):
                break
        assert sorted(delivered) == sorted(m.uid for m in msgs)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            FairRandomDelivery(lambda_prob=1.0)
        with pytest.raises(ValueError):
            FairRandomDelivery(max_age=0)

    def test_declares_eventual_delivery(self):
        assert FairRandomDelivery().ensures_eventual_delivery()


class TestPerSenderFifoDelivery:
    def test_fifo_within_sender(self):
        buffer = MessageBuffer()
        msgs = fill(buffer, [(0, 1, "first"), (0, 1, "second")])
        policy = PerSenderFifoDelivery(lambda_prob=0.0)
        rng = random.Random(5)
        first = policy.choose(buffer, 1, 0, rng)
        assert first == msgs[0]

    def test_choice_depends_only_on_pending_sender_set(self):
        """The determinism property the Theorem 7.1 adversary needs:
        identical pending-sender sets + identical rng states => identical
        choices, regardless of buffer interleaving."""
        def run(order):
            buffer = MessageBuffer()
            for sender, payload in order:
                buffer.send(sender, 9, payload, now=0)
            policy = PerSenderFifoDelivery(lambda_prob=0.0)
            choice = policy.choose(buffer, 9, 0, random.Random("fixed"))
            return choice.sender, choice.payload

        a = run([(0, "a0"), (1, "b0"), (0, "a1")])
        b = run([(1, "b0"), (0, "a0"), (0, "a1")])
        assert a == b


class TestBlockingPolicy:
    def test_blocked_messages_invisible_until_release(self):
        buffer = MessageBuffer()
        msgs = fill(buffer, [(0, 1, "cross"), (2, 1, "local")])
        policy = BlockingPolicy(
            inner=OldestFirstDelivery(), blocked=lambda m: m.sender == 0
        )
        assert policy.choose(buffer, 1, 0, random.Random(0)) == msgs[1]
        policy.release()
        assert policy.choose(buffer, 1, 0, random.Random(0)) == msgs[0]

    def test_eventual_delivery_depends_on_release(self):
        policy = BlockingPolicy(OldestFirstDelivery(), blocked=lambda m: True)
        assert not policy.ensures_eventual_delivery()
        policy.release()
        assert policy.ensures_eventual_delivery()


class _FakeDag:
    """Duck-typed stand-in recognized by the coalescing predicate."""

    def add_local_sample(self):  # pragma: no cover - structural only
        pass

    @property
    def frontier(self):  # pragma: no cover - structural only
        return ()


class TestCoalescingDelivery:
    def test_supersedes_older_dags_from_same_sender(self):
        buffer = MessageBuffer()
        old = buffer.send(0, 1, _FakeDag(), now=0)
        new = buffer.send(0, 1, _FakeDag(), now=1)
        policy = CoalescingDelivery(inner=OldestFirstDelivery())
        choice = policy.choose(buffer, 1, 0, random.Random(0))
        assert choice == new
        assert buffer.superseded_count == 1

    def test_keeps_dags_from_different_senders(self):
        buffer = MessageBuffer()
        a = buffer.send(0, 1, _FakeDag(), now=0)
        b = buffer.send(2, 1, _FakeDag(), now=0)
        policy = CoalescingDelivery(inner=OldestFirstDelivery())
        policy.choose(buffer, 1, 0, random.Random(0))
        assert buffer.superseded_count == 0

    def test_ignores_non_dag_payloads(self):
        buffer = MessageBuffer()
        first = buffer.send(0, 1, ("REP", 1, "v"), now=0)
        second = buffer.send(0, 1, ("REP", 2, "v"), now=1)
        policy = CoalescingDelivery(inner=OldestFirstDelivery())
        choice = policy.choose(buffer, 1, 0, random.Random(0))
        assert choice == first
        assert buffer.superseded_count == 0

    def test_coalesces_channel_wrapped_dags(self):
        buffer = MessageBuffer()
        buffer.send(0, 1, ("B", _FakeDag()), now=0)
        newest = buffer.send(0, 1, ("B", _FakeDag()), now=1)
        policy = CoalescingDelivery(inner=OldestFirstDelivery())
        choice = policy.choose(buffer, 1, 0, random.Random(0))
        assert choice == newest
        assert buffer.superseded_count == 1
