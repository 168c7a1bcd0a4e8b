"""The message buffer M and delivery policies (Sections 2.1, 2.4, 2.6).

The model's message buffer is a set of triples ``(p, data, q)``: process
``p`` sent ``data`` to ``q`` and ``q`` has not yet received it.  Messages are
unique (the model stipulates a per-sender counter), which we realize with a
``uid = (sender, seq)`` stamped by the buffer.

Receipt is nondeterministic: in each step a process receives either a pending
message addressed to it or the empty message (lambda).
:meth:`MessageBuffer.receive` is the one way a step receives: the buffer counts
the step and delivers, and a :class:`DeliveryPolicy` only picks the entry (or
lambda).  Admissibility property (7) — every message
sent to a correct process is eventually received — is realized by giving the
shipped policies a *fairness aging* rule: once a message has been passed over
often enough it is delivered with certainty.

Policies draw randomness from a per-destination stream and measure message
age in the destination's local step count, never from global state.  This
makes a process's behaviour a function of its own observation sequence, which
the partition adversary of Theorem 7.1 exploits (indistinguishable runs must
stay indistinguishable in the simulator, too).

A crashed process takes no further steps, so a message addressed to it can
never be received, and property (7) asks for delivery only to correct
processes.  :meth:`MessageBuffer.close` therefore closes a crashed process's
mailbox: its pending queue is dropped, and later sends to it are stamped and
counted but never queued.  No step can tell the difference, because a
delivery policy only ever looks at the queue of the process that steps.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)


class Message(NamedTuple):
    """A unique in-flight message ``(sender, payload, dest)``."""

    sender: int
    dest: int
    payload: Any
    uid: Tuple[int, int]  # (sender, per-sender sequence number)
    sent_at: int  # global time at which the send step occurred

    def __repr__(self) -> str:
        return (
            f"Message({self.sender}->{self.dest} #{self.uid[1]} "
            f"@{self.sent_at}: {self.payload!r})"
        )


class _PendingEntry(NamedTuple):
    """A pending message plus what its age is measured from.

    A message's age is the number of steps its destination has taken
    since the message became pending: the destination's step count now
    (the ``now`` a policy is handed) minus its step count at the send,
    which the entry stores.  Nothing is touched per step.
    """

    message: Message
    sent_at_dest_step: int


#: ``tuple.__new__``: builds a :class:`Message` or :class:`_PendingEntry`
#: from its field tuple without the Python-level ``NamedTuple.__new__``.
_new_tuple = tuple.__new__

#: Shared empty queue returned for destinations with nothing pending.
_NO_ENTRIES: List[_PendingEntry] = []


#: A delivery policy's pick: ``(queue, now, rng) -> index | -1``.
Pick = Callable[[List[_PendingEntry], int, random.Random], int]


class MessageBuffer:
    """The message buffer ``M``, with per-destination pending queues."""

    def __init__(self) -> None:
        self._pending: Dict[int, List[_PendingEntry]] = {}
        # Steps taken per destination (a defaultdict: read by subscript).
        self._dest_steps: Dict[int, int] = defaultdict(int)
        self._seq: Dict[int, int] = {}
        self._closed: Set[int] = set()  # destinations that take no more steps
        self._sent_count = 0
        self._delivered_count = 0
        self._discarded_count = 0

    # ------------------------------------------------------------------
    # Sending and receiving
    # ------------------------------------------------------------------

    def send(self, sender: int, dest: int, payload: Any, now: int) -> Message:
        """Place a new unique message in the buffer and return it."""
        return self.send_all(sender, ((dest, payload),), now)[0]

    def send_all(
        self, sender: int, sends: Iterable[Tuple[int, Any]], now: int
    ) -> List[Message]:
        """Place one step's sends, ``(dest, payload)`` pairs, in the buffer
        in order; returns their messages.

        A message to a closed destination is stamped, counted and returned
        like any other, but it is not queued."""
        seq = self._seq.get(sender, 0)
        pending, closed, steps = self._pending, self._closed, self._dest_steps
        messages = []
        for dest, payload in sends:
            message = _new_tuple(
                Message, (sender, dest, payload, (sender, seq), now)
            )
            seq += 1
            messages.append(message)
            if dest in closed:
                self._discarded_count += 1
                continue
            queue = pending.get(dest)
            if queue is None:
                queue = pending[dest] = []
            queue.append(_new_tuple(_PendingEntry, (message, steps[dest])))
        self._seq[sender] = seq
        self._sent_count += len(messages)
        return messages

    def receive(
        self, dest: int, pick: Pick, rng: random.Random
    ) -> Optional[Message]:
        """One step's receipt for ``dest``: the message received, or
        ``None`` for lambda.

        Counts the step, then hands ``pick`` the live queue of ``dest``
        (never empty: an empty queue is lambda without a pick) and
        ``dest``'s step count ``now``, this step included; pops the
        entry at the index ``pick`` returns and counts the delivery, or
        receives lambda on ``-1``.
        """
        steps = self._dest_steps
        now = steps[dest] + 1
        steps[dest] = now
        queue = self._pending.get(dest)
        if not queue:
            return None
        index = pick(queue, now, rng)
        if index < 0:
            return None
        self._delivered_count += 1
        return queue.pop(index).message

    def close(self, dest: int) -> None:
        """Close ``dest``'s mailbox: ``dest`` has crashed and takes no more
        steps, so what is pending for it and what is sent to it later can
        never be received.  Both are dropped and counted as discarded.
        Closing a closed mailbox does nothing."""
        self._closed.add(dest)
        self._discarded_count += len(self._pending.pop(dest, _NO_ENTRIES))

    def pending_for(self, dest: int) -> List[Message]:
        """Pending messages addressed to ``dest``, oldest first."""
        return [entry.message for entry in self._pending.get(dest, [])]

    def has_pending(self, dest: int) -> bool:
        return bool(self._pending.get(dest))

    def entries_for(self, dest: int) -> Sequence[_PendingEntry]:
        """Pending entries for ``dest``, oldest first (the live queue: read
        only).  Sends append, so ``sent_at_dest_step`` is non-decreasing
        along it and the first entry is always the oldest."""
        return self._pending.get(dest, _NO_ENTRIES)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def sent_count(self) -> int:
        return self._sent_count

    @property
    def delivered_count(self) -> int:
        return self._delivered_count

    @property
    def superseded_count(self) -> int:
        """Messages a policy dropped from a queue as superseded by a newer
        equivalent (:class:`CoalescingDelivery`): what left the buffer
        neither by delivery nor by :meth:`close`."""
        return (
            self._sent_count
            - self._delivered_count
            - self._discarded_count
            - self.in_flight
        )

    @property
    def discarded_count(self) -> int:
        """Messages dropped by :meth:`close`, or sent to a closed mailbox."""
        return self._discarded_count

    @property
    def in_flight(self) -> int:
        """Pending messages that can still be received: those addressed to
        a closed mailbox are not kept, so they are not counted.
        ``sent - delivered - superseded - discarded == in_flight``."""
        return sum(len(v) for v in self._pending.values())

    def __repr__(self) -> str:
        return (
            f"MessageBuffer(in_flight={self.in_flight}, "
            f"sent={self._sent_count}, delivered={self._delivered_count})"
        )


class DeliveryPolicy:
    """Picks the message (or lambda) a stepping process receives."""

    def pick(
        self, queue: List[_PendingEntry], now: int, rng: random.Random
    ) -> int:
        """The index in ``queue`` of the entry to deliver, or -1 for lambda.

        ``queue`` holds the destination's pending entries, oldest first,
        and is never empty; ``now`` is the destination's step count, this
        step included, so an entry's age is ``now - sent_at_dest_step``;
        ``rng`` is the destination's private random stream.  Policies must
        not consult any other global state (see module docstring), and
        only a superseding policy removes entries from ``queue``.
        """
        raise NotImplementedError

    def ensures_eventual_delivery(self) -> bool:
        """Whether the policy satisfies admissibility property (7)."""
        raise NotImplementedError


def _check_fairness(lambda_prob: Any, max_age: Any) -> None:
    """``ValueError`` unless both are numbers, ``0 <= lambda_prob < 1``
    and ``max_age >= 1`` (the aging rule's parameters)."""
    for value in (lambda_prob, max_age):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"delivery parameter {value!r} is not a number")
    if not 0.0 <= lambda_prob < 1.0:
        raise ValueError("lambda_prob must be in [0, 1)")
    if max_age < 1:
        raise ValueError("max_age must be >= 1")


class OldestFirstDelivery(DeliveryPolicy):
    """Always deliver the oldest pending message (lambda only when empty).

    The canonical schedule construction in the proof of Lemma 4.10 uses
    exactly this rule.
    """

    def pick(self, queue, now, rng):
        return 0

    def ensures_eventual_delivery(self) -> bool:
        return True


class FairRandomDelivery(DeliveryPolicy):
    """Random delivery with an aging bound.

    With probability ``lambda_prob`` the step receives lambda even though
    messages are pending; otherwise a uniformly random pending message is
    delivered.  Any message that has been pending for more than ``max_age``
    of the destination's steps is delivered first, which bounds skew and
    guarantees property (7) on every admissible run.
    """

    def __init__(self, lambda_prob: float = 0.25, max_age: int = 40):
        _check_fairness(lambda_prob, max_age)
        self.lambda_prob = lambda_prob
        self.max_age = max_age

    def pick(self, queue, now, rng):
        # Ages are non-increasing along the queue: the max is up front.
        if now - queue[0].sent_at_dest_step >= self.max_age:
            return 0
        if rng.random() < self.lambda_prob:
            return -1
        # rng.choice(queue), draw for draw: the stdlib's
        # _randbelow_with_getrandbits, inlined.
        count = len(queue)
        bits = count.bit_length()
        index = rng.getrandbits(bits)
        while index >= count:
            index = rng.getrandbits(bits)
        return index

    def ensures_eventual_delivery(self) -> bool:
        return True


class PerSenderFifoDelivery(DeliveryPolicy):
    """Pick a random sender with pending traffic; deliver its oldest message.

    Sender choice uses only the destination's private stream and the set of
    senders with pending messages, so two runs in which a destination sees
    the same pending-sender sets make the same choices — the property the
    Theorem 7.1 adversary relies on.
    """

    def __init__(self, lambda_prob: float = 0.2, max_age: int = 60):
        _check_fairness(lambda_prob, max_age)
        self.lambda_prob = lambda_prob
        self.max_age = max_age

    def pick(self, queue, now, rng):
        # Ages are non-increasing along the queue: the max is up front.
        if now - queue[0].sent_at_dest_step >= self.max_age:
            return 0
        if rng.random() < self.lambda_prob:
            return -1
        sender = rng.choice(sorted({e.message.sender for e in queue}))
        for index, entry in enumerate(queue):
            if entry.message.sender == sender:
                return index
        raise AssertionError("unreachable: sender chosen from pending set")

    def ensures_eventual_delivery(self) -> bool:
        return True


class BlockingPolicy(DeliveryPolicy):
    """Wrap a policy, holding back messages matching a predicate.

    Used to build the delayed-link scenarios of Theorem 7.1 (messages across
    a partition are withheld until the driver opens the links) and the
    lost-write scenario of the register counterexample.  Messages matching
    ``blocked`` are invisible to the inner policy until :meth:`release`:
    until then it picks from a copy of the unblocked entries, so it must
    not supersede (wrap a blocking policy in a :class:`CoalescingDelivery`,
    not the other way round).

    A blocking policy violates property (7) only if blocked messages to
    correct processes are never released; scenario drivers always release.
    """

    def __init__(self, inner: DeliveryPolicy, blocked: Callable[[Message], bool]):
        self.inner = inner
        self.blocked = blocked
        self._released = False

    def release(self) -> None:
        """Open the links: every step from the next one on sees all messages."""
        self._released = True

    def pick(self, queue, now, rng):
        if self._released:
            return self.inner.pick(queue, now, rng)
        blocked = self.blocked
        visible = [
            index for index, entry in enumerate(queue)
            if not blocked(entry.message)
        ]
        if not visible:
            return -1
        index = self.inner.pick([queue[i] for i in visible], now, rng)
        return -1 if index < 0 else visible[index]

    def ensures_eventual_delivery(self) -> bool:
        return self._released


class CoalescingDelivery(DeliveryPolicy):
    """Supersede stale *coalescible* messages by newer ones from the sender.

    The DAG-building algorithms broadcast their entire (monotonically
    growing) DAG at every step, which floods destinations faster than the
    one-receive-per-step model can drain.  Because a sender's later DAG
    contains all of its earlier ones, any schedule that delivers a newer DAG
    first turns the older deliveries into no-ops; this policy realizes the
    equivalent admissible run directly by dropping, per sender, every pending
    coalescible message older than the newest one (they are accounted as
    superseded, i.e. received-with-no-effect immediately after it).

    ``coalescible`` decides which payloads may be superseded (default: DAG
    payloads, including channel-tagged ``(tag, dag)`` wrappers).  All other
    traffic is left untouched and handled by ``inner``.
    """

    def __init__(
        self,
        inner: Optional[DeliveryPolicy] = None,
        coalescible: Optional[Callable[[Any], bool]] = None,
    ):
        self.inner = inner if inner is not None else FairRandomDelivery()
        self.coalescible = (
            coalescible if coalescible is not None else _default_coalescible
        )

    def pick(self, queue, now, rng):
        # A sender's messages sit in the queue in send order, so walking
        # it newest first, a coalescible message from a sender already
        # seen is stale.  The newest one stays: the queue stays non-empty.
        coalescible, seen = self.coalescible, set()
        for index in range(len(queue) - 1, -1, -1):
            message = queue[index].message
            if coalescible(message.payload):
                if message.sender in seen:
                    del queue[index]
                else:
                    seen.add(message.sender)
        return self.inner.pick(queue, now, rng)

    def ensures_eventual_delivery(self) -> bool:
        return self.inner.ensures_eventual_delivery()


def _default_coalescible(payload: Any) -> bool:
    """DAG payloads, possibly wrapped as ``(channel, dag)``."""
    if _looks_like_dag(payload):
        return True
    if (
        isinstance(payload, tuple)
        and len(payload) == 2
        and _looks_like_dag(payload[1])
    ):
        return True
    return False


def _looks_like_dag(payload: Any) -> bool:
    # Duck-typed to avoid a kernel -> core import cycle.
    return hasattr(payload, "add_local_sample") and hasattr(payload, "frontier")


def build_delivery(spec: Sequence[Any]) -> DeliveryPolicy:
    """A fresh delivery policy instance from its serializable spec.

    Specs are tuples of primitives — ``("fair-random", lambda_prob,
    max_age)``, ``("per-sender-fifo", lambda_prob, max_age)``,
    ``("oldest-first",)``, ``("coalescing"[, inner_spec])`` — the delivery
    half of the vocabulary :func:`repro.kernel.scheduler.build_scheduler`
    speaks, with the same ``ValueError`` on an unknown kind or a wrong
    number of fields.
    """
    kind, *args = spec
    if kind == "fair-random" and len(args) == 2:
        return FairRandomDelivery(lambda_prob=args[0], max_age=args[1])
    if kind == "per-sender-fifo" and len(args) == 2:
        return PerSenderFifoDelivery(lambda_prob=args[0], max_age=args[1])
    if kind == "oldest-first" and not args:
        return OldestFirstDelivery()
    if kind == "coalescing" and len(args) <= 1:
        inner = build_delivery(args[0]) if args else None
        return CoalescingDelivery(inner=inner)
    raise ValueError(
        f"bad delivery spec {spec!r}: unknown kind or wrong number of fields"
    )
