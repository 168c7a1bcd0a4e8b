"""The message buffer M and delivery policies (Sections 2.1, 2.4, 2.6).

The model's message buffer is a set of triples ``(p, data, q)``: process
``p`` sent ``data`` to ``q`` and ``q`` has not yet received it.  Messages are
unique (the model stipulates a per-sender counter), which we realize with a
``uid = (sender, seq)`` stamped by the buffer.

Receipt is nondeterministic: in each step a process receives either a pending
message addressed to it or the empty message (lambda).  That choice is made
by a :class:`DeliveryPolicy`.  Admissibility property (7) — every message
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
    minus its step count at the send, which the entry stores.  Nothing is
    touched per step.
    """

    message: Message
    sent_at_dest_step: int
    dest_steps: Dict[int, int]  # the buffer's live per-destination counts

    @property
    def age_in_dest_steps(self) -> int:
        """The aging counter used by fairness rules."""
        return (
            self.dest_steps.get(self.message.dest, 0) - self.sent_at_dest_step
        )


#: ``tuple.__new__``: builds a :class:`Message` or :class:`_PendingEntry`
#: from its field tuple without the Python-level ``NamedTuple.__new__``.
_new_tuple = tuple.__new__

#: Shared empty queue returned for destinations with nothing pending.
_NO_ENTRIES: List[_PendingEntry] = []


class MessageBuffer:
    """The message buffer ``M``, with per-destination pending queues."""

    def __init__(self) -> None:
        self._pending: Dict[int, List[_PendingEntry]] = {}
        # Steps noted per destination (a defaultdict: read by subscript).
        self._dest_steps: Dict[int, int] = defaultdict(int)
        self._seq: Dict[int, int] = {}
        self._closed: Set[int] = set()  # destinations that take no more steps
        self._sent_count = 0
        self._delivered_count = 0
        self._superseded_count = 0
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
            queue.append(
                _new_tuple(_PendingEntry, (message, steps[dest], steps))
            )
        self._seq[sender] = seq
        self._sent_count += len(messages)
        return messages

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

    def deliver(self, message: Message) -> None:
        """Remove ``message`` from the buffer (it is being received)."""
        self._remove(message)
        self._delivered_count += 1

    def supersede(self, message: Message) -> None:
        """Remove ``message`` as superseded by a newer equivalent.

        Counted separately from deliveries; semantically the message is
        received immediately after the message that subsumes it, where it
        changes nothing."""
        self._remove(message)
        self._superseded_count += 1

    def _remove(self, message: Message) -> None:
        entries = self._pending.get(message.dest, _NO_ENTRIES)
        uid = message.uid
        for i, entry in enumerate(entries):
            pending = entry.message
            # The message handed back is nearly always the pending object
            # itself; uids settle the rest (a rebuilt but equal message).
            if pending is message or pending.uid == uid:
                del entries[i]
                return
        raise LookupError(f"{message!r} is not pending")

    def note_dest_step(self, dest: int) -> int:
        """Age every message pending for ``dest`` by one destination step;
        returns the step's index among ``dest``'s steps (0 for its first)."""
        steps = self._dest_steps
        index = steps[dest]
        steps[dest] = index + 1
        return index

    def oldest_for(self, dest: int) -> Optional[Message]:
        entries = self._pending.get(dest, [])
        return entries[0].message if entries else None

    def entries_for(self, dest: int) -> Sequence[_PendingEntry]:
        """Pending entries for ``dest``, oldest first.

        The returned sequence is the live queue — callers must treat it as
        read-only (policies that remove entries copy it first; only
        ``FairRandomDelivery.receive``, in this module, pops from it and
        counts the delivery).  Because
        sends append and aging is uniform, ``age_in_dest_steps`` is
        non-increasing along it: the first entry is always the oldest.
        """
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
        return self._superseded_count

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
    """Chooses the message (or lambda) a stepping process receives."""

    def receive(
        self, buffer: MessageBuffer, dest: int, rng: random.Random
    ) -> Optional[Message]:
        """One step's receipt for ``dest``: note the step, choose, deliver.

        Returns the received message, or ``None`` for lambda.  The kernel
        calls this once per step; a policy may override it with a cheaper
        pass that makes the same draws and the same delivery.
        """
        message = self.choose(buffer, dest, buffer.note_dest_step(dest), rng)
        if message is not None:
            buffer.deliver(message)
        return message

    def choose(
        self,
        buffer: MessageBuffer,
        dest: int,
        dest_step_index: int,
        rng: random.Random,
    ) -> Optional[Message]:
        """Return a pending message for ``dest``, or ``None`` for lambda.

        ``rng`` is the destination's private random stream and
        ``dest_step_index`` counts the destination's own steps; policies must
        not consult any other global state (see module docstring).
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

    def choose(self, buffer, dest, dest_step_index, rng):
        return buffer.oldest_for(dest)

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

    def choose(self, buffer, dest, dest_step_index, rng):
        entries = buffer.entries_for(dest)
        if not entries:
            return None
        # Ages are non-increasing along the queue: the max is up front.
        index = self._pick(entries, entries[0].age_in_dest_steps, rng)
        return None if index < 0 else entries[index].message

    def receive(self, buffer, dest, rng):
        # choose() in one pass over the buffer's own tables: note the
        # step, draw, and pop the chosen entry by its index.
        steps = buffer._dest_steps
        now = steps[dest] + 1
        steps[dest] = now
        entries = buffer._pending.get(dest)
        if not entries:
            return None
        index = self._pick(entries, now - entries[0].sent_at_dest_step, rng)
        if index < 0:
            return None
        buffer._delivered_count += 1
        return entries.pop(index).message

    def _pick(self, entries, oldest_age: int, rng: random.Random) -> int:
        """The index of the entry to deliver, or -1 for lambda."""
        if oldest_age >= self.max_age:
            return 0
        if rng.random() < self.lambda_prob:
            return -1
        # rng.choice(entries), draw for draw: the stdlib's
        # _randbelow_with_getrandbits, inlined.
        count = len(entries)
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

    def choose(self, buffer, dest, dest_step_index, rng):
        entries = buffer.entries_for(dest)
        if not entries:
            return None
        oldest = entries[0]  # ages are non-increasing: the max is up front
        if oldest.age_in_dest_steps >= self.max_age:
            return oldest.message
        if rng.random() < self.lambda_prob:
            return None
        senders = sorted({e.message.sender for e in entries})
        sender = rng.choice(senders)
        for entry in entries:
            if entry.message.sender == sender:
                return entry.message
        raise AssertionError("unreachable: sender chosen from pending set")

    def ensures_eventual_delivery(self) -> bool:
        return True


class BlockingPolicy(DeliveryPolicy):
    """Wrap a policy, holding back messages matching a predicate.

    Used to build the delayed-link scenarios of Theorem 7.1 (messages across
    a partition are withheld until the driver opens the links) and the
    lost-write scenario of the register counterexample.  Messages matching
    ``blocked`` are invisible to the inner policy until :meth:`release`.

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

    def choose(self, buffer, dest, dest_step_index, rng):
        entries = buffer.entries_for(dest)
        if not self._released:
            entries = [e for e in entries if not self.blocked(e.message)]
        if not entries:
            return None
        view = _FilteredBufferView(entries)
        return self.inner.choose(view, dest, dest_step_index, rng)  # type: ignore[arg-type]

    def ensures_eventual_delivery(self) -> bool:
        return self._released


class _FilteredBufferView:
    """Duck-typed read-only buffer view over a subset of pending entries."""

    def __init__(self, entries: Sequence[_PendingEntry]):
        self._entries = tuple(entries)

    def entries_for(self, dest: int) -> Sequence[_PendingEntry]:
        return self._entries

    def oldest_for(self, dest: int) -> Optional[Message]:
        return self._entries[0].message if self._entries else None

    def pending_for(self, dest: int) -> List[Message]:
        return [e.message for e in self._entries]


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

    def choose(self, buffer, dest, dest_step_index, rng):
        entries = buffer.entries_for(dest)
        newest_per_sender: Dict[int, int] = {}
        for entry in entries:
            if self.coalescible(entry.message.payload):
                sender = entry.message.sender
                seq = entry.message.uid[1]
                if seq > newest_per_sender.get(sender, -1):
                    newest_per_sender[sender] = seq
        for entry in list(entries):
            message = entry.message
            if (
                self.coalescible(message.payload)
                and message.uid[1] < newest_per_sender.get(message.sender, -1)
            ):
                buffer.supersede(message)
        return self.inner.choose(buffer, dest, dest_step_index, rng)

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
