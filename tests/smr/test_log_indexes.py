"""Carried-forward log state equals a from-scratch read of the log.

Three suites guard the bookkeeping that lets the service path cost the
*new* slots instead of the whole log:

* the retained certified prefix (``extend_certified`` / ``ServiceCore``)
  equals ``certified_log`` from slot 0 after every growth step of n
  append-only logs — divergent faulty entries, ``None`` entries, frozen
  crashed logs and 2-2 splits included;
* the replica's chosen-set / batch counts / known-pending set answer
  ``_next_proposal``, ``pending_commands``, ``has_pending``, ``feed`` and
  forwarding exactly like a reference that re-reads the log each time;
* with a list that counts element reads, the reads per appended slot are
  bounded by a constant × n, however long the log already is.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.service.core import ServiceCore
from repro.smr.properties import certified_log, extend_certified
from repro.smr.replicated_log import (
    FWD,
    NOOP,
    ReplicatedLogProcess,
    is_batch,
)


# ----------------------------------------------------------------------
# Retained certified prefix == from-scratch certified_log
# ----------------------------------------------------------------------


def agreed_entry(slot: int, shape: int):
    if shape == 0:
        return None
    if shape == 1:
        return NOOP
    return ("batch", "svc", slot, ((f"s{slot % 3}", slot, "op"),))


@st.composite
def log_growths(draw):
    """(n, shapes, steps): which replica appends what, in which order."""
    n = draw(st.integers(3, 5))
    shapes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=8))
    steps = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.sampled_from(["agree", "agree", "agree", "diverge", "split"]),
            ),
            max_size=40,
        )
    )
    frozen_after = draw(
        st.dictionaries(st.integers(0, n - 1), st.integers(0, 40), max_size=2)
    )
    return n, shapes, steps, frozen_after


def grow(logs, shapes, replica, kind):
    """Append one entry to ``logs[replica]`` (an append-only growth step)."""
    slot = len(logs[replica])
    if kind == "agree":
        entry = agreed_entry(slot, shapes[slot % len(shapes)])
    elif kind == "diverge":  # a faulty replica's own value
        entry = ("batch", "mallory", slot, ((f"m{replica}", slot, "bad"),))
    else:  # two camps: with n=4 a 2-2 split no majority resolves
        entry = ("batch", "svc", slot, (("camp", replica % 2, "x"),))
    logs[replica].append(entry)


@settings(max_examples=200, deadline=None)
@given(log_growths())
def test_retained_prefix_equals_from_scratch_after_every_step(world):
    n, shapes, steps, frozen_after = world
    quorum = n // 2 + 1
    logs = {p: [] for p in range(n)}
    retained = []
    for i, (replica, kind) in enumerate(steps):
        if i >= frozen_after.get(replica, len(steps)):
            continue  # crashed: its log is frozen from here on
        grow(logs, shapes, replica, kind)
        before = list(retained)
        assert extend_certified(retained, logs, quorum) is retained
        assert retained == certified_log(logs, quorum)
        assert retained[: len(before)] == before  # only ever extended


@settings(max_examples=50, deadline=None)
@given(log_growths())
def test_service_core_certification_equals_from_scratch(world):
    n, shapes, steps, frozen_after = world
    core = ServiceCore(n, seed=0)
    logs = {p: core.replicas[p].log for p in range(n)}
    for i, (replica, kind) in enumerate(steps):
        if i >= frozen_after.get(replica, len(steps)):
            continue
        grow(logs, shapes, replica, kind)
        reference = certified_log(core.logs(), core.quorum)
        assert core.certified_length() == len(reference)
        handed_out = core.certified_log()
        assert handed_out == reference
        start = i % (len(reference) + 1)
        assert core.certified_since(start) == reference[start:]
        handed_out.clear()  # the caller's own list, not the retained prefix


def test_two_two_split_never_certifies():
    logs = {p: [] for p in range(4)}
    retained = []
    for replica in range(4):
        grow(logs, [2], replica, "split")
        assert extend_certified(retained, logs, 3) == []
    logs[0].append(agreed_entry(1, 2))  # growth past the split changes nothing
    assert extend_certified(retained, logs, 3) == []


# ----------------------------------------------------------------------
# Replica indexes == a reference that re-reads the log every time
# ----------------------------------------------------------------------


class RescanningReplica:
    """The replica's pool logic with no carried state: every answer scans
    the pools and the log, as the code did before the indexes."""

    def __init__(self, commands):
        self.commands = list(commands)
        self.log = []
        self.foreign_batches = []
        self.foreign_plain = []
        self.forwarded = set()

    def pools(self):
        return (self.commands, self.foreign_batches, self.foreign_plain)

    def known(self, command):
        return any(command in pool for pool in self.pools()) or (
            command in self.log
        )

    def feed(self, command):
        if self.known(command):
            return False
        self.commands.append(command)
        return True

    def accept_foreign(self, command):
        if self.known(command):
            return
        pool = self.foreign_batches if is_batch(command) else self.foreign_plain
        pool.append(command)

    def pending_commands(self):
        return [c for pool in self.pools() for c in pool if c not in self.log]

    def next_proposal(self):
        counts = {}
        for entry in self.log:
            if is_batch(entry):
                counts[entry[1]] = counts.get(entry[1], 0) + 1

        def eligible(command):
            if command in self.log:
                return False
            if is_batch(command):
                return command[2] == counts.get(command[1], 0)
            return True

        ordered = (
            self.commands
            + sorted(self.foreign_batches, key=lambda c: (c[1], c[2]))
            + self.foreign_plain
        )
        return next((c for c in ordered if eligible(c)), NOOP)

    def purge(self, value):
        if value is None:
            return
        for pool in self.pools():
            if value in pool:
                pool.remove(value)
        self.forwarded = {(c, l) for c, l in self.forwarded if c != value}

    def forward(self, leader):
        sends = []
        for command in self.commands:
            if command in self.log or (command, leader) in self.forwarded:
                continue
            sends.append((leader, (FWD, command)))
            self.forwarded.add((command, leader))
        return sends


# Few distinct commands, so drawn sequences hit the same one repeatedly.
COMMANDS = (
    [("append", 0, 0), ("append", 1, 0)]
    + [
        ("batch", origin, seq, ((origin, seq, "op"),))
        for origin in ("svc", "peer")
        for seq in range(3)
    ]
    + [NOOP]
)

command = st.sampled_from(COMMANDS)
replica_ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["feed", "fwd", "append", "decide", "purge"]),
                  command),
        st.tuples(st.just("append"), st.none()),
        st.tuples(st.just("decide"), st.none()),
        st.tuples(st.just("forward"), st.integers(1, 2)),
        st.tuples(st.just("check"), st.none()),
    ),
    max_size=40,
)


def assert_same_answers(real: ReplicatedLogProcess, ref: RescanningReplica):
    assert real._next_proposal() == ref.next_proposal()
    assert real.pending_commands() == ref.pending_commands()
    assert real.has_pending() == bool(ref.pending_commands())


@settings(max_examples=300, deadline=None)
@given(st.lists(command, max_size=6), replica_ops)
@example(  # a constructor duplicate outlives one purge and stays known
    initial=[COMMANDS[0], COMMANDS[0]],
    ops=[("purge", COMMANDS[0]), ("feed", COMMANDS[0])],
)
def test_replica_indexes_match_rescanning_reference(initial, ops):
    # ``initial`` may repeat a command: the constructor takes what it gets.
    real = ReplicatedLogProcess(initial, slots=None)
    ref = RescanningReplica(initial)
    for op, arg in ops:
        if op == "feed":
            assert real.feed(arg) == ref.feed(arg)
        elif op == "fwd":
            real._accept_foreign(arg)
            ref.accept_foreign(arg)
        elif op == "append":  # a log handed over from outside step()
            real.log.append(arg)
            ref.log.append(arg)
        elif op == "decide":  # what step() does at a slot boundary
            real.log.append(arg)
            real._purge_chosen(arg)
            ref.log.append(arg)
            ref.purge(arg)
        elif op == "purge":
            real._purge_chosen(arg)
            ref.purge(arg)
        elif op == "forward":
            sent = []
            real._maybe_forward(0, (arg, frozenset({0, arg})), sent)
            assert sent == ref.forward(arg)
        else:  # the indexes sync lazily: compare at drawn points only
            assert_same_answers(real, ref)
    assert_same_answers(real, ref)
    assert real.commands == ref.commands
    assert real._foreign_batches == ref.foreign_batches
    assert real._foreign_plain == ref.foreign_plain


def test_side_tables_stay_bounded_by_what_is_pending():
    proc = ReplicatedLogProcess([], slots=None)
    sent = []
    for seq in range(50):
        batch = ("batch", "svc", seq, ((0, seq, "x"),))
        assert proc.feed(batch)
        proc._maybe_forward(0, (1, frozenset({0, 1})), sent)
        proc.log.append(batch)
        proc._purge_chosen(batch)
    assert len(sent) == 50
    assert not proc._forwarded and not proc._known and not proc.commands


# ----------------------------------------------------------------------
# Element reads per appended slot do not grow with the log
# ----------------------------------------------------------------------


class CountingList(list):
    """A list that counts the elements handed out by index, slice or
    iteration (``len`` and ``append`` are free)."""

    reads = 0

    def __getitem__(self, index):
        result = super().__getitem__(index)
        CountingList.reads += len(result) if isinstance(index, slice) else 1
        return result

    def __iter__(self):
        for item in super().__iter__():
            CountingList.reads += 1
            yield item

    def __contains__(self, item):
        return any(item == other for other in self)


def test_reads_per_appended_slot_are_bounded_by_a_constant_times_n():
    n, slots, per_replica_per_slot = 5, 400, 4
    core = ServiceCore(n, seed=0)
    for replica in core.replicas.values():
        replica.log = CountingList()
    CountingList.reads = 0
    reads_at = []
    for slot in range(slots):
        batch = ("batch", "svc", slot, ((0, slot, "x"),))
        core.feed_batch(batch)
        for replica in core.replicas.values():
            replica.log.append(batch)
            replica._purge_chosen(batch)
            assert replica._next_proposal() == NOOP
        assert core.certified_length() == slot + 1
        assert len(core.certified_log()) == slot + 1
        assert not core.has_work()
        reads_at.append(CountingList.reads)
    assert reads_at[-1] <= per_replica_per_slot * n * slots
    # No growth: the last hundred slots cost what the first hundred did.
    assert reads_at[-1] - reads_at[-101] <= reads_at[99]
