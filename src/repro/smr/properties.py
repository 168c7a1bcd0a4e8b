"""Correctness of replicated-log and consensus-service runs.

Among *correct* replicas the log must be one shared sequence (per-slot
nonuniform agreement lifts to log equality), every logged command must have
been submitted by someone (validity), and no command may occupy two slots.

The service-level checkers extend this to client-visible semantics: decided
batches flatten to a duplicate-free command sequence, each session's
commands apply in strictly increasing ``seq`` order (FIFO), and certified
prefixes really are backed by a majority of matching replica logs.
:class:`ServiceInvariants` is the *online* form, wired into the service
apply loop so every applied command is checked as it happens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


@dataclass
class SmrReport:
    """Outcome of checking one replicated-log run."""

    ok: bool
    violations: List[str] = field(default_factory=list)
    log_length: int = 0
    commands_chosen: int = 0

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        status = "ok" if self.ok else "FAIL: " + "; ".join(self.violations[:2])
        return f"SmrReport(len={self.log_length}, {status})"


def check_smr(pattern, processes, submitted: Dict[int, Sequence]) -> SmrReport:
    """Check log agreement, validity and no-duplication for a finished run."""
    report = SmrReport(ok=True)
    correct = sorted(pattern.correct)
    logs = {p: list(processes[p].log) for p in correct}
    if not logs:
        return report

    # Agreement: all correct logs equal (prefix equality for stragglers).
    reference_pid = max(logs, key=lambda p: len(logs[p]))
    reference = logs[reference_pid]
    report.log_length = len(reference)
    for p, log in logs.items():
        if log != reference[: len(log)]:
            report.ok = False
            report.violations.append(
                f"agreement: log of p{p} {log} is not a prefix of "
                f"p{reference_pid}'s {reference}"
            )

    # Validity: every non-noop entry was submitted by its tagged origin.
    allowed = {c for cmds in submitted.values() for c in cmds}
    for i, entry in enumerate(reference):
        if entry is None or entry[0] == "noop":
            continue
        if entry not in allowed:
            report.ok = False
            report.violations.append(
                f"validity: slot {i} holds unsubmitted command {entry!r}"
            )

    # No duplication: each command at most once.
    non_noop = [e for e in reference if e is not None and e[0] != "noop"]
    report.commands_chosen = len(non_noop)
    if len(set(non_noop)) != len(non_noop):
        report.ok = False
        report.violations.append("duplication: a command occupies two slots")

    # Applied state machines mirror the logs.
    for p in correct:
        expected = [e for e in logs[p] if e is not None and e[0] != "noop"]
        if processes[p].applied != expected:
            report.ok = False
            report.violations.append(
                f"application: p{p} applied {processes[p].applied} but "
                f"logged {expected}"
            )
    return report


# ----------------------------------------------------------------------
# Service-level (client-visible) invariants
# ----------------------------------------------------------------------

#: A client command as the service shapes it: (session_id, client_seq, op).
ClientCommand = Tuple


def flatten_batches(decided: Sequence) -> List[ClientCommand]:
    """Client commands of a decided log, in slot-then-batch order.

    Skips noops and non-batch entries; a ``("batch", origin, seq, cmds)``
    entry contributes ``cmds`` in order.
    """
    flat: List[ClientCommand] = []
    for entry in decided:
        if entry is None or entry[0] != "batch":
            continue
        flat.extend(entry[3])
    return flat


class ServiceInvariants:
    """Online checker wired into the service apply loop.

    For each command the loop calls :meth:`observe`, which answers whether
    the command is *fresh* (should be applied) or a duplicate (must be
    skipped), and records a violation when a fresh command would apply out
    of session FIFO order.  Gaps are legal — a command that never commits
    (client crashed before its batch was proposed) leaves a hole, but the
    committed subsequence of every session must be strictly increasing.
    """

    def __init__(self) -> None:
        self._seen: set = set()  # (session, seq) pairs applied
        self._last_seq: Dict[object, int] = {}
        self.violations: List[str] = []
        self.applied_count = 0
        self.duplicate_count = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def observe(self, session, seq: int, op, slot: Optional[int] = None) -> bool:
        """True when (session, seq) is fresh and FIFO-consistent to apply."""
        key = (session, seq)
        if key in self._seen:
            self.duplicate_count += 1
            return False
        last = self._last_seq.get(session)
        if last is not None and seq <= last:
            where = "" if slot is None else f" (slot {slot})"
            self.violations.append(
                f"fifo: session {session!r} applied seq {seq} after "
                f"{last}{where}"
            )
        self._seen.add(key)
        self._last_seq[session] = max(self._last_seq.get(session, -1), seq)
        self.applied_count += 1
        return True

    def report(self) -> SmrReport:
        return SmrReport(
            ok=self.ok,
            violations=list(self.violations),
            commands_chosen=self.applied_count,
        )


def check_service_log(decided: Sequence) -> SmrReport:
    """Offline form: batch seq order + client no-dup/FIFO of one log."""
    report = SmrReport(ok=True, log_length=len(decided))
    next_seq: Dict[object, int] = {}
    for i, entry in enumerate(decided):
        if entry is None or entry[0] != "batch":
            continue
        _, origin, seq, _cmds = entry
        expected = next_seq.get(origin, 0)
        if seq != expected:
            report.ok = False
            report.violations.append(
                f"batch-order: slot {i} holds {origin!r}#{seq}, "
                f"expected #{expected}"
            )
        next_seq[origin] = max(next_seq.get(origin, 0), seq) + 1

    invariants = ServiceInvariants()
    for session, seq, op in flatten_batches(decided):
        if not invariants.observe(session, seq, op):
            report.ok = False
            report.violations.append(
                f"duplication: ({session!r}, {seq}) committed twice"
            )
    report.commands_chosen = invariants.applied_count
    if not invariants.ok:
        report.ok = False
        report.violations.extend(invariants.violations)
    return report


def extend_certified(
    prefix: List, logs: Mapping[int, Sequence], quorum: int
) -> List:
    """Extend ``prefix`` in place by the slots ``logs`` now certify.

    Slot ``i``'s certified entry is the value held at slot ``i`` by at
    least ``quorum`` replica logs; since quorum is a majority, that value
    is unique when it exists.  The prefix ends at the first slot with no
    such value.  Voting continues from ``len(prefix)``: replica logs are
    append-only, so a slot that a majority holds stays held with the same
    value, and a prefix certified against earlier states of ``logs`` is
    still exactly what a vote from slot 0 would return — the cost of a
    call is the new slots, not the log.  Returns ``prefix``.
    """
    while True:
        slot = len(prefix)
        votes: Dict[object, int] = {}
        for log in logs.values():
            if len(log) > slot:
                entry = log[slot]
                votes[entry] = votes.get(entry, 0) + 1
        winner = None
        for entry, count in votes.items():
            if count >= quorum:
                winner = entry
                break
        if winner is None:
            return prefix
        prefix.append(winner)


def certified_log(logs: Mapping[int, Sequence], quorum: int) -> List:
    """Per-slot quorum-majority entries of the certified prefix.

    The from-scratch form of :func:`extend_certified` — what the offline
    checkers use and what the retained online prefix must always equal.
    Certified state must always be read from this log, never from any
    single replica — under the nonuniform model a faulty replica may hold
    a divergent value inside the certified range, and its log (even the
    longest one) is not a safe reference.
    """
    return extend_certified([], logs, quorum)


def certified_prefix_length(
    logs: Mapping[int, Sequence], quorum: int
) -> int:
    """Longest prefix on which at least ``quorum`` replica logs agree.

    This is the *certification* rule the service reads from: a slot's
    value is client-exposable only once a majority of replicas hold it —
    the uniform-safe subset of a nonuniform log (a faulty minority may
    have applied a divergent value, but never a certified one).
    """
    return len(certified_log(logs, quorum))


def check_certified_reads(
    read_log: Iterable[Tuple[int, Sequence]],
    logs: Mapping[int, Sequence],
    quorum: int,
) -> SmrReport:
    """Every served read must be a certified prefix of the final logs.

    ``read_log`` holds ``(prefix_len, served)`` audit entries recorded by
    the service at reply time, ``served`` being the commands the read
    returned; ``logs`` the final per-replica decided logs.  A read is
    safe when its prefix is within the final certified length and its
    commands match the flattened certified log.
    """
    report = SmrReport(ok=True)
    reference = certified_log(logs, quorum)
    certified = len(reference)
    certified_flat = flatten_batches(reference)
    for prefix_len, commands in read_log:
        if prefix_len > certified:
            report.ok = False
            report.violations.append(
                f"read: served prefix {prefix_len} beyond certified "
                f"{certified}"
            )
            continue
        served = list(commands)
        if served != certified_flat[: len(served)]:
            report.ok = False
            report.violations.append(
                f"read: served commands diverge from the certified log "
                f"at prefix {prefix_len}"
            )
    return report
