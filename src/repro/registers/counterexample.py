"""Why Σν cannot implement registers: the lost-write scenario.

The introduction of the paper pinpoints why the Delporte et al. route
(uniform consensus ⇒ registers) cannot carry the nonuniform result:
nonuniform consensus — and Σν — are "not strong enough to implement
registers".  This module exhibits the failure concretely on the ABD
emulation:

* process 0 is a *faulty* writer whose Σν module outputs the private quorum
  ``{0}`` (legal: faulty quorums are unconstrained);
* its write completes — acknowledged by its own replica — while its
  messages to the correct replicas are still in flight;
* process 1 then reads through the correct quorum ``{1, 2}``, which does
  not intersect ``{0}``: the read returns the *old* value although the
  write completed strictly before it — an atomicity violation.

Under Σ the same setup is impossible: the writer's quorum must intersect
every reader's quorum, so the write cannot complete without reaching a
replica every reader consults — the scenario's control arm shows the write
simply blocks.  Reliable links still deliver the in-flight writes
eventually, so the value is not destroyed — it is the *ordering* guarantee
of a register that is irrecoverably lost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.detectors.base import FunctionalHistory
from repro.detectors.checkers import CheckResult, check_sigma, check_sigma_nu
from repro.kernel.failures import FailurePattern
from repro.kernel.messages import BlockingPolicy, FairRandomDelivery
from repro.kernel.scheduler import RoundRobinScheduler, ScriptedScheduler
from repro.kernel.system import System
from repro.registers.abd import RegisterClient
from repro.registers.properties import (
    OperationRecord,
    RegisterReport,
    check_register_safety,
)


@dataclass
class LostWriteReport:
    """What the scenario produced."""

    write: Optional[OperationRecord]
    stale_read: Optional[OperationRecord]
    safety: RegisterReport
    violated: bool
    sigma_nu_check: CheckResult
    sigma_check: CheckResult
    eventually_visible: bool
    crash_time: Optional[int]

    def __repr__(self) -> str:
        status = "LOST-WRITE ANOMALY" if self.violated else "no anomaly"
        return f"LostWriteReport({status}, write={self.write!r}, read={self.stale_read!r})"


def _history(uniform: bool) -> FunctionalHistory:
    """Quorum detector: {0} at the writer (Σν arm) or {0,1} (Σ arm)."""

    def value(p: int, t: int):
        if p == 0:
            return frozenset({0}) if not uniform else frozenset({0, 1})
        return frozenset({1, 2})

    return FunctionalHistory(value)


def run_lost_write_scenario(seed: int = 0, max_steps: int = 8000) -> LostWriteReport:
    """Drive the Σν lost-write run and validate every moving part."""
    history = _history(uniform=False)
    blocking = BlockingPolicy(
        inner=FairRandomDelivery(),
        blocked=lambda m: m.sender == 0 and m.dest != 0,
    )
    processes = {
        0: RegisterClient([("write", "poison")]),
        1: RegisterClient([("read",)]),
        2: RegisterClient([]),
    }
    scheduler = ScriptedScheduler([0] * max_steps, fallback=RoundRobinScheduler())
    system = System(
        processes,
        FailurePattern(3),
        history,
        scheduler=scheduler,
        delivery=blocking,
        seed=seed,
    )

    # Phase 1: only the writer steps; its private quorum {0} acknowledges.
    crash_time: Optional[int] = None
    for _ in range(max_steps):
        if processes[0].records:
            crash_time = system.time
            system.crash([0])
            break
        if system.step() is None:
            break

    # Phase 2: the correct processes run; process 1 reads through {1, 2}.
    for _ in range(max_steps):
        if processes[1].records:
            break
        if system.step() is None:
            break

    # Phase 3: open the links (reliability) and let the system settle.
    blocking.release()
    for _ in range(600):
        system.step()

    write = processes[0].records[0] if processes[0].records else None
    read = processes[1].records[0] if processes[1].records else None
    records = [r for r in (write, read) if r is not None]
    safety = check_register_safety(records)
    violated = (
        write is not None
        and read is not None
        and write.responded_at < read.invoked_at
        and read.ts < write.ts
        and not safety.ok
    )

    horizon = max(0, system.time - 1)
    frozen = system.pattern.crashing([0], horizon + 1)
    sigma_nu_check = check_sigma_nu(history, frozen, horizon)
    sigma_check = check_sigma(history, frozen, horizon)

    visible = all(
        processes[p].server.ts >= (write.ts if write else (0, -1))
        for p in (1, 2)
    )

    return LostWriteReport(
        write=write,
        stale_read=read,
        safety=safety,
        violated=violated,
        sigma_nu_check=sigma_nu_check,
        sigma_check=sigma_check,
        eventually_visible=visible,
        crash_time=crash_time,
    )


def run_sigma_control_arm(seed: int = 0, isolation_steps: int = 2000) -> bool:
    """The Σ control: with an intersecting writer quorum ``{0, 1}``, the
    isolated writer cannot complete its write at all.  Returns True when the
    write is still pending after the isolation phase (the expected outcome).
    """
    pattern = FailurePattern(3, {})
    history = _history(uniform=True)
    blocking = BlockingPolicy(
        inner=FairRandomDelivery(),
        blocked=lambda m: m.sender == 0 and m.dest != 0,
    )
    processes = {
        0: RegisterClient([("write", "poison")]),
        1: RegisterClient([]),
        2: RegisterClient([]),
    }
    scheduler = ScriptedScheduler([0] * isolation_steps, fallback=RoundRobinScheduler())
    system = System(
        processes, pattern, history, scheduler=scheduler,
        delivery=blocking, seed=seed,
    )
    for _ in range(isolation_steps):
        system.step()
    return not processes[0].records
