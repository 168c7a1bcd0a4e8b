"""Quorum-replicated registers — the technique the paper contrasts with.

Delporte-Gallet, Fauconnier and Guerraoui [3] proved (Ω, Σ) weakest for
*uniform* consensus via registers: Σ's uniformly intersecting quorums
implement atomic registers (ABD-style), and registers plus Ω give
consensus.  The introduction of our paper highlights exactly why that route
fails for the nonuniform problem: "nonuniform consensus is not strong
enough to implement registers", and neither is Σν — quorums at faulty
processes need not intersect anything, so a write acknowledged by a faulty
client's quorum can be lost entirely.

This package makes both sides executable:

* :class:`RegisterServer` / :class:`RegisterClient` — the ABD emulation
  over a quorum detector (two-phase reads with write-back);
* validity checkers for register runs (:mod:`repro.registers.properties`);
* the Σν counterexample: a run in which a faulty writer's acknowledged
  write is invisible to every later read
  (:func:`repro.registers.counterexample.run_lost_write_scenario`).
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.registers.abd": "RegisterClient RegisterServer RegisterHarness",
    "repro.registers.counterexample": "LostWriteReport run_lost_write_scenario",
    "repro.registers.properties": (
        "OperationRecord RegisterReport check_register_safety"
    ),
})
