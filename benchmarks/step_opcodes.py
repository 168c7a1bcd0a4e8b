#!/usr/bin/env python
"""Bytecodes and Python calls per kernel step, by layer, on a burst_b1 run.

Usage: PYTHONHASHSEED=0 python benchmarks/step_opcodes.py
           [--commands N] [--functions K]

Runs one ``burst_b1`` repetition of the perf ledger (``--commands``
commands, 200 by default; seed 42) under ``sys.settrace`` with
``f_trace_opcodes`` and counts every bytecode executed inside
``System.advance``.  Each frame's bytecodes go to the layer of the module
that owns it: the kernel loop (``kernel/system.py``), the scheduler,
receive (``kernel/messages.py`` entered other than by the send path),
sends (``MessageBuffer.send``/``send_all`` and the buffer code they
call), the detector history, the replica (``smr/replicated_log.py``) and
A_nuc (``core/nuc.py``).  A frame of any other module (a dataclass
``__init__``, a ``NamedTuple.__new__``) counts for its caller's layer.  The counts are exact for a given interpreter and
``PYTHONHASHSEED``; the layers sum to the total by construction.
``--functions K`` also lists the K functions that run the most bytecodes.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, os.path.join(HERE, "ledger"))

import workloads  # noqa: E402  (the ledger's workload builders)
from repro.kernel.system import System  # noqa: E402

SEND_PATH = ("send", "send_all")  # MessageBuffer's: the buffer's way in
LAYERS = (
    "kernel loop", "scheduler", "receive", "sends", "history", "replica",
    "A_nuc",
)


def own_layer(code) -> str:
    """The layer a code object belongs to, or '' to inherit its caller's."""
    path = code.co_filename.replace(os.sep, "/")
    if path.endswith("kernel/system.py"):
        return "kernel loop"
    if path.endswith("kernel/scheduler.py"):
        return "scheduler"
    if path.endswith("kernel/messages.py"):
        return "sends" if code.co_name in SEND_PATH else "receive"
    if "/repro/detectors/" in path:
        return "history"
    if path.endswith("smr/replicated_log.py"):
        return "replica"
    if path.endswith("core/nuc.py"):
        return "A_nuc"
    return ""


def count(commands: int):
    """(steps, bytecodes by layer, calls by layer, bytecodes by code)."""
    advance = System.advance.__code__
    layer_of = {}  # id(frame) -> layer, for frames inside advance
    ops, calls, by_code = Counter(), Counter(), Counter()

    def local(frame, event, _arg):
        if event == "opcode":
            ops[layer_of[id(frame)]] += 1
            by_code[frame.f_code] += 1
        elif event == "return":
            del layer_of[id(frame)]
        return local

    def on_call(frame, _event, _arg):
        code = frame.f_code
        caller = layer_of.get(id(frame.f_back))
        if code is not advance and caller is None:
            return None
        layer = own_layer(code) or caller
        if caller in ("receive", "sends") and layer in ("receive", "sends"):
            layer = caller  # a buffer helper serves the path that called it
        layer_of[id(frame)] = layer
        if code is not advance:
            calls[layer] += 1
        frame.f_trace_opcodes = True
        return local

    sizes = workloads.sizes_for("burst_b1", quick=False)
    sizes["commands"] = commands
    sys.settrace(on_call)
    try:
        rep = workloads.rep_service("burst_b1", sizes, 42, None)
    finally:
        sys.settrace(None)
    if rep.problems:
        raise SystemExit(f"burst_b1 failed its checks: {rep.problems}")
    return rep.steps, ops, calls, by_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--commands", type=int, default=200)
    parser.add_argument("--functions", type=int, default=0, metavar="K")
    args = parser.parse_args(argv)
    steps, ops, calls, by_code = count(args.commands)
    print(f"burst_b1, {args.commands} commands: {steps} kernel steps")
    print(f"{'layer':<12} {'bytecodes/step':>15} {'calls/step':>11}")
    for layer in LAYERS:
        print(
            f"{layer:<12} {ops[layer] / steps:>15.1f} "
            f"{calls[layer] / steps:>11.2f}"
        )
    total_ops, total_calls = sum(ops.values()), sum(calls.values())
    print(
        f"{'total':<12} {total_ops / steps:>15.1f} "
        f"{total_calls / steps:>11.2f}"
    )
    for code, n in by_code.most_common(args.functions):
        qualname = getattr(code, "co_qualname", code.co_name)  # 3.11+
        name = f"{qualname} ({os.path.basename(code.co_filename)})"
        print(f"  {n / steps:8.1f}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
