#!/usr/bin/env python
"""Validate JSONL trace files against the repro-trace/2 schema.

Usage: PYTHONPATH=src python benchmarks/check_trace_schema.py TRACE [TRACE ...]

Exits nonzero if any file fails validation; CI runs this against the
traces emitted by the smoke experiment.
"""

from __future__ import annotations

import argparse
import sys

from repro.obs.export import read_trace, validate_trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        epilog=(
            "Exit codes: 0 = every trace valid, 1 = schema violations or "
            "unreadable files, 2 = usage error."
        ),
    )
    parser.add_argument("traces", nargs="+", help="JSONL trace files to check")
    args = parser.parse_args(argv)

    failed = 0
    for path in args.traces:
        try:
            records = read_trace(path)
        except Exception as exc:
            print(f"{path}: unreadable ({exc})")
            failed += 1
            continue
        errors = validate_trace(records)
        if errors:
            failed += 1
            print(f"{path}: {len(errors)} schema error(s)")
            for error in errors:
                print(f"  - {error}")
        else:
            spans = sum(1 for r in records if r.get("type") == "span")
            events = sum(1 for r in records if r.get("type") == "event")
            print(f"{path}: ok ({spans} spans, {events} events)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
