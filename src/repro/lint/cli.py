"""The ``python -m repro lint`` subcommand.

Exit codes: 0 clean, 1 findings (plus, under ``--strict``, reason-less
suppressions or suppressions naming a code no rule has), 2 usage errors.
"""

from __future__ import annotations

import sys

from repro.lint.engine import run_lint
from repro.lint.registry import all_rules
from repro.lint.reporters import render_json, render_text


def add_arguments(parser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="stdout report format (default: text)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="also write the JSON report to FILE (CI artifact)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="additionally fail on reason-less noqa comments and on noqa "
        "comments naming a code no rule has",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="list suppressed findings and their reasons",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )


def cmd_lint(args) -> int:
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code} {rule.name} [{rule.describe_scope()}]")
            print(f"    {rule.summary}")
        return 0

    try:
        result = run_lint(args.paths)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.output:
        with open(args.output, "w") as fh:
            fh.write(render_json(result))

    if args.format == "json":
        sys.stdout.write(render_json(result))
    else:
        print(render_text(result, verbose=args.verbose))

    return result.exit_code(strict=args.strict)
