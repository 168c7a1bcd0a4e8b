"""Text and JSON reporters for lint results.

The JSON report carries a versioned ``schema`` marker like the trace
exporter, so CI artifacts stay parseable as the tool changes: ``/2`` added
the per-finding ``evidence`` chains, ``/3`` dropped the baseline fields
(``fingerprint``, ``baselined``, ``stale_baseline``).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.lint.engine import LintResult
from repro.lint.registry import known_codes

JSON_SCHEMA = "repro-lint/3"


def summarize(result: LintResult) -> Dict[str, Any]:
    per_code: Dict[str, int] = {}
    for finding in result.findings:
        per_code[finding.code] = per_code.get(finding.code, 0) + 1
    return {
        "files_checked": result.files_checked,
        "findings": len(result.findings),
        "suppressed": len(result.suppressed),
        "parse_errors": len(result.parse_errors),
        "by_code": dict(sorted(per_code.items())),
    }


def render_text(result: LintResult, verbose: bool = False) -> str:
    lines: List[str] = [finding.render() for finding in result.findings]
    for error in result.parse_errors:
        lines.append(f"PARSE ERROR: {error}")
    for path, supp in result.unreasoned_noqa:
        lines.append(
            f"{path}:{supp.line}: noqa without a reason; suppressions "
            f"must say why (# repro: noqa RPRnnn -- reason)"
        )
    for path, supp in result.unknown_noqa:
        unknown = ", ".join(sorted(supp.codes - set(known_codes())))
        lines.append(
            f"{path}:{supp.line}: noqa names a code no rule has "
            f"({unknown}); see --list-rules"
        )
    if verbose and result.suppressed:
        lines.append("")
        for finding, supp in result.suppressed:
            reason = supp.reason or "(no reason)"
            lines.append(
                f"suppressed {finding.code} at {finding.path}:{finding.line} "
                f"— {reason}"
            )
    summary = summarize(result)
    per_code = ", ".join(
        f"{code}={count}" for code, count in summary["by_code"].items()
    )
    lines.append("")
    lines.append(
        f"{summary['files_checked']} file(s) checked: "
        f"{summary['findings']} finding(s)"
        + (f" ({per_code})" if per_code else "")
        + (f", {summary['suppressed']} suppressed" if summary["suppressed"] else "")
    )
    return "\n".join(lines)


def report_json(result: LintResult) -> Dict[str, Any]:
    return {
        "schema": JSON_SCHEMA,
        "summary": summarize(result),
        "findings": [f.to_json() for f in result.findings],
        "suppressed": [
            {"finding": finding.to_json(), "reason": supp.reason}
            for finding, supp in result.suppressed
        ],
        "parse_errors": list(result.parse_errors),
    }


def render_json(result: LintResult) -> str:
    return json.dumps(report_json(result), indent=2, sort_keys=True) + "\n"
