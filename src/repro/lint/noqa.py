"""Inline suppressions: ``# repro: noqa RPRnnn[, RPRmmm] -- reason``.

A suppression lives on the physical line of the finding it silences.  A
bare ``# repro: noqa`` (no codes) silences every rule on that line; listing
codes silences only those.  Everything after ``--`` (or an em dash) is a
free-form reason — the suppression policy in ``docs/linting.md`` asks for
one on every exemption, and ``--strict`` enforces it, as it rejects a code
no rule has.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa"  # marker
    r"(?P<codes>(?:\s+RPR\d{3}(?:\s*,\s*RPR\d{3})*)?)"  # optional code list
    r"(?:\s*(?:--|—|–)\s*(?P<reason>.*))?"  # optional reason
    r"\s*$"
)

_CODE_RE = re.compile(r"RPR\d{3}")


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# repro: noqa`` comment."""

    line: int
    codes: FrozenSet[str]  # empty frozenset = suppress all codes
    reason: str

    def covers(self, code: str) -> bool:
        return not self.codes or code in self.codes


def parse_suppressions(lines: List[str]) -> Dict[int, Suppression]:
    """Map 1-based line numbers to the suppression declared on them."""
    out: Dict[int, Suppression] = {}
    for i, text in enumerate(lines, start=1):
        if "repro:" not in text:
            continue
        match = _NOQA_RE.search(text)
        if not match:
            continue
        codes = frozenset(_CODE_RE.findall(match.group("codes") or ""))
        reason = (match.group("reason") or "").strip()
        out[i] = Suppression(line=i, codes=codes, reason=reason)
    return out


def suppression_for(
    suppressions: Dict[int, Suppression], line: int, code: str
) -> Optional[Suppression]:
    found = suppressions.get(line)
    if found is not None and found.covers(code):
        return found
    return None
