"""Finding records.

A :class:`Finding` is one rule violation at one source location.  Findings
that cross module boundaries carry an ``evidence`` chain: the call hops
from the reported site down to the concrete source line in another file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List


@dataclass
class Finding:
    """One rule violation at one source location."""

    code: str  # e.g. "RPR103"
    path: str  # file path as given to the engine
    module: str  # dotted module name ("repro.kernel.system")
    line: int  # 1-based line of the offending node
    col: int  # 0-based column of the offending node
    message: str  # human-readable description
    rule_name: str = ""  # short rule slug ("unordered-iteration")
    snippet: str = ""  # stripped source text of the offending line
    suppressed: bool = False  # matched an inline ``# repro: noqa``
    #: cross-file call hops from this site to the taint source
    evidence: List[Dict[str, Any]] = field(default_factory=list)

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col + 1}: {self.code} {self.message}"
        if self.snippet:
            text += f"\n    {self.snippet}"
        for hop in self.evidence:
            note = f" ({hop['note']})" if hop.get("note") else ""
            text += (
                f"\n    via {hop.get('path', '?')}:{hop.get('line', '?')}"
                f"{note}: {hop.get('snippet', '')}"
            )
        return text

    def to_json(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "rule": self.rule_name,
            "path": self.path,
            "module": self.module,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
            "suppressed": self.suppressed,
            "evidence": list(self.evidence),
        }
