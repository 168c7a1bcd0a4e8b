"""Human-readable transcripts of live runs.

Turns a :class:`~repro.kernel.system.RunResult` into annotated text: one
line per step (who stepped, what was received, the detector value, what was
sent), with decision and crash markers.  Message payloads are summarized —
DAG payloads print as ``DAG[size]`` rather than dumping hundreds of samples.

Intended for debugging crafted scenarios and for the examples; everything
here is presentation-only.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional

from repro.kernel.system import RunResult, StepRecord


def summarize_payload(payload: Any, limit: int = 60) -> str:
    """A short, stable rendering of a message payload."""
    if hasattr(payload, "add_local_sample") and hasattr(payload, "frontier"):
        return f"DAG[{len(payload)}]"
    if isinstance(payload, tuple) and len(payload) == 2 and hasattr(
        payload[1], "frontier"
    ):
        return f"({payload[0]}, DAG[{len(payload[1])}])"
    if isinstance(payload, tuple) and payload and isinstance(payload[0], str):
        parts = [str(payload[0])]
        for item in payload[1:]:
            parts.append(_short(item))
        text = "(" + ", ".join(parts) + ")"
    else:
        text = _short(payload)
    if len(text) > limit:
        text = text[: limit - 3] + "..."
    return text


def _short(item: Any) -> str:
    if isinstance(item, frozenset):
        return "{" + ",".join(str(x) for x in sorted(item)) + "}"
    if isinstance(item, dict):
        return f"hist[{sum(len(v) for v in item.values())}]"
    return repr(item)


def summarize_detector(value: Any) -> str:
    if isinstance(value, tuple):
        return "(" + ", ".join(_short(v) for v in value) + ")"
    return _short(value)


def format_step(record: StepRecord) -> str:
    """One transcript line for a step."""
    recv = "λ"
    if record.message is not None:
        recv = (
            f"{record.message.sender}->"
            f"{summarize_payload(record.message.payload)}"
        )
    sends = ""
    if record.sends:
        dests = {}
        for message in record.sends:
            key = summarize_payload(message.payload)
            dests.setdefault(key, []).append(message.dest)
        rendered = [
            f"{payload} to {sorted(ds)}" for payload, ds in dests.items()
        ]
        sends = "  sends " + "; ".join(rendered)
    return (
        f"t={record.time:<5} p{record.pid} "
        f"d={summarize_detector(record.detector_value)} "
        f"recv {recv}{sends}"
    )


def transcript(
    result: RunResult,
    start: int = 0,
    limit: Optional[int] = None,
    pids: Optional[Iterable[int]] = None,
) -> str:
    """The annotated transcript of (a window of) a run."""
    wanted = set(pids) if pids is not None else None
    lines: List[str] = []
    # Every crash and decision in the window as (time, kind, pid, text),
    # latest first.  A crash at t precedes the step at t (kind 0); a
    # decision is taken by the step at t (kind 1).  Each marker prints once,
    # at its place among the rendered steps, whichever pids those are.
    markers = [
        (t, 0, p, f"--- process {p} crashes ---")
        for p in result.pattern.faulty
        for t in [result.pattern.crash_time(p)]
        if t is not None and t >= start
    ]
    markers += [
        (t, 1, p, f"*** process {p} DECIDES {v!r} ***")
        for p, v in result.decisions.items()
        for t in [result.decision_times.get(p)]
        if t is not None and t >= start
    ]
    markers.sort(reverse=True)
    count = 0
    for record in result.steps:
        if record.time < start:
            continue
        if wanted is not None and record.pid not in wanted:
            continue
        while markers and markers[-1][:2] < (record.time, 1):
            lines.append(markers.pop()[3])
        lines.append(format_step(record))
        while markers and markers[-1][:2] <= (record.time, 1):
            lines.append(markers.pop()[3])
        count += 1
        if limit is not None and count >= limit:
            lines.append(f"... ({len(result.steps)} steps total)")
            break
    return "\n".join(lines)


def decision_summary(result: RunResult) -> str:
    """One line per process: decision, time, correctness."""
    lines = []
    for p in range(result.n):
        status = "correct" if p in result.pattern.correct else "faulty "
        if p in result.decisions:
            lines.append(
                f"p{p} ({status}): decided {result.decisions[p]!r} "
                f"at t={result.decision_times.get(p)}"
            )
        else:
            lines.append(f"p{p} ({status}): undecided")
    return "\n".join(lines)
