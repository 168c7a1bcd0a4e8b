"""Environment attribution: one stamp format for every durable artifact.

Exported traces and every :mod:`repro.store` record header carry the same
environment stamp — git SHA, python version, platform and CPU counts —
enough to pin a number to a commit and a machine.  This module is the
single owner of that format.
"""

from __future__ import annotations

import os
import platform
import subprocess
from typing import Any, Dict, Optional

_STAMP_CACHE: Dict[Optional[str], Dict[str, Any]] = {}


def environment_stamp(repo_root: Optional[str] = None) -> Dict[str, Any]:
    """Attribution metadata for benchmark/trace/store files.

    Git SHA (``None`` outside a work tree), python version, platform and
    CPU counts.  Cached per ``repo_root`` so store writes don't shell out
    to git once per record; call :func:`clear_stamp_cache` if the HEAD
    moves mid-process (tests do).
    """
    cached = _STAMP_CACHE.get(repo_root)
    if cached is not None:
        return dict(cached)
    try:
        sha: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_root or os.getcwd(),
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except Exception:
        sha = None
    try:
        affinity: Optional[int] = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = None
    stamp = {
        "git_sha": sha,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
    }
    _STAMP_CACHE[repo_root] = stamp
    return dict(stamp)


def clear_stamp_cache() -> None:
    _STAMP_CACHE.clear()
