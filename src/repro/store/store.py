"""The content-addressed result store under ``benchmarks/results/store``.

Layout (documented for humans in ``benchmarks/results/README.md``)::

    <root>/
      objects/<digest[:2]>/<digest>/<signature[:16]>.json

``objects/`` holds one record per ``(config_digest, code_signature)`` pair:
the digest names the *row* (canonical task kwargs, see
:mod:`repro.store.digest`), the signature names the *code* that produced it
(module closure hash, see :mod:`repro.store.signature`).  Records for the
same row under different signatures coexist — switching a branch back
restores its hits.  A lookup that finds the row only under *other*
signatures is an **invalidation** (the code moved), distinct from a plain
miss (never computed).

Write discipline — safe under ``--jobs N`` and concurrent sweeps:

* results are computed by workers but **written only by the parent** (the
  sweep driver), so no record is ever produced twice in one sweep;
* every write goes through a same-directory temp file + :func:`os.replace`,
  which is atomic on POSIX — readers see either the old record or the new
  one, never a torn file;
* concurrent writers racing on one key write byte-identical content (same
  digest, same signature, same deterministic result), so last-write-wins
  is harmless.

Payloads are pickled (every sweep result already crosses a process
boundary under ``--jobs N``, so picklability is a pre-existing contract),
zlib-compressed and base64-embedded in the JSON record.  A result that
fails to pickle is simply not stored; a record that fails to load is
treated as a miss and rewritten — the store can only ever *skip* work,
never corrupt a sweep.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import obs as _obs
from repro.harness.envinfo import environment_stamp
from repro.store.digest import UndigestableError, config_digest, fn_identity
from repro.store.signature import ModuleSignatureIndex, default_index

STORE_SCHEMA = "repro-store/1"

_SIG_PREFIX = 16  # filename component; full signature lives in the record


def default_store_root() -> str:
    """The canonical store location for this checkout.

    ``REPRO_STORE_DIR`` overrides; otherwise ``benchmarks/results/store``
    under the repository root that contains the installed ``repro`` package
    (source checkouts), falling back to the current directory's
    ``benchmarks/results/store`` for installed-package use.
    """
    override = os.environ.get("REPRO_STORE_DIR")
    if override:
        return override
    import repro

    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    repo_root = os.path.dirname(os.path.dirname(package_dir))
    candidate = os.path.join(repo_root, "benchmarks", "results")
    if os.path.isdir(candidate):
        return os.path.join(candidate, "store")
    return os.path.join(os.getcwd(), "benchmarks", "results", "store")


@dataclass(frozen=True)
class TaskKey:
    """The store address of one sweep task."""

    digest: str
    signature: str
    fn: str


@dataclass
class StoreStats:
    """Lookup/write accounting for one :class:`ResultStore` instance."""

    hits: int = 0
    misses: int = 0
    invalidated: int = 0
    skipped: int = 0  # undigestable kwargs or unsigned module
    writes: int = 0
    write_failures: int = 0  # unpicklable results

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidated": self.invalidated,
            "skipped": self.skipped,
            "writes": self.writes,
            "write_failures": self.write_failures,
        }

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.invalidated

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def reset(self) -> None:
        """Zero all counters (benchmarks measure phases separately)."""
        self.hits = self.misses = self.invalidated = 0
        self.skipped = self.writes = self.write_failures = 0


class ResultStore:
    """Content-addressed sweep results keyed by (config digest, code sig)."""

    def __init__(
        self,
        root: Optional[str] = None,
        index: Optional[ModuleSignatureIndex] = None,
        repo_root: Optional[str] = None,
    ):
        self.root = os.path.abspath(root or default_store_root())
        self.index = index or default_index()
        self._repo_root = repo_root
        self.stats = StoreStats()
        self._signature_cache: Dict[str, Optional[str]] = {}

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------

    def key_for(self, fn: Callable[..., Any], kwargs: Dict[str, Any]) -> Optional[TaskKey]:
        """The task's store key, or ``None`` if it cannot be stored."""
        modname = fn.__module__
        if modname not in self._signature_cache:
            self._signature_cache[modname] = self.index.signature(modname)
            if _obs._ENABLED:
                # Signature computations are the per-sweep fixed cost of
                # addressing (one import-closure hash per module); digests
                # are the per-row cost.  Counting both makes a slow lookup
                # phase explainable from the trace alone.
                _obs.metrics().inc("store.signature")
        signature = self._signature_cache[modname]
        if signature is None:
            return None
        try:
            digest = config_digest(fn, kwargs)
        except UndigestableError:
            return None
        if _obs._ENABLED:
            _obs.metrics().inc("store.digest")
        return TaskKey(digest=digest, signature=signature, fn=fn_identity(fn))

    def refresh_signatures(self) -> None:
        """Forget per-sweep signature caching (after editing sources)."""
        self._signature_cache.clear()
        self.index.refresh()

    def _row_dir(self, digest: str) -> str:
        return os.path.join(self.root, "objects", digest[:2], digest)

    def _record_path(self, key: TaskKey) -> str:
        return os.path.join(
            self._row_dir(key.digest), key.signature[:_SIG_PREFIX] + ".json"
        )

    # ------------------------------------------------------------------
    # Lookup / write
    # ------------------------------------------------------------------

    def probe(self, key: TaskKey) -> str:
        """Lookup status without deserializing: hit / invalidated / miss."""
        if os.path.isfile(self._record_path(key)):
            return "hit"
        row_dir = self._row_dir(key.digest)
        try:
            others = [n for n in os.listdir(row_dir) if n.endswith(".json")]
        except OSError:
            others = []
        return "invalidated" if others else "miss"

    def load(self, key: TaskKey) -> Tuple[str, Any]:
        """``(status, value)``; value is only meaningful when status=="hit".

        Counts into :attr:`stats`.  A corrupt or mismatched record demotes
        to a miss (and will be rewritten by the next :meth:`store`).
        """
        path = self._record_path(key)
        record = self._read_record(path)
        if record is not None and record.get("code_signature") == key.signature:
            try:
                value = _decode_payload(record)
            except Exception:
                record = None  # corrupt payload: recompute and rewrite
            else:
                self.stats.hits += 1
                return "hit", value
        own = os.path.basename(path)
        try:
            others = [
                n
                for n in os.listdir(os.path.dirname(path))
                if n.endswith(".json") and n != own
            ]
        except OSError:
            others = []
        if others:
            self.stats.invalidated += 1
            return "invalidated", None
        self.stats.misses += 1
        return "miss", None

    def store(
        self,
        key: TaskKey,
        value: Any,
        telemetry: Optional[Dict[str, Any]] = None,
    ) -> bool:
        """Atomically persist one result; False if it cannot be pickled.

        ``telemetry`` (optional) rides along in the record: the row's
        deterministic counter delta and span-path aggregates as captured
        by a traced sweep (see :mod:`repro.harness.parallel`).  It never
        affects lookups — records with and without telemetry are equally
        valid hits — but lets ``repro store diff --counters`` explain how
        much *work* moved between two code signatures, not just which
        rows would re-run.
        """
        try:
            payload = base64.b64encode(
                zlib.compress(pickle.dumps(value, protocol=4))
            ).decode("ascii")
        except Exception:
            self.stats.write_failures += 1
            return False
        record = {
            "schema": STORE_SCHEMA,
            "config_digest": key.digest,
            "code_signature": key.signature,
            "fn": key.fn,
            "created_at": _utc_now(),
            "environment": environment_stamp(self._repo_root),
            "payload_format": "pickle4+zlib+base64",
            "payload": payload,
        }
        if telemetry:
            record["telemetry"] = telemetry
        self._atomic_write_json(self._record_path(key), record)
        self.stats.writes += 1
        return True

    def _read_record(self, path: str) -> Optional[Dict[str, Any]]:
        try:
            with open(path, "r") as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            return None
        if record.get("schema") != STORE_SCHEMA:
            return None
        return record

    def _atomic_write_json(self, path: str, record: Dict[str, Any]) -> None:
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(record, fh, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # Inspection / maintenance
    # ------------------------------------------------------------------

    def ls(self) -> List[Dict[str, Any]]:
        """Every record's header (payload elided), sorted by path."""
        entries: List[Dict[str, Any]] = []
        objects = os.path.join(self.root, "objects")
        for path in sorted(_walk_json(objects)):
            record = self._read_record(path)
            if record is None:
                continue
            entries.append(
                {
                    "config_digest": record.get("config_digest"),
                    "code_signature": record.get("code_signature"),
                    "fn": record.get("fn"),
                    "created_at": record.get("created_at"),
                    "git_sha": (record.get("environment") or {}).get("git_sha"),
                    "bytes": os.path.getsize(path),
                    "path": os.path.relpath(path, self.root),
                }
            )
        return entries

    def gc(self, mode: str = "stale", dry_run: bool = False) -> Dict[str, Any]:
        """Remove records; ``mode`` is ``"stale"`` (default) or ``"all"``.

        ``stale`` removes object records whose code signature is no longer
        the current signature of their function's module (including records
        whose module vanished).  ``all`` clears every object record.
        Returns a summary dict.
        """
        if mode not in ("stale", "all"):
            raise ValueError(f"unknown gc mode {mode!r}")
        removed: List[str] = []
        kept = 0
        freed = 0
        current: Dict[str, Optional[str]] = {}
        objects = os.path.join(self.root, "objects")
        for path in sorted(_walk_json(objects)):
            record = self._read_record(path)
            stale = record is None
            if record is not None and mode == "stale":
                fn = record.get("fn") or ""
                modname = fn.split(":", 1)[0]
                if modname not in current:
                    current[modname] = self.index.signature(modname)
                stale = record.get("code_signature") != current[modname]
            elif record is not None:  # mode == "all"
                stale = True
            if stale:
                removed.append(os.path.relpath(path, self.root))
                freed += os.path.getsize(path)
                if not dry_run:
                    os.unlink(path)
            else:
                kept += 1
        if not dry_run:
            _prune_empty_dirs(objects)
        return {
            "mode": mode,
            "dry_run": dry_run,
            "removed": removed,
            "kept": kept,
            "bytes_freed": freed,
        }

    def telemetry(self, key: TaskKey) -> Optional[Dict[str, Any]]:
        """The telemetry stored with this exact ``(digest, signature)``."""
        record = self._read_record(self._record_path(key))
        if record is not None and record.get("code_signature") == key.signature:
            return record.get("telemetry")
        return None

    def previous_record(self, key: TaskKey) -> Optional[Dict[str, Any]]:
        """The newest record of this row under a *different* signature.

        This is the record an invalidated lookup displaced: same config
        digest, older code.  ``repro store diff --counters`` compares its
        telemetry against the current signature's to show how the row's
        deterministic work moved when the code did.
        """
        row_dir = self._row_dir(key.digest)
        own = key.signature[:_SIG_PREFIX] + ".json"
        try:
            names = [
                n
                for n in os.listdir(row_dir)
                if n.endswith(".json") and n != own
            ]
        except OSError:
            return None
        best: Optional[Dict[str, Any]] = None
        for name in sorted(names):
            record = self._read_record(os.path.join(row_dir, name))
            if record is None:
                continue
            if best is None or (record.get("created_at") or "") >= (
                best.get("created_at") or ""
            ):
                best = record
        return best

    def diff_tasks(
        self,
        tasks: List[Tuple[Callable[..., Any], Dict[str, Any]]],
        with_telemetry: bool = False,
    ) -> Dict[str, Any]:
        """What a sweep over ``tasks`` would do, without running anything.

        ``with_telemetry`` additionally attaches each row's stored
        telemetry under the current signature (``telemetry``; hits only)
        and under the newest displaced signature (``previous_telemetry``),
        so callers can compute per-counter work deltas across the code
        change without executing a row.
        """
        counts = {"hit": 0, "invalidated": 0, "miss": 0, "unstorable": 0}
        rows: List[Dict[str, Any]] = []
        for fn, kwargs in tasks:
            key = self.key_for(fn, kwargs)
            if key is None:
                counts["unstorable"] += 1
                rows.append({"fn": fn_identity(fn), "status": "unstorable"})
                continue
            status = self.probe(key)
            counts[status] += 1
            row = {
                "fn": key.fn,
                "status": status,
                "config_digest": key.digest,
                "code_signature": key.signature,
            }
            if with_telemetry:
                row["telemetry"] = (
                    self.telemetry(key) if status == "hit" else None
                )
                previous = self.previous_record(key)
                row["previous_telemetry"] = (
                    previous.get("telemetry") if previous else None
                )
            rows.append(row)
        return {"counts": counts, "tasks": rows}


def _decode_payload(record: Dict[str, Any]) -> Any:
    if record.get("payload_format") != "pickle4+zlib+base64":
        raise ValueError(f"unknown payload format {record.get('payload_format')!r}")
    return pickle.loads(zlib.decompress(base64.b64decode(record["payload"])))


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _walk_json(root: str) -> List[str]:
    paths: List[str] = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            if name.endswith(".json"):
                paths.append(os.path.join(dirpath, name))
    return paths


def _prune_empty_dirs(root: str) -> None:
    # Bottom-up so a parent is visited after its children were removed;
    # rmdir on a still-populated (or concurrently written) dir just fails.
    for dirpath, _dirnames, _filenames in os.walk(root, topdown=False):
        if dirpath != root:
            try:
                os.rmdir(dirpath)
            except OSError:
                pass
