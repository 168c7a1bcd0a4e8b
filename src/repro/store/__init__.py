"""``repro.store`` — a content-addressed result store for sweeps.

Every experiment table in this reproduction is an aggregate over thousands
of independent, seeded runs.  Re-running a sweep after a small code change
re-executes all of them, although almost none *moved*.  This package makes
"what moved?" a first-class question:

* :func:`config_digest` — a canonical SHA-256 of a task's ``(fn, kwargs)``
  (insertion-order free, detector-aware, stable float form);
* :func:`code_signature` — a SHA-256 over the sources of every first-party
  module the task's function transitively imports (the simtrie/PR-2
  fresh-signature idea applied at sweep granularity);
* :class:`ResultStore` — atomic, merge-safe records keyed by the pair,
  living under ``benchmarks/results/store/`` (gitignored).

The sweep driver (:func:`repro.harness.parallel.run_sweep`) consults the
store before dispatching: unchanged rows are served from disk, only moved
rows execute, and the ``store.hit`` / ``store.miss`` / ``store.invalidated``
counters say which was which.  Warm re-runs render byte-identical tables.

CLI: ``python -m repro sweep SPEC`` and ``python -m repro store {ls,gc,diff}``
(see ``docs/sweeps.md``).
"""

from repro.store.digest import (
    DIGEST_SCHEMA,
    UndigestableError,
    canonical,
    config_digest,
    fn_identity,
)
from repro.store.signature import (
    ModuleSignatureIndex,
    code_signature,
    default_index,
)
from repro.store.store import (
    STORE_SCHEMA,
    ResultStore,
    StoreStats,
    TaskKey,
    default_store_root,
)

__all__ = [
    "DIGEST_SCHEMA",
    "STORE_SCHEMA",
    "ModuleSignatureIndex",
    "ResultStore",
    "StoreStats",
    "TaskKey",
    "UndigestableError",
    "canonical",
    "code_signature",
    "config_digest",
    "default_index",
    "default_store_root",
    "fn_identity",
]
