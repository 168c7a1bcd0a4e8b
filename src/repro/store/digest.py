"""Canonical config digests for sweep tasks.

A :class:`~repro.harness.parallel.SweepTask` is a pure function of its
keyword arguments; the store therefore addresses its result by a SHA-256
over a *canonical form* of ``(fn identity, kwargs)``.  Canonicalization is
what makes the digest a semantic key rather than a repr accident:

* mapping entries are sorted, so dict insertion order never matters;
* lists and tuples collapse to one sequence form, so a spec-expanded
  ``seeds = [0, 1]`` and a code-built ``seeds = (0, 1)`` agree;
* sets and frozensets are sorted by their canonical element form;
* floats canonicalize through ``repr`` (shortest round-trip form in
  CPython ≥ 3.1), so ``0.1`` digests identically however it was computed,
  while genuinely different values (including ``0.0`` vs ``-0.0``) differ;
* bools are distinguished from ints, ints from floats, bytes from str;
* :class:`~repro.detectors.base.FailureDetector` instances key on their
  ``cache_key()`` — the same configuration identity the history LRU uses;
  a detector whose ``cache_key()`` is ``None`` is *uncacheable* and makes
  the whole task undigestable (it may sample differently run to run);
* :class:`~repro.kernel.failures.FailurePattern` keys on ``(n, sorted
  crash times)``;
* dataclass instances key on ``(qualified name, canonical field dict)``;
* any object may opt in explicitly by defining ``config_key()`` returning
  a canonicalizable value.

Anything else raises :class:`UndigestableError`; the store treats such
tasks as unstorable and simply executes them (counted under
``store.skipped``), so an exotic argument can never cause a wrong hit.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Callable, Dict, Tuple

from repro.detectors.base import FailureDetector
from repro.kernel.failures import FailurePattern

DIGEST_SCHEMA = "repro-config/1"


class UndigestableError(TypeError):
    """Raised when a task argument has no canonical form."""


def canonical(value: Any) -> Any:
    """The canonical (nested-tuple, type-tagged) form of ``value``.

    The result contains only primitives and tuples, with a stable,
    deterministic ``repr`` — suitable for hashing.
    """
    # bool before int: isinstance(True, int) is True.
    if value is None or isinstance(value, bool):
        return ("atom", value)
    if isinstance(value, int):
        return ("int", value)
    if isinstance(value, float):
        return ("float", repr(value))
    if isinstance(value, str):
        return ("str", value)
    if isinstance(value, bytes):
        return ("bytes", value.hex())
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(canonical(item) for item in value))
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted((canonical(item) for item in value), key=repr)))
    if isinstance(value, dict):
        items = tuple(
            sorted(
                ((canonical(k), canonical(v)) for k, v in value.items()),
                key=repr,
            )
        )
        return ("map", items)
    if isinstance(value, range):
        return ("seq", tuple(("int", i) for i in value))
    config_key = getattr(value, "config_key", None)
    if callable(config_key):
        return ("config_key", _qualname(type(value)), canonical(config_key()))
    if isinstance(value, FailurePattern):
        return (
            "FailurePattern",
            value.n,
            tuple(sorted(value.crash_times.items())),
        )
    if isinstance(value, FailureDetector):
        key = value.cache_key()
        if key is None:
            raise UndigestableError(
                f"detector {value!r} is uncacheable (cache_key() is None); "
                f"its task cannot be served from the store"
            )
        return ("detector", canonical(key))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: getattr(value, f.name) for f in dataclasses.fields(value)
        }
        return ("dataclass", _qualname(type(value)), canonical(fields))
    raise UndigestableError(
        f"no canonical form for {type(value).__name__}: {value!r}"
    )


def _qualname(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def fn_identity(fn: Callable[..., Any]) -> str:
    """The stable name a task function is addressed by."""
    return f"{fn.__module__}:{fn.__qualname__}"


def config_digest(fn: Callable[..., Any], kwargs: Dict[str, Any]) -> str:
    """SHA-256 hex digest of the canonical ``(fn, kwargs)`` form.

    Raises :class:`UndigestableError` when any argument lacks a canonical
    form.  By construction the digest is independent of dict insertion
    order and of *how* the sweep executes (``jobs`` never appears in task
    kwargs).
    """
    body: Tuple[Any, ...] = (DIGEST_SCHEMA, fn_identity(fn), canonical(kwargs))
    return hashlib.sha256(repr(body).encode("utf-8")).hexdigest()
