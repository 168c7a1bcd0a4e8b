"""The synchronous consensus core beneath the asyncio service.

:class:`ServiceCore` owns a kernel :class:`~repro.kernel.system.System` of
:class:`~repro.smr.replicated_log.ReplicatedLogProcess` replicas running
unbounded logs under a sampled (Omega, Sigma^nu+) history.  The service
pump drives it in bounded step bursts (:meth:`step`), feeds client
batches at the believed leader (:meth:`feed_batch` — client-to-leader
routing one level above the in-protocol FWD forwarding), and reads back
two views of progress:

* the *decided* log — the longest local log; nonuniformly safe only, and
* the *certified* log — the per-slot quorum-majority entries of the
  longest prefix on which a majority of replica logs agree; the
  client-exposable (uniform-safe) part.  It is retained and extended,
  never recomputed: replica logs are append-only and a majority value is
  unique, so a certified slot stays certified with the same value.

The core is deliberately detector-skeptical: certification counts actual
log matches, never detector output, so a lying injector (``SplitQuorums``,
``CrashedLeaderOmega``) can stall progress or mislead routing but cannot
make an uncertified value count as certified.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

# The default detectors load with the module, not in ServiceCore(): a
# service's setup, not its first command, pays for importing them.
from repro.detectors.omega import Omega
from repro.detectors.paired import PairedDetector
from repro.detectors.sigma_nu_plus import SigmaNuPlus
from repro.kernel.failures import FailurePattern
from repro.kernel.system import System
from repro.smr.properties import extend_certified
from repro.smr.replicated_log import Command, ReplicatedLogProcess


class ServiceCore:
    """Kernel-side state of one service deployment."""

    def __init__(
        self,
        n: int,
        crash_times: Optional[Dict[int, int]] = None,
        seed: int = 0,
        detector: Any = None,
    ):
        if detector is None:
            detector = PairedDetector(Omega(), SigmaNuPlus())
        self.pattern = FailurePattern(n, crash_times or {})
        self.history = detector.sample_history(
            self.pattern, random.Random(seed + 777)
        )
        self.replicas: Dict[int, ReplicatedLogProcess] = {
            p: ReplicatedLogProcess((), slots=None) for p in range(n)
        }
        self.system = System(
            self.replicas,
            self.pattern,
            self.history,
            seed=seed,
            trace="metrics",
        )
        self.quorum = n // 2 + 1
        self._history_fn = (
            self.history.value if hasattr(self.history, "value") else self.history
        )
        self._fed_at: Dict[Command, int] = {}  # batch -> replica last fed
        self._certified: List[Optional[Command]] = []  # only ever extended

    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.pattern.n

    @property
    def time(self) -> int:
        return self.system.time

    def alive(self) -> List[int]:
        return sorted(self.pattern.alive_at(self.system.time))

    def leader_hint(self) -> Optional[int]:
        """Best guess at the current leader, for client-side routing.

        The Omega component as seen by the lowest alive replica; if that
        hint is crashed (a lying detector), fall back to the lowest alive
        replica.  Routing is a liveness-only concern — feeding the wrong
        replica wastes a forward, never safety.
        """
        alive = self.alive()
        if not alive:
            return None
        d = self._history_fn(alive[0], self.system.time)
        if isinstance(d, tuple) and d and isinstance(d[0], int):
            hint = d[0]
            if self.pattern.is_alive(hint, self.system.time):
                return hint
        return alive[0]

    # ------------------------------------------------------------------

    def feed_batch(self, batch: Command) -> Optional[int]:
        """Hand ``batch`` to the believed leader; returns the replica fed."""
        target = self.leader_hint()
        if target is None:
            return None
        self.replicas[target].feed(batch)
        self._fed_at[batch] = target
        return target

    def refeed_pending(self, inflight) -> int:
        """Re-route undecided batches when the believed leader moved.

        Safe to over-feed: a replica dedups via ``feed``, seq-eligibility
        stops stale re-proposals, and per-slot consensus picks one value
        even if two replicas race the same batch.
        """
        target = self.leader_hint()
        if target is None:
            return 0
        moved = 0
        for batch in inflight:
            if self._fed_at.get(batch) != target:
                self.replicas[target].feed(batch)
                self._fed_at[batch] = target
                moved += 1
        return moved

    def forget_batch(self, batch: Command) -> None:
        """``batch`` was applied: it will not be re-fed, drop its routing."""
        self._fed_at.pop(batch, None)

    def step(self, budget: int) -> int:
        """Advance the kernel up to ``budget`` steps; returns steps taken."""
        return self.system.advance(budget)

    # ------------------------------------------------------------------

    def decided_log(self) -> List[Optional[Command]]:
        """The longest local decided log (nonuniform view).

        Introspection only: the longest log may belong to a faulty
        replica holding a divergent entry, so certified state must be
        read via :meth:`certified_log`, never sliced out of this one.
        """
        best = max(self.replicas.values(), key=lambda r: len(r.log))
        return list(best.log)

    def _certify(self) -> List[Optional[Command]]:
        return extend_certified(
            self._certified,
            {p: r.log for p, r in self.replicas.items()},
            self.quorum,
        )

    def certified_log(self) -> List[Optional[Command]]:
        """Per-slot quorum-majority entries of the certified prefix.

        The uniform-safe log: each entry is backed by a majority of
        matching replica logs, so no single faulty replica's divergence
        can reach it.  This is the only log the service may apply from
        or expose to clients.  A fresh list each call — the pump, which
        runs every tick, takes :meth:`certified_since` instead.
        """
        return list(self._certify())

    def certified_since(self, start: int) -> List[Optional[Command]]:
        """The certified entries of slots ``start`` onwards (a fresh list)."""
        return self._certify()[start:]

    def certified_length(self) -> int:
        """Slots certified by a majority of matching replica logs."""
        return len(self._certify())

    def logs(self) -> Dict[int, List[Optional[Command]]]:
        return {p: list(r.log) for p, r in self.replicas.items()}

    def has_work(self) -> bool:
        """Whether stepping the kernel can still make client-visible
        progress: a pending command at an *alive* replica, or decided
        slots not yet certified.  Crashed replicas' frozen pending pools
        and logs are excluded — no amount of stepping moves them."""
        t = self.system.time
        alive = [p for p in range(self.n) if self.pattern.is_alive(p, t)]
        if not alive:
            return False
        if any(self.replicas[p].has_pending() for p in alive):
            return True
        longest = max(len(self.replicas[p].log) for p in alive)
        return self.certified_length() < longest
