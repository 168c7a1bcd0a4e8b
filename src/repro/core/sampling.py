"""A_DAG (Fig. 1): the DAG-building algorithm as a live process.

Each iteration of the loop — receive a message, query the detector, update
the DAG, broadcast it — is one model step, exactly as the paper notes.  The
transformations embed this loop verbatim; :class:`DagBuilder` is the
standalone version used to study the DAG machinery itself (Observations
4.1-4.4, Lemmas 4.5-4.8).
"""

from __future__ import annotations

from typing import Generator

from repro.core.dag import DagCore
from repro.kernel.automaton import Process, ProcessContext


class DagBuilder(Process):
    """Pure A_DAG: builds and broadcasts a DAG of detector samples."""

    def __init__(self) -> None:
        self.core: DagCore = None  # type: ignore[assignment]

    def program(self, ctx: ProcessContext) -> Generator:
        core = DagCore(ctx.pid, ctx.n)
        self.core = core  # exposed for inspection by tests and drivers
        while True:
            obs = yield from ctx.take_step()  # line 5: receive a message
            if obs.message is not None:  # line 7: G_p <- G_p ∪ m
                core.absorb(obs.message.payload)
            core.sample(obs.detector_value, obs.time)  # lines 6, 8-10
            ctx.send_to_all(core.dag)  # line 11
