"""Theorem 6.28: solving nonuniform consensus with (Omega, Sigma^nu).

The composition runs, at every process, the booster
``T_{Sigma^nu -> Sigma^nu+}`` *concurrently* with ``A_nuc``; A_nuc reads its
Sigma^nu+ module not from a real detector but from the booster's emulated
``output_p`` variable, exactly as the theorem's proof prescribes.

:class:`StackedNucProcess` realizes the concurrency by multiplexing the two
sub-programs inside one model process: each step's observation is split —
the booster sees the Sigma^nu component of the ambient ``(Omega, Sigma^nu)``
detector, A_nuc sees ``(Omega, booster's current output)`` — and each
sub-program's messages are tagged so they reach the right peer sub-program.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Tuple

from repro.core.boosting import SigmaNuPlusBooster
from repro.core.nuc import AnucProcess
from repro.kernel.automaton import DeliveredMessage, Process, ProcessContext

_BOOST = "B"
_NUC = "C"


class StackedNucProcess(Process):
    """One process of the full (Omega, Sigma^nu) nonuniform consensus stack."""

    def __init__(self, proposal: Any, n: int, check_growth: int = 1):
        self.proposal = proposal
        self.n = n
        self.booster = SigmaNuPlusBooster(n, check_growth=check_growth)
        self.nuc = AnucProcess(proposal)

    def initial_output(self) -> Any:
        # Expose the booster's emulated Sigma^nu+ output as this process's
        # output, so runs of the stack also validate Theorem 6.7's claim.
        return self.booster.initial_output()

    def program(self, ctx: ProcessContext) -> Generator:
        boost_ctx = ProcessContext(ctx.pid, ctx.n)
        nuc_ctx = ProcessContext(ctx.pid, ctx.n)
        boost_rt = self.booster.runtime(boost_ctx)
        nuc_rt = self.nuc.runtime(nuc_ctx)
        current_quorum = self.booster.initial_output()
        outputs_seen = 0

        while True:
            obs = yield from ctx.take_step()
            omega_value, sigma_nu_value = obs.detector_value

            boost_msg: Optional[DeliveredMessage] = None
            nuc_msg: Optional[DeliveredMessage] = None
            if obs.message is not None:
                channel, payload = obs.message.payload
                wrapped = DeliveredMessage(obs.message.sender, payload)
                if channel == _BOOST:
                    boost_msg = wrapped
                else:
                    nuc_msg = wrapped

            # The booster sub-step runs first so A_nuc reads the freshest
            # emulated quorum within the same step.
            boost_sends = boost_rt.step(boost_msg, sigma_nu_value, obs.time)
            if len(boost_ctx.outputs) > outputs_seen:
                outputs_seen = len(boost_ctx.outputs)
                current_quorum = boost_ctx.outputs[-1][1]
                ctx.output(current_quorum)

            nuc_sends = nuc_rt.step(
                nuc_msg, (omega_value, current_quorum), obs.time
            )
            if nuc_ctx.decision is not None and ctx.decision is None:
                ctx.decide(nuc_ctx.decision)

            for dest, payload in boost_sends:
                ctx.send(dest, (_BOOST, payload))
            for dest, payload in nuc_sends:
                ctx.send(dest, (_NUC, payload))
