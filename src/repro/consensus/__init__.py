"""Consensus algorithms and property verifiers.

The paper's Section 6.3 builds on the Mostéfaoui-Raynal leader-based
algorithm; this package implements it (majority version, Omega only), its
quorum generalization with Sigma (which solves *uniform* consensus in any
environment — footnote 5), and the *naive* Sigma^nu variant whose
contamination failure motivates all of A_nuc's extra machinery.

All three are pure automata (see :mod:`repro.kernel.automaton`), so they can
also act as the subject algorithm ``A`` inside the necessity transformation
``T_{D -> Sigma^nu}``.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.consensus.interface": "ConsensusOutcome consensus_outcome",
    "repro.consensus.mostefaoui_raynal": "MostefaouiRaynal",
    "repro.consensus.properties": (
        "PropertyReport check_nonuniform_consensus check_uniform_consensus"
    ),
    "repro.consensus.quorum_mr": "NaiveSigmaNuConsensus QuorumMR",
    "repro.consensus.chandra_toueg": "ChandraTouegS",
    "repro.consensus.flood_p": "FloodSetPerfect",
})
