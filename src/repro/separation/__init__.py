"""Section 7: comparing (Omega, Sigma^nu) with (Omega, Sigma), plus the
Section 6.3 contamination scenario that separates the naive quorum algorithm
from A_nuc.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.separation.adversary": "AdversaryVerdict run_partition_adversary",
    "repro.separation.contamination": "ContaminationReport run_contamination_scenario",
    "repro.separation.from_scratch_sigma": "FromScratchSigma",
})
