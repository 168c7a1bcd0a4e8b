"""State-machine replication on top of the paper's consensus.

The downstream payoff of a consensus building block: a replicated log.
Each slot of the log is decided by one instance of A_nuc (driven by an
ambient (Omega, Sigma^nu+) module — or the full (Omega, Sigma^nu) stack's
booster output); correct replicas apply the decided commands in slot order
and therefore execute identical state-machine histories, with any number of
crash failures.

Nonuniform consensus is exactly strong enough for this *among correct
replicas*: a faulty replica may apply a divergent command before crashing,
which is harmless to the survivors — the same weakening the paper
characterizes.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.smr.replicated_log": "ReplicatedLogProcess is_batch run_replicated_log",
    "repro.smr.properties": (
        "ServiceInvariants SmrReport certified_log certified_prefix_length "
        "check_certified_reads check_service_log check_smr extend_certified "
        "flatten_batches"
    ),
})
