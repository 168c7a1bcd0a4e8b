"""A parked replica's lambda step returns at once, and changes no run.

When the open slot's A_nuc wait failed at the replica's last step and the
step now receives lambda with the same detector value, the step is a
stutter (``tests/core/test_nuc_parked.py``) — unless :meth:`feed` added a
command since, which the step must forward to the leader.  The replica
returns no sends at once on such a step, and still counts it.
"""

import random

import pytest

from repro.detectors import Omega, PairedDetector, SigmaNuPlus
from repro.kernel.automaton import ProcessContext
from repro.kernel.failures import FailurePattern
from repro.kernel.system import System
from repro.smr.replicated_log import FWD, ReplicatedLogProcess

D = (0, frozenset({0, 1}))  # leader p0, quorum {0, 1}


def bound_replica(pid=1, n=3):
    replica = ReplicatedLogProcess([], slots=None)
    ctx = ProcessContext(pid, n)
    return replica, replica.runtime(ctx), ctx


def test_a_parked_replica_stutters_and_counts_the_step():
    replica, runtime, ctx = bound_replica()
    assert runtime.step(None, D, 0)  # round 1's LEAD broadcast; then waits
    assert runtime.step(None, D, 1) == []
    assert runtime.step(None, D, 2) == []
    assert ctx.step_count == 3
    # A new detector value is not a stutter: the check runs again.
    other = (0, frozenset({1, 2}))
    assert runtime.step(None, other, 3) == []
    assert replica._instance.parked == other


def test_a_parked_non_leader_forwards_a_fed_command_at_its_next_step():
    replica, runtime, _ctx = bound_replica()
    runtime.step(None, D, 0)
    assert runtime.step(None, D, 1) == []  # parked
    command = ("put", "s", 0)
    assert replica.feed(command)
    assert runtime.step(None, D, 2) == [(0, (FWD, command))]
    assert runtime.step(None, D, 3) == []  # once per (command, leader)
    # A leader change re-forwards (the detector value changed).
    assert runtime.step(None, (2, frozenset({1, 2})), 4) == [
        (2, (FWD, command))
    ]


class NeverParkedReplica(ReplicatedLogProcess):
    """The replica with its own stutter skip turned off."""

    def step(self, message, d, t):
        self._parked = object()
        return super().step(message, d, t)


def fed_run(replica_cls, n, seed):
    """A service-shaped run: unbounded slots, commands fed to random
    replicas between bursts, the last replica crashing mid-run."""
    pattern = FailurePattern(n, {n - 1: 1500})
    detector = PairedDetector(Omega(), SigmaNuPlus())
    history = detector.sample_history(pattern, random.Random(seed))
    replicas = {p: replica_cls([], slots=None) for p in range(n)}
    system = System(replicas, pattern, history, seed=seed)
    rng = random.Random(f"feeds/{seed}")
    for burst in range(30):
        replicas[rng.randrange(n)].feed(("put", burst))
        system.advance(rng.randint(1, 150))
    return system.result(), replicas


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("seed", range(3))
def test_the_skip_changes_no_step_of_a_fed_run(n, seed):
    shipped, shipped_replicas = fed_run(ReplicatedLogProcess, n, seed)
    reference, reference_replicas = fed_run(NeverParkedReplica, n, seed)
    assert shipped.steps == reference.steps
    for p in range(n):
        assert shipped_replicas[p].log == reference_replicas[p].log
    assert any(shipped_replicas[p].applied for p in range(n))
