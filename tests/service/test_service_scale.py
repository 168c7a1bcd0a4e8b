"""The ROADMAP's 10^5-command target on the logical clock (``-m slow``).

A burst at batch 16 decides 6 250 slots.  Nothing on the service path may
depend on how long the log already is, so the run costs the same kernel
steps per command as one a tenth its size — and finishes in well under a
minute, where re-reading the log every tick made it unreachable.
"""

import pytest

from repro.harness.load import LoadSpec, build_schedule, run_service_load
from repro.service.service import ServiceConfig
from repro.smr.properties import check_service_log

pytestmark = pytest.mark.slow


def burst(commands: int):
    spec = LoadSpec(mode="open", clients=8, commands=commands,
                    arrival_every=0, seed=42, deadline_ticks=10**6)
    config = ServiceConfig(n=3, seed=42, batch_size=16, queue_depth=commands)
    report, service = run_service_load(config, spec)
    assert report.committed == report.submitted == commands
    assert report.shed == report.timed_out == 0
    assert service.invariants.ok, service.invariants.violations[:2]
    log_report = check_service_log(service.core.certified_log())
    assert log_report.ok, log_report.violations[:2]
    # Exactly once: every scheduled command applied, none twice.
    expected = [(session, seq, op) for _t, session, seq, op in
                build_schedule(spec)]
    applied = service.applied_commands
    assert len(applied) == commands and set(applied) == set(expected)
    return report.kernel_steps / report.committed


def test_hundred_thousand_command_burst_costs_what_ten_thousand_does():
    small = burst(10_000)
    large = burst(100_000)
    assert abs(large - small) / small < 0.01, (small, large)
