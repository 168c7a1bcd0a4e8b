"""The headline: the full asyncio service is a function of (config, seed).

Byte identity is asserted three ways:

* two runs of the same scenario produce identical decided logs, applied
  sequences, stats *and* counter registries;
* batch sizes 1/4/16 over the same seeded open-loop workload produce the
  identical applied command sequence (batching changes grouping, never
  order or content); and
* traced and untraced runs decide identically (RPR301-guarded
  instrumentation is observationally free).
"""

import hashlib

import pytest

from repro import obs
from repro.harness.load import LoadSpec, build_schedule, run_service_load
from repro.service.service import ServiceConfig

from tests.service.conftest import drain, run_service_scenario


def canonical_bytes(summary: dict) -> bytes:
    """A canonical byte encoding of a run summary (sorted, repr-based)."""
    parts = []
    for key in sorted(summary):
        if key == "extra":
            continue
        parts.append(f"{key}={summary[key]!r}".encode())
    return b"\n".join(parts)


def seeded_traffic(commands: int = 30, clients: int = 3):
    """A deterministic closed-ish scenario: interleaved session chains."""

    async def scenario(service, clock):
        import asyncio

        async def client(c: int) -> None:
            for seq in range(commands // clients):
                await service.submit(f"s{c}", seq, ("put", c, seq))
                await clock.sleep_ticks(1 + (c + seq) % 3)

        await asyncio.gather(*[client(c) for c in range(clients)])
        await service.read()
        await drain(service, clock)
        return None

    return scenario


class TestDoubleRunIdentity:
    def test_two_runs_byte_identical(self):
        config = ServiceConfig(n=3, seed=9, batch_size=4)
        a = run_service_scenario(config, seeded_traffic())
        b = run_service_scenario(config, seeded_traffic())
        assert canonical_bytes(a) == canonical_bytes(b)
        assert a["applied"]  # the scenario actually committed work

    def test_two_runs_identical_counter_registries(self):
        def traced_run():
            obs.enable(label="svc-determinism", fresh_metrics=True)
            try:
                run_service_scenario(
                    ServiceConfig(n=3, seed=9, batch_size=4), seeded_traffic()
                )
                return obs.metrics().snapshot()
            finally:
                obs.disable()

        first = traced_run()
        assert first["counters"]  # the scenario was instrumented
        assert traced_run() == first

    def test_different_seeds_differ(self):
        # The identity assertions above are not vacuous: seeds matter.
        a = run_service_scenario(
            ServiceConfig(n=3, seed=1, batch_size=4), seeded_traffic()
        )
        b = run_service_scenario(
            ServiceConfig(n=3, seed=2, batch_size=4), seeded_traffic()
        )
        # Closed-loop interleaving is seed-dependent, but the committed
        # *set* and each session's FIFO order are workload properties.
        assert set(a["applied"]) == set(b["applied"])
        for summary in (a, b):
            assert summary["invariant_violations"] == ()
        assert canonical_bytes(a) != canonical_bytes(b)


class TestBatchSizeIdentity:
    @pytest.mark.parametrize("mode", ["burst", "spread"])
    def test_batch_1_4_16_same_applied_sequence(self, mode):
        spec = LoadSpec(
            mode="open",
            clients=5,
            commands=40,
            arrival_every=0 if mode == "burst" else 2,
            seed=17,
        )
        digests = {}
        applied = {}
        for batch in (1, 4, 16):
            config = ServiceConfig(
                n=3, seed=17, batch_size=batch, queue_depth=64
            )
            report, service = run_service_load(config, spec)
            assert report.committed == report.submitted == 40
            assert report.timed_out == 0
            digests[batch] = report.applied_digest
            applied[batch] = tuple(service.applied_commands)
        assert applied[1] == applied[4] == applied[16]
        assert len(set(digests.values())) == 1

    def test_schedule_depends_only_on_spec(self):
        spec = LoadSpec(mode="open", clients=4, commands=25, seed=5)
        assert build_schedule(spec) == build_schedule(spec)
        other = build_schedule(LoadSpec(mode="open", clients=4,
                                        commands=25, seed=6))
        assert build_schedule(spec) != other


class TestTracedUntracedIdentity:
    def test_tracing_changes_nothing_decided(self):
        config = ServiceConfig(n=3, seed=23, batch_size=8)
        untraced = run_service_scenario(config, seeded_traffic())

        obs.enable(label="svc-traced", fresh_metrics=True)
        try:
            traced = run_service_scenario(config, seeded_traffic())
            spans = obs.tracer().spans()
            events = obs.tracer().events()
        finally:
            obs.disable()

        assert canonical_bytes(traced) == canonical_bytes(untraced)
        # And the trace really covered the pipeline stages.
        span_names = {s["name"] for s in spans}
        event_names = {e["name"] for e in events}
        assert "service.kernel" in span_names
        assert "service.apply" in span_names
        assert {"service.submit", "service.propose", "service.reply"} <= (
            event_names
        )

    def test_load_digest_traced_equals_untraced(self):
        spec = LoadSpec(mode="open", clients=4, commands=24,
                        arrival_every=0, seed=31)
        config = ServiceConfig(n=3, seed=31, batch_size=4)
        plain, _ = run_service_load(config, spec)
        obs.enable(label="svc-load", fresh_metrics=True)
        try:
            traced, _ = run_service_load(config, spec)
        finally:
            obs.disable()
        assert plain.applied_digest == traced.applied_digest
        assert plain.latencies == traced.latencies
        assert plain.kernel_steps == traced.kernel_steps


def test_canonical_bytes_is_stable_itself():
    payload = {"b": (1, 2), "a": {"x": 1}, "extra": object()}
    digest = hashlib.sha256(canonical_bytes(payload)).hexdigest()
    assert digest == hashlib.sha256(canonical_bytes(dict(payload))).hexdigest()
