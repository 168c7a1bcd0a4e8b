"""The metrics registry: semantics of each kind and the merge contract."""

from repro.obs.registry import MetricsRegistry, merge_snapshots


class TestCounters:
    def test_inc_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        assert reg.counters() == {"a": 5}

    def test_absorb_sums_plain_dicts(self):
        reg = MetricsRegistry()
        reg.absorb({"x": 2, "y": 1})
        reg.absorb({"x": 3}, prefix="search.")
        assert reg.counters() == {"x": 2, "y": 1, "search.x": 3}

    def test_absorb_none_and_empty_are_noops(self):
        reg = MetricsRegistry()
        reg.absorb(None)
        reg.absorb({})
        assert reg.counters() == {}


class TestGauges:
    def test_gauge_keeps_high_water(self):
        reg = MetricsRegistry()
        reg.gauge("depth", 5)
        reg.gauge("depth", 3)
        reg.gauge("depth", 9)
        assert reg.snapshot()["gauges"] == {"depth": 9}


class TestSnapshotDelta:
    def test_snapshot_holds_only_logical_sections(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.gauge("g", 1)
        assert set(reg.snapshot()) == {"counters", "gauges"}
        assert set(reg.delta_since(reg.snapshot())) == {"counters", "gauges"}

    def test_delta_since_subtracts_counters(self):
        reg = MetricsRegistry()
        reg.inc("a", 2)
        before = reg.snapshot()
        reg.inc("a", 3)
        reg.inc("b")
        delta = reg.delta_since(before)
        assert delta["counters"] == {"a": 3, "b": 1}

    def test_delta_drops_unchanged_keys(self):
        reg = MetricsRegistry()
        reg.inc("quiet", 7)
        delta = reg.delta_since(reg.snapshot())
        assert delta["counters"] == {}

    def test_snapshot_is_a_copy(self):
        reg = MetricsRegistry()
        reg.inc("a")
        snap = reg.snapshot()
        reg.inc("a")
        assert snap["counters"] == {"a": 1}


class TestMerge:
    def test_merge_parity_inline_vs_sharded(self):
        """Counter sums and gauge maxes commute: any sharding of the same
        work merges to the registry an inline run would have built."""

        def work(reg, shard):
            for i in range(4):
                reg.inc("calls")
                reg.inc(f"shard.{shard}", i)
                reg.gauge("peak", shard * 10 + i)

        inline = MetricsRegistry()
        for shard in (1, 2, 3):
            work(inline, shard)

        shards = []
        for shard in (1, 2, 3):
            reg = MetricsRegistry()
            work(reg, shard)
            shards.append(reg.snapshot())
        merged = merge_snapshots(shards)

        assert merged["counters"] == inline.snapshot()["counters"]
        assert merged["gauges"] == inline.snapshot()["gauges"]

    def test_merge_order_irrelevant(self):
        snaps = []
        for value in (3, 1, 2):
            reg = MetricsRegistry()
            reg.inc("n", value)
            reg.gauge("g", value)
            snaps.append(reg.snapshot())
        forward = merge_snapshots(snaps)
        backward = merge_snapshots(list(reversed(snaps)))
        assert forward == backward


class TestHousekeeping:
    def test_clear_and_len(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.gauge("g", 1)
        assert len(reg) == 2
        reg.clear()
        assert len(reg) == 0

    def test_repr(self):
        reg = MetricsRegistry()
        reg.inc("a")
        assert "counters=1" in repr(reg)
