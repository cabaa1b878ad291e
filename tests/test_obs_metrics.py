"""Metrics registry semantics: counters, gauges, histograms, globals."""

import pytest

from repro.obs import MetricsRegistry, get_registry, set_registry


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        reg = MetricsRegistry()
        counter = reg.counter("dme.plans_computed")
        assert counter.value == 0
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_as_dict(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        assert reg.as_dict()["c"] == {"type": "counter", "value": 3}


class TestGauge:
    def test_last_write_wins(self):
        gauge = MetricsRegistry().gauge("oracle.hits")
        assert gauge.value is None
        gauge.set(10)
        gauge.set(7)
        assert gauge.value == 7

    def test_as_dict(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(1.5)
        assert reg.as_dict()["g"] == {"type": "gauge", "value": 1.5}


class TestHistogram:
    def test_summary_stats(self):
        hist = MetricsRegistry().histogram("controller.star_edge_length")
        for value in (2.0, 4.0, 6.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == 12.0
        assert hist.min == 2.0
        assert hist.max == 6.0
        assert hist.mean == 4.0

    def test_empty_histogram_exports_none(self):
        reg = MetricsRegistry()
        reg.histogram("h")
        d = reg.as_dict()["h"]
        assert d["count"] == 0
        assert d["min"] is None and d["max"] is None and d["mean"] is None

    def test_as_dict_keys(self):
        reg = MetricsRegistry()
        reg.histogram("h").observe(1.0)
        assert set(reg.as_dict()["h"]) == {
            "type",
            "count",
            "sum",
            "min",
            "max",
            "mean",
        }


class TestRegistry:
    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("name")
        with pytest.raises(TypeError):
            reg.gauge("name")
        with pytest.raises(TypeError):
            reg.histogram("name")

    def test_contains_len_names_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.gauge("a")
        assert "a" in reg and "b" in reg and "c" not in reg
        assert len(reg) == 2
        assert reg.names() == ["a", "b"]

    def test_as_dict_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.counter("z")
        reg.counter("a")
        assert list(reg.as_dict()) == ["a", "z"]


class TestGlobalRegistry:
    def test_set_and_restore(self):
        mine = MetricsRegistry()
        previous = set_registry(mine)
        try:
            assert get_registry() is mine
            get_registry().counter("x").inc()
            assert mine.counter("x").value == 1
        finally:
            set_registry(previous)
        assert get_registry() is previous


class TestRegistryMerge:
    def test_counters_sum(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("dme.plans_computed").inc(3)
        b.counter("dme.plans_computed").inc(4)
        b.counter("dme.heap_pops").inc(2)
        a.merge(b)
        assert a.counter("dme.plans_computed").value == 7
        assert a.counter("dme.heap_pops").value == 2

    def test_gauges_last_write_wins(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("shard.workers").set(1.0)
        b.gauge("shard.workers").set(8.0)
        a.merge(b)
        assert a.gauge("shard.workers").value == 8.0

    def test_unset_gauge_does_not_clobber(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("shard.workers").set(4.0)
        b.gauge("shard.workers")  # created but never set
        a.merge(b)
        assert a.gauge("shard.workers").value == 4.0

    def test_histograms_concatenate(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for value in (1.0, 5.0):
            a.histogram("shard.route_seconds").observe(value)
        for value in (0.5, 9.0, 2.0):
            b.histogram("shard.route_seconds").observe(value)
        a.merge(b)
        h = a.histogram("shard.route_seconds")
        assert h.count == 5
        assert h.total == 17.5
        assert h.min == 0.5
        assert h.max == 9.0

    def test_merge_into_empty_copies_everything(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter("shard.count").inc(4)
        b.gauge("shard.workers").set(2.0)
        b.histogram("shard.sinks").observe(7.0)
        a.merge(b)
        assert a.as_dict() == b.as_dict()

    def test_kind_mismatch_raises(self):
        from repro.check.errors import ContractTypeError

        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("shard.count")
        b.gauge("shard.count").set(1.0)
        with pytest.raises(ContractTypeError):
            a.merge(b)

    def test_merge_does_not_alias_source_metrics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter("shard.count").inc(1)
        a.merge(b)
        b.counter("shard.count").inc(10)
        assert a.counter("shard.count").value == 1
