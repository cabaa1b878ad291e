"""Sharded routing: partition, per-shard DME, exact zero-skew stitch."""

import logging

import numpy as np
import pytest

from repro.activity import ActivityOracle, ActivityTables
from repro.bench.cpu_model import CpuModel, CpuModelConfig
from repro.bench.sinks import SinkGenerator
from repro.check.auditor import audit_network
from repro.check.errors import InputError
from repro.core.flow import route_gated, route_sharded
from repro.core.gate_reduction import GateReductionPolicy
from repro.cts.sharded import (
    _worker_initializer,
    partition_sinks,
    route_shards,
    stitch_shards,
)
from repro.cts.topology import Sink
from repro.geometry.point import Point
from repro.obs import (
    MetricsRegistry,
    Tracer,
    get_registry,
    get_tracer,
    set_registry,
    set_tracer,
)
from repro.tech.presets import date98_technology


NUM_SINKS = 28


@pytest.fixture(scope="module")
def tech():
    return date98_technology()


@pytest.fixture(scope="module")
def case():
    cpu = CpuModel(CpuModelConfig(num_modules=NUM_SINKS, num_instructions=8, seed=5))
    sinks = SinkGenerator(num_sinks=NUM_SINKS, seed=5).generate()
    oracle = ActivityOracle(cpu.tables_from_stream(1000))
    return sinks, oracle


def controller_point(sinks):
    from repro.core.controller import Die

    return Die.bounding([s.location for s in sinks]).center


def _edge_cap_sum(tree, tech, start, stop):
    """``W(T)`` terms of nodes ``[start, stop)`` folded in id order.

    Each gated edge switches with its own enable, so a node's term
    depends on that node alone and the sum is comparable between a
    shard tree and its grafted block.
    """
    total = 0.0
    for nid in range(start, stop):
        node = tree.node(nid)
        assert node.has_gate, nid
        total += tree.clock_term(node, node.enable_probability, tech)
    return total


class TestPartition:
    def test_covers_every_sink_exactly_once(self, case):
        sinks, _ = case
        for k in (1, 2, 3, 4, 7):
            plan = partition_sinks(sinks, k)
            seen = sorted(i for shard in plan.shards for i in shard)
            assert seen == list(range(len(sinks)))

    def test_balanced_within_one(self, case):
        sinks, _ = case
        for k in (2, 3, 4, 5, 7):
            sizes = [len(s) for s in partition_sinks(sinks, k).shards]
            assert max(sizes) - min(sizes) <= 1

    def test_merge_order_is_a_tree_over_slots(self, case):
        sinks, _ = case
        plan = partition_sinks(sinks, 6)
        merged = set()
        for left, right, new in plan.merge_order:
            assert left not in merged and right not in merged
            assert new == 6 + len(merged) // 2 or new > max(left, right)
            merged.update((left, right))
        # Every shard slot is consumed exactly once; one final root.
        assert len(plan.merge_order) == 5
        assert set(range(6)) <= merged | {plan.merge_order[-1][2]}

    def test_deterministic(self, case):
        sinks, _ = case
        a = partition_sinks(sinks, 5)
        b = partition_sinks(list(sinks), 5)
        assert a == b

    def test_deterministic_under_duplicate_coordinates(self):
        # All sinks co-located: the coordinate sort key is a constant,
        # so determinism must come from the index tiebreak.
        sinks = [
            Sink(name="s%d" % i, location=Point(10.0, 20.0), load_cap=0.05, module=i)
            for i in range(9)
        ]
        a = partition_sinks(sinks, 4)
        b = partition_sinks(sinks, 4)
        assert a == b
        sizes = [len(s) for s in a.shards]
        assert max(sizes) - min(sizes) <= 1

    def test_spatial_coherence(self):
        # Two well-separated blobs with K=2 must split along the gap.
        left = [
            Sink(name="l%d" % i, location=Point(float(i), 0.0), load_cap=0.05, module=i)
            for i in range(8)
        ]
        right = [
            Sink(
                name="r%d" % i,
                location=Point(1000.0 + i, 0.0),
                load_cap=0.05,
                module=8 + i,
            )
            for i in range(8)
        ]
        plan = partition_sinks(left + right, 2)
        assert sorted(plan.shards[0]) == list(range(8))
        assert sorted(plan.shards[1]) == list(range(8, 16))

    def test_rejects_bad_shard_counts(self, case):
        sinks, _ = case
        with pytest.raises(InputError):
            partition_sinks(sinks, 0)
        with pytest.raises(InputError):
            partition_sinks(sinks, len(sinks) + 1)


class TestShardClamp:
    """``route_sharded`` clamps an oversized shard request at the flow
    layer (with a warning) instead of surfacing the partition layer's
    :class:`InputError` -- the library contract stays strict, the flow
    is forgiving."""

    def test_more_shards_than_sinks_clamps(self, case, tech, caplog):
        sinks, oracle = case
        few = sinks[:5]
        with caplog.at_level(logging.WARNING, logger="repro.core.flow"):
            result = route_sharded(few, tech, oracle, num_shards=9)
        assert any("clamping num_shards" in r.getMessage() for r in caplog.records)
        assert result.num_sinks == 5
        assert audit_network(result.tree, routing=result.routing).ok

    def test_clamped_run_matches_explicit_shard_count(self, case, tech):
        sinks, oracle = case
        few = sinks[:5]
        clamped = route_sharded(few, tech, oracle, num_shards=9)
        explicit = route_sharded(few, tech, oracle, num_shards=5)
        assert clamped.pins() == explicit.pins()

    def test_exact_fit_does_not_warn(self, case, tech, caplog):
        sinks, oracle = case
        few = sinks[:5]
        with caplog.at_level(logging.WARNING, logger="repro.core.flow"):
            route_sharded(few, tech, oracle, num_shards=5)
        assert not any(
            "clamping num_shards" in r.getMessage() for r in caplog.records
        )


def parity_reductions(tech):
    """The K=1 parity inputs: gate on every edge, knob-0.5 merge reduction."""
    return (None, GateReductionPolicy.from_knob(0.5, tech))


class TestSingleShardParity:
    def test_k1_reproduces_route_gated_byte_for_byte(self, case, tech):
        sinks, oracle = case
        for reduction in parity_reductions(tech):
            gated = route_gated(sinks, tech, oracle, reduction=reduction)
            sharded = route_sharded(
                sinks, tech, oracle, num_shards=1, reduction=reduction
            )
            gt, st = gated.tree, sharded.tree
            assert len(gt) == len(st)
            for a, b in zip(gt.nodes(), st.nodes()):
                assert a.id == b.id
                assert a.children == b.children  # merge-trace equality
                assert a.edge_length == b.edge_length
                assert a.edge_cell == b.edge_cell
                assert a.edge_maskable == b.edge_maskable
                assert a.subtree_cap == b.subtree_cap
                assert a.sink_delay == b.sink_delay
                assert a.enable_probability == b.enable_probability
                assert a.enable_transition_probability == b.enable_transition_probability
                assert a.module_mask == b.module_mask
                assert a.snaked == b.snaked
                assert a.location.x == b.location.x
                assert a.location.y == b.location.y
            # pins() is the ledger contract; only the method label differs.
            gp, sp = gated.pins(), sharded.pins()
            assert gp.pop("method") in ("gated", "gate-red")
            assert sp.pop("method") == "sharded"
            assert gp == sp


class TestCorpusParity:
    @pytest.mark.parametrize("bench", ["r1", "r2", "r3", "r4", "r5"])
    def test_k1_switched_cap_matches_across_corpus(self, tech, bench):
        # Acceptance: the K=1 sharded route equals the single-process
        # gated route within byte-stable accounting on all of r1-r5.
        from repro.bench.suite import load_benchmark

        case = load_benchmark(bench, scale=0.1)
        for reduction in parity_reductions(tech):
            gated = route_gated(
                case.sinks, tech, case.oracle, die=case.die, reduction=reduction
            )
            sharded = route_sharded(
                case.sinks, tech, case.oracle, die=case.die, num_shards=1,
                reduction=reduction,
            )
            assert sharded.switched_cap.total == gated.switched_cap.total
            gp, sp = gated.pins(), sharded.pins()
            gp.pop("method")
            sp.pop("method")
            assert gp == sp


class TestStitchedTree:
    @pytest.mark.parametrize("k", [2, 4, 7])
    def test_audit_clean_and_zero_skew(self, case, tech, k):
        sinks, oracle = case
        result = route_sharded(sinks, tech, oracle, num_shards=k)
        report = audit_network(result.tree, routing=result.routing)
        assert report.ok, report.summary()
        assert result.skew == pytest.approx(0.0, abs=1e-9)

    def test_per_shard_accounting_is_byte_stable(self, case, tech):
        sinks, oracle = case
        plan = partition_sinks(sinks, 4)
        shards = route_shards(
            sinks, plan, tech, oracle, controller_point=controller_point(sinks)
        )
        standalone = []
        ranges = []
        offset = 0
        for shard in shards:
            n = len(shard.tree)
            # Exclude the shard root: its edge belongs to the stitch.
            standalone.append(_edge_cap_sum(shard.tree, tech, 0, n - 1))
            ranges.append((offset, offset + n - 1))
            offset += n
        stitched = stitch_shards(shards, plan, tech, oracle)
        assert [_edge_cap_sum(stitched, tech, *r) for r in ranges] == standalone

    def test_worker_pool_matches_inline(self, case, tech):
        sinks, oracle = case
        inline = route_sharded(sinks, tech, oracle, num_shards=4, num_workers=1)
        pooled = route_sharded(sinks, tech, oracle, num_shards=4, num_workers=2)
        assert pooled.pins() == inline.pins()
        for a, b in zip(inline.tree.nodes(), pooled.tree.nodes()):
            assert a.children == b.children
            assert a.edge_length == b.edge_length
            assert a.enable_probability == b.enable_probability

    @pytest.mark.parametrize("workers", [0, -5])
    def test_non_positive_workers_rejected(self, case, tech, workers):
        sinks, oracle = case
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            with pytest.raises(InputError) as raised:
                route_sharded(sinks, tech, oracle, num_shards=2, num_workers=workers)
        finally:
            set_registry(previous)
        assert raised.value.field == "workers"
        assert "shard.workers" not in registry

    def test_reduction_applies_post_stitch(self, case, tech):
        sinks, oracle = case
        reduction = GateReductionPolicy.from_knob(0.5, tech)
        full = route_sharded(sinks, tech, oracle, num_shards=3)
        reduced = route_sharded(
            sinks, tech, oracle, num_shards=3, reduction=reduction,
            reduction_mode="demote",
        )
        assert reduced.gate_count < full.gate_count
        assert audit_network(reduced.tree, routing=reduced.routing).ok

    def test_merge_mode_reduction_beats_demote(self, tech):
        # r1 at scale 0.2, K=4, knob 0.5: merge 90.09 pF, demote 96.79 pF.
        from repro.bench.suite import load_benchmark

        r1 = load_benchmark("r1", scale=0.2)
        reduction = GateReductionPolicy.from_knob(0.5, tech)
        merged, demoted = (
            route_sharded(
                r1.sinks, tech, r1.oracle, die=r1.die, num_shards=4,
                candidate_limit=16, reduction=reduction, reduction_mode=mode,
                audit=True,
            )
            for mode in ("merge", "demote")
        )
        assert merged.switched_cap.total < demoted.switched_cap.total


class TestShardMetrics:
    def test_shard_metrics_and_worker_counters_fold_into_parent(self, case, tech):
        sinks, oracle = case
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            route_sharded(sinks, tech, oracle, num_shards=4)
        finally:
            set_registry(previous)
        assert registry.counter("shard.count").value == 4
        assert registry.gauge("shard.workers").value == 1
        assert registry.histogram("shard.sinks").count == 4
        assert registry.histogram("shard.sinks").total == len(sinks)
        assert registry.histogram("shard.route_seconds").count == 4
        assert registry.counter("shard.stitch_merges").value == 3
        # Per-shard merger counters fold in via MetricsRegistry.merge.
        assert registry.counter("dme.plans_computed").value > 0


@pytest.fixture
def parent_observability():
    """An enabled tracer and a populated registry, as a pool worker
    inherits them under ``fork``; both restored after."""
    tracer = Tracer(enabled=True)
    registry = MetricsRegistry()
    registry.counter("shard.count").inc()
    previous_tracer = set_tracer(tracer)
    previous_registry = set_registry(registry)
    try:
        yield tracer, registry
    finally:
        set_tracer(previous_tracer)
        set_registry(previous_registry)


class TestWorkerInitializer:
    def test_resets_inherited_observability_state(self, parent_observability):
        tracer, registry = parent_observability
        _worker_initializer()
        assert get_tracer() is not tracer
        assert not get_tracer().enabled
        assert get_registry() is not registry
        assert isinstance(get_registry(), MetricsRegistry)
        assert len(get_registry()) == 0
