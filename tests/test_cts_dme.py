"""Unit and integration tests for the greedy DME engine."""

import numpy as np
import pytest

from repro.activity import ActivityOracle, ActivityTables, InstructionStream
from repro.activity.isa import paper_example_isa, paper_example_stream
from repro.bench.cpu_model import CpuModel, CpuModelConfig
from repro.bench.suite import load_benchmark
from repro.core.flow import route_gated
from repro.core.gate_reduction import GateReductionPolicy
from repro.cts import BottomUpMerger, Sink
from repro.cts.dme import (
    BufferEveryEdgePolicy,
    GateEveryEdgePolicy,
    NoCellPolicy,
    nearest_neighbor_cost,
)
from repro.geometry import Point
from repro.tech import date98_technology, unit_technology


def make_sinks(coords, cap=1.0):
    return [
        Sink(name="s%d" % i, location=Point(x, y), load_cap=cap, module=i)
        for i, (x, y) in enumerate(coords)
    ]


def rng_sinks(n, seed=0, span=100.0):
    rng = np.random.default_rng(seed)
    return make_sinks(zip(rng.uniform(0, span, n), rng.uniform(0, span, n)))


def paper_oracle():
    isa = paper_example_isa()
    stream = InstructionStream(ids=np.array(paper_example_stream()))
    return ActivityOracle(ActivityTables.from_stream(isa, stream))


class TestSmallTrees:
    def test_single_sink(self):
        tree = BottomUpMerger(make_sinks([(5, 5)]), unit_technology()).run()
        assert len(tree) == 1
        assert tree.root.location == Point(5, 5)
        assert tree.skew() == 0.0

    def test_two_sinks_zero_skew(self):
        tree = BottomUpMerger(make_sinks([(0, 0), (10, 0)]), unit_technology()).run()
        assert len(tree) == 3
        assert tree.skew() == pytest.approx(0.0, abs=1e-9)

    def test_two_equal_sinks_split_evenly(self):
        tree = BottomUpMerger(make_sinks([(0, 0), (10, 0)]), unit_technology()).run()
        lengths = sorted(n.edge_length for n in tree.edges())
        assert lengths == pytest.approx([5.0, 5.0])

    def test_full_binary_topology(self):
        tree = BottomUpMerger(rng_sinks(7), unit_technology()).run()
        assert len(tree) == 13  # 2n - 1 nodes
        for node in tree.internal_nodes():
            assert len(node.children) == 2

    def test_no_sinks_rejected(self):
        with pytest.raises(ValueError):
            BottomUpMerger([], unit_technology())


class TestZeroSkewAtScale:
    @pytest.mark.parametrize("n", [3, 8, 17, 40])
    def test_zero_skew_plain(self, n):
        tree = BottomUpMerger(rng_sinks(n, seed=n), unit_technology()).run()
        assert tree.skew() <= 1e-9 * max(tree.phase_delay(), 1.0)

    @pytest.mark.parametrize("policy", [BufferEveryEdgePolicy(), GateEveryEdgePolicy()])
    def test_zero_skew_with_cells(self, policy):
        tree = BottomUpMerger(
            rng_sinks(20, seed=3), unit_technology(), cell_policy=policy
        ).run()
        assert tree.skew() <= 1e-9 * max(tree.phase_delay(), 1.0)

    def test_embedding_valid(self):
        tree = BottomUpMerger(rng_sinks(25, seed=4), unit_technology()).run()
        tree.validate_embedding()

    def test_gates_reduce_phase_delay(self):
        # "Inserting gates reduces the subtree capacitance ... thereby
        # reducing the phase delay" (section 4.1).  With unit wire RC
        # (strong wires) and weak cells this holds on spread-out sinks.
        sinks = rng_sinks(30, seed=5, span=1000.0)
        plain = BottomUpMerger(sinks, unit_technology(), cell_policy=NoCellPolicy()).run()
        gated = BottomUpMerger(
            sinks, unit_technology(), cell_policy=GateEveryEdgePolicy()
        ).run()
        assert gated.phase_delay() < plain.phase_delay()


class TestGreedyMechanics:
    def test_nn_cost_merges_nearest_pair_first(self):
        sinks = make_sinks([(0, 0), (1, 0), (50, 50), (80, 80)])
        merger = BottomUpMerger(sinks, unit_technology(), cost=nearest_neighbor_cost)
        merger.run()
        first_left, first_right, _ = merger.merge_trace[0]
        assert {first_left, first_right} == {0, 1}

    def test_merge_trace_covers_all_merges(self):
        merger = BottomUpMerger(rng_sinks(12, seed=6), unit_technology())
        merger.run()
        assert len(merger.merge_trace) == 11

    def test_candidate_limit_produces_valid_tree(self):
        sinks = rng_sinks(30, seed=7)
        tree = BottomUpMerger(sinks, unit_technology(), candidate_limit=4).run()
        assert len(tree) == 59
        assert tree.skew() <= 1e-9 * max(tree.phase_delay(), 1.0)

    def test_candidate_limit_one_still_terminates(self):
        tree = BottomUpMerger(
            rng_sinks(10, seed=8), unit_technology(), candidate_limit=1
        ).run()
        assert len(tree) == 19

    def test_invalid_candidate_limit(self):
        with pytest.raises(ValueError):
            BottomUpMerger(rng_sinks(3), unit_technology(), candidate_limit=0)

    def test_determinism(self):
        sinks = rng_sinks(15, seed=9)
        t1 = BottomUpMerger(sinks, unit_technology()).run()
        m2 = BottomUpMerger(sinks, unit_technology())
        t2 = m2.run()
        assert [n.edge_length for n in t1.nodes()] == [
            n.edge_length for n in t2.nodes()
        ]


class TestActivityAnnotation:
    def test_leaf_probabilities_from_oracle(self):
        oracle = paper_oracle()
        sinks = make_sinks([(0, 0), (10, 0), (5, 8), (2, 3), (7, 1), (9, 9)])
        tree = BottomUpMerger(sinks, unit_technology(), oracle=oracle).run()
        leaf = next(n for n in tree.sinks() if n.sink.module == 0)
        assert leaf.enable_probability == pytest.approx(0.75)  # P(M1)

    def test_root_mask_is_union(self):
        oracle = paper_oracle()
        sinks = make_sinks([(0, 0), (10, 0), (5, 8)])
        tree = BottomUpMerger(sinks, unit_technology(), oracle=oracle).run()
        assert tree.root.module_mask == 0b111

    def test_parent_probability_at_least_children(self):
        oracle = paper_oracle()
        sinks = make_sinks([(0, 0), (10, 0), (5, 8), (2, 3), (7, 1), (9, 9)])
        tree = BottomUpMerger(sinks, unit_technology(), oracle=oracle).run()
        for node in tree.internal_nodes():
            for child_id in node.children:
                child = tree.node(child_id)
                assert node.enable_probability >= child.enable_probability - 1e-12

    def test_without_oracle_everything_always_on(self):
        tree = BottomUpMerger(rng_sinks(5), unit_technology()).run()
        assert all(n.enable_probability == 1.0 for n in tree.nodes())

    @pytest.mark.parametrize("wide", [False, True], ids=["r1-isa", "80-instructions"])
    def test_merged_statistics_equal_a_fresh_mask_lookup(self, wide):
        # Merged nodes are priced from the OR of their children's
        # signatures; a fresh oracle asked by mask must agree bit for bit.
        case = load_benchmark("r1", scale=0.2)
        tables = case.oracle.tables
        if wide:
            cpu = CpuModel(
                CpuModelConfig(num_modules=len(case.sinks), num_instructions=80, seed=1001)
            )
            tables = ActivityTables.from_stream(cpu.isa, cpu.stream(4000))
        tree = BottomUpMerger(
            case.sinks,
            date98_technology(),
            oracle=ActivityOracle(tables),
            cell_policy=GateEveryEdgePolicy(),
            candidate_limit=16,
        ).run()
        fresh = ActivityOracle(tables)
        for node in tree.internal_nodes():
            stats = fresh.statistics(node.module_mask)
            assert node.enable_probability.hex() == stats.signal_probability.hex()
            assert (
                node.enable_transition_probability.hex()
                == stats.transition_probability.hex()
            )

    def test_best_flow_derives_no_merged_signature_from_a_mask(self, monkeypatch):
        # Only the leaves' signatures come from their module masks: the
        # merger ORs its children's for every merged node.
        masks = []
        derive = ActivityOracle._activation_signature

        def counting(oracle, module_mask):
            masks.append(module_mask)
            return derive(oracle, module_mask)

        monkeypatch.setattr(ActivityOracle, "_activation_signature", counting)
        case = load_benchmark("r3")
        tech = date98_technology()
        result = route_gated(
            case.sinks,
            tech,
            ActivityOracle(case.oracle.tables),
            die=case.die,
            reduction=GateReductionPolicy.from_knob(0.5, tech),
            candidate_limit=16,
        )
        leaf_masks = {1 << sink.module for sink in case.sinks}
        assert len(result.tree.internal_nodes()) == len(case.sinks) - 1
        assert masks and set(masks) <= leaf_masks
