"""Unit tests for the gate-reduction rules (paper section 4.3)."""

import numpy as np
import pytest

from repro.activity import ActivityOracle, ActivityTables, InstructionStream
from repro.activity.isa import InstructionSet
from repro.core.gate_reduction import (
    GateReductionPolicy,
    apply_gate_reduction,
    reduction_fraction,
)
from repro.cts import BottomUpMerger, Sink
from repro.cts.dme import GateEveryEdgePolicy
from repro.geometry import Point
from repro.tech import unit_technology


def rng_oracle(num_modules, seed=0, usage=0.4, k=8):
    rng = np.random.default_rng(seed)
    lists = []
    for _ in range(k):
        row = set(np.nonzero(rng.random(num_modules) < usage)[0].tolist())
        if not row:
            row = {int(rng.integers(0, num_modules))}
        lists.append(row)
    isa = InstructionSet.from_usage_lists(lists, num_modules=num_modules)
    ids = rng.integers(0, k, 500)
    return ActivityOracle(ActivityTables.from_stream(isa, InstructionStream(ids=ids)))


def rng_sinks(n, seed=0, span=100.0):
    rng = np.random.default_rng(seed)
    return [
        Sink(name="s%d" % i, location=Point(x, y), load_cap=1.0, module=i)
        for i, (x, y) in enumerate(
            zip(rng.uniform(0, span, n), rng.uniform(0, span, n))
        )
    ]


def gated_tree(n=20, seed=1):
    oracle = rng_oracle(n, seed=seed)
    return (
        BottomUpMerger(
            rng_sinks(n, seed=seed),
            unit_technology(),
            cell_policy=GateEveryEdgePolicy(),
            oracle=oracle,
        ).run(),
        oracle,
    )


class TestRules:
    def setup_method(self):
        self.tech = unit_technology()

    def test_rule1_high_activity_drops_gate(self):
        policy = GateReductionPolicy(activity_threshold=0.9, force_cap_ratio=None)
        assert not policy.should_keep(0.95, 1.0, 100.0, self.tech)
        assert policy.should_keep(0.85, 1.0, 100.0, self.tech)

    def test_rule2_small_cap_drops_gate(self):
        policy = GateReductionPolicy(switched_cap_threshold=1.0, force_cap_ratio=None)
        # edge SC = a_clk * exposed * P = 2 * 0.6 * 0.5 = 0.6 <= 1.
        assert not policy.should_keep(0.5, 1.0, 0.6, self.tech)
        assert policy.should_keep(0.5, 1.0, 10.0, self.tech)

    def test_rule3_similar_parent_drops_gate(self):
        policy = GateReductionPolicy(parent_delta_threshold=0.1, force_cap_ratio=None)
        assert not policy.should_keep(0.45, 0.5, 100.0, self.tech)
        assert policy.should_keep(0.2, 0.5, 100.0, self.tech)

    def test_force_rule_overrides(self):
        policy = GateReductionPolicy(
            activity_threshold=0.5, force_cap_ratio=10.0
        )
        # P = 0.9 >= 0.5 would drop, but exposure 20 >= 10 * C_g (= 10).
        assert policy.should_keep(0.9, 1.0, 20.0, self.tech)
        assert not policy.should_keep(0.9, 1.0, 5.0, self.tech)

    def test_force_rule_can_be_ignored(self):
        policy = GateReductionPolicy(activity_threshold=0.5, force_cap_ratio=10.0)
        assert not policy.should_keep(0.9, 1.0, 20.0, self.tech, honor_force=False)

    def test_default_policy_keeps_everything(self):
        policy = GateReductionPolicy()
        assert policy.should_keep(0.99, 1.0, 1.0, self.tech)

    def test_validation(self):
        with pytest.raises(ValueError):
            GateReductionPolicy(activity_threshold=1.5)
        with pytest.raises(ValueError):
            GateReductionPolicy(switched_cap_threshold=-1.0)
        with pytest.raises(ValueError):
            GateReductionPolicy(force_cap_ratio=0.0)


class TestKnob:
    def test_knob_zero_is_no_reduction(self):
        tech = unit_technology()
        policy = GateReductionPolicy.from_knob(0.0, tech)
        assert policy.activity_threshold == 1.0
        assert policy.switched_cap_threshold == 0.0
        assert policy.parent_delta_threshold == 0.0

    def test_knob_bounds(self):
        tech = unit_technology()
        with pytest.raises(ValueError):
            GateReductionPolicy.from_knob(-0.1, tech)
        with pytest.raises(ValueError):
            GateReductionPolicy.from_knob(1.1, tech)

    def test_knob_monotone_reduction(self):
        tree0, oracle = gated_tree(n=24, seed=3)
        tech = unit_technology()
        previous = -1
        for knob in (0.0, 0.25, 0.5, 0.75, 1.0):
            tree, _ = gated_tree(n=24, seed=3)
            apply_gate_reduction(tree, GateReductionPolicy.from_knob(knob, tech))
            removed = (2 * 24 - 2) - tree.gate_count()
            assert removed >= previous
            previous = removed


class TestApplyDemote:
    def test_demote_keeps_skew_exactly(self):
        tree, _ = gated_tree()
        before = tree.phase_delay()
        apply_gate_reduction(tree, GateReductionPolicy.from_knob(0.6, unit_technology()))
        assert tree.skew() <= 1e-9 * max(tree.phase_delay(), 1.0)
        assert tree.phase_delay() == pytest.approx(before)

    def test_demoted_cells_remain_electrically(self):
        tree, _ = gated_tree()
        cells_before = tree.cell_count()
        apply_gate_reduction(tree, GateReductionPolicy.from_knob(0.8, unit_technology()))
        assert tree.cell_count() == cells_before
        assert tree.gate_count() < cells_before

    def test_demoted_cell_area_is_buffer_area(self):
        tech = unit_technology()
        tree, _ = gated_tree()
        apply_gate_reduction(tree, GateReductionPolicy.from_knob(0.8, tech))
        demoted = [
            n for n in tree.edges() if n.edge_cell is not None and not n.edge_maskable
        ]
        assert demoted
        for node in demoted:
            assert node.edge_cell.area == tech.buffer.area
            assert node.edge_cell.input_cap == tech.masking_gate.input_cap

    def test_returns_removed_count(self):
        tree, _ = gated_tree()
        gates_before = tree.gate_count()
        removed = apply_gate_reduction(
            tree, GateReductionPolicy.from_knob(0.7, unit_technology())
        )
        assert removed == gates_before - tree.gate_count()
        assert removed > 0

    def test_rule3_protected_by_kept_parent_logic(self):
        # With a pure rule-3 policy, pruning is chain-safe: whenever a
        # gate is pruned, the nearest kept enable above it is close in
        # probability (that is what rule 3 checked against).
        tree, _ = gated_tree(n=30, seed=9)
        policy = GateReductionPolicy(
            parent_delta_threshold=0.15, force_cap_ratio=None
        )
        apply_gate_reduction(tree, policy)
        mask_prob = {tree.root_id: 1.0}
        for node in tree.preorder():
            if node.id == tree.root_id:
                continue
            above = mask_prob[node.parent]
            if node.has_gate:
                mask_prob[node.id] = node.enable_probability
            else:
                assert above - node.enable_probability <= 0.15 + 1e-9
                mask_prob[node.id] = above


class TestApplyRemove:
    def test_invalid_mode_rejected(self):
        # Physical gate removal is gone; demote is the only post-pass.
        for mode in ("bogus", "remove"):
            tree, _ = gated_tree(n=8, seed=7)
            with pytest.raises(ValueError):
                apply_gate_reduction(tree, GateReductionPolicy(), mode=mode)


class TestReductionFraction:
    def test_full_tree(self):
        assert reduction_fraction(0, 10) == 1.0
        assert reduction_fraction(18, 10) == 0.0

    def test_half(self):
        assert reduction_fraction(9, 10) == pytest.approx(0.5)

    def test_bounds(self):
        with pytest.raises(ValueError):
            reduction_fraction(19, 10)
        with pytest.raises(ValueError):
            reduction_fraction(-1, 10)
        with pytest.raises(ValueError):
            reduction_fraction(0, 0)

    def test_single_sink(self):
        assert reduction_fraction(0, 1) == 0.0
