"""Unit tests for the switched-capacitance merge costs.

Hand-computed values price one plan through the scalar reference
evaluators; ``test_pair_cost_lanes`` holds the batched costs to those
references lane by lane.
"""

import numpy as np
import pytest

from repro.activity import ActivityOracle, ActivityTables, InstructionStream
from repro.activity.isa import InstructionSet
from repro.core.cost import (
    incremental_switched_capacitance_cost,
    switched_capacitance_cost,
)
from repro.cts import BottomUpMerger, Sink
from repro.cts.dme import GateEveryEdgePolicy
from repro.geometry import Point
from repro.tech import unit_technology
from tests.scalar_reference import REFERENCE_COSTS


def oracle_from_bits(bits0, bits1):
    """Build an oracle whose two modules follow the given bit streams."""
    isa = InstructionSet.from_usage_lists(
        [{2}, {0, 2}, {1, 2}, {0, 1, 2}], num_modules=3
    )
    ids = np.array([b0 + 2 * b1 for b0, b1 in zip(bits0, bits1)])
    tables = ActivityTables.from_stream(isa, InstructionStream(ids=ids))
    return ActivityOracle(tables)


def sinks_at(coords):
    return [
        Sink(name="s%d" % i, location=Point(x, y), load_cap=1.0, module=i)
        for i, (x, y) in enumerate(coords)
    ]


def plan_cost(merger):
    """The reference cost of merging sinks 0 and 1 in ``merger``."""
    return REFERENCE_COSTS[merger.cost](merger.plan(0, 1), merger)


def merger_for(sinks, oracle, cost):
    return BottomUpMerger(
        sinks,
        unit_technology(),
        cost=cost,
        cell_policy=GateEveryEdgePolicy(),
        oracle=oracle,
        controller_point=Point(0.0, 0.0),
    )


class TestEq3Cost:
    def test_hand_computed_two_sinks(self):
        # Modules: m0 always on, m1 always off; sinks 10 apart; unit RC.
        oracle = oracle_from_bits([1, 1, 1, 1], [0, 0, 0, 0])
        sinks = sinks_at([(0, 0), (10, 0)])
        merger = merger_for(sinks, oracle, switched_capacitance_cost)
        # Equal subtrees split 5/5.  P(m0)=1, P(m1)=0; Ptr=0 for both.
        # a_clk = 2; edge cost = 2*[(5*1+1)*1 + (5*1+1)*0] = 12; gates'
        # star terms vanish (Ptr=0).
        assert plan_cost(merger) == pytest.approx(12.0)

    def test_controller_term_counts_transitions(self):
        # m0 toggles every cycle: P = 0.5, Ptr = 1.
        oracle = oracle_from_bits([1, 0, 1, 0, 1, 0], [0, 0, 0, 0, 0, 0])
        sinks = sinks_at([(0, 0), (10, 0)])
        merger = merger_for(sinks, oracle, switched_capacitance_cost)
        cost = plan_cost(merger)
        # Clock terms: 2*[(6*0.5) + 0] = 6 (split is uneven: the idle
        # side is lighter-loaded... both loads equal so split 5/5):
        # 2*[(5+1)*0.5 + (5+1)*0] = 6.
        # Controller: sink0 at (0,0), CP at (0,0): star len 0 ->
        # (0*c + C_g)*1 = 1; sink1 Ptr 0.
        assert cost == pytest.approx(6.0 + 1.0)

    def test_idle_pair_cheaper_than_busy_pair(self):
        # Four sinks: two on module 0 (busy)... modules are 1:1 with
        # sinks, so instead compare a busy-busy pair with an idle-idle
        # pair through two separate two-sink problems.
        busy = merger_for(
            sinks_at([(0, 0), (10, 0)]), oracle_from_bits([1] * 4, [1] * 4),
            switched_capacitance_cost,
        )
        idle = merger_for(
            sinks_at([(0, 0), (10, 0)]), oracle_from_bits([0] * 4, [0] * 4),
            switched_capacitance_cost,
        )
        assert plan_cost(idle) < plan_cost(busy)


class TestIncrementalCost:
    def test_excludes_child_subtree_caps(self):
        oracle = oracle_from_bits([1, 1, 1, 1], [0, 0, 0, 0])
        sinks = sinks_at([(0, 0), (10, 0)])
        merger = merger_for(sinks, oracle, incremental_switched_capacitance_cost)
        # Wire terms: 2*[5*1 + 5*0] = 10; gate pins: 2*(1+1)*P_k(=1) = 4;
        # stars: 0 (no transitions).  Eq. 3 would add the sink loads.
        assert plan_cost(merger) == pytest.approx(14.0)

    def test_grows_with_distance(self):
        oracle = oracle_from_bits([1, 0, 1, 0], [0, 1, 0, 1])
        near = merger_for(
            sinks_at([(0, 0), (4, 0)]), oracle, incremental_switched_capacitance_cost
        )
        far = merger_for(
            sinks_at([(0, 0), (40, 0)]), oracle, incremental_switched_capacitance_cost
        )
        assert plan_cost(near) < plan_cost(far)

    def test_correlated_union_cheaper_than_uncorrelated(self):
        # Same marginals (P = 0.5 each) but co-active vs anti-active:
        # the correlated pair's merged enable stays at 0.5 while the
        # anti-correlated union is always on.
        correlated = oracle_from_bits([1, 0, 1, 0], [1, 0, 1, 0])
        anti = oracle_from_bits([1, 0, 1, 0], [0, 1, 0, 1])
        coords = [(0, 0), (10, 0)]
        m_corr = merger_for(sinks_at(coords), correlated, incremental_switched_capacitance_cost)
        m_anti = merger_for(sinks_at(coords), anti, incremental_switched_capacitance_cost)
        assert plan_cost(m_corr) < plan_cost(m_anti)


class TestCostDrivenTopology:
    def test_activity_breaks_geometric_ties(self):
        # A 2x2 grid of sinks; modules 0 & 2 co-active (left column),
        # 1 & 3 co-active (right column).  All adjacent pairs are the
        # same distance apart, so the greedy's first merge is decided
        # by activity: it pairs correlated modules (union stays cold)
        # rather than anti-correlated ones (union always on).
        isa = InstructionSet.from_usage_lists([{0, 2, 4}, {1, 3, 4}], num_modules=5)
        ids = np.array([0, 1, 0, 1, 0, 1])
        oracle = ActivityOracle(
            ActivityTables.from_stream(isa, InstructionStream(ids=ids))
        )
        sinks = sinks_at([(0, 0), (6, 0), (0, 6), (6, 6)])
        merger = BottomUpMerger(
            sinks,
            unit_technology(),
            cost=incremental_switched_capacitance_cost,
            cell_policy=GateEveryEdgePolicy(),
            oracle=oracle,
            controller_point=Point(3.0, 3.0),
        )
        merger.run()
        first = set(merger.merge_trace[0][:2])
        assert first in ({0, 2}, {1, 3})
