"""Property-based and equivalence tests for the greedy DME engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cts import BottomUpMerger, Sink
from repro.cts.dme import GateEveryEdgePolicy, nearest_neighbor_cost
from repro.geometry import Point
from repro.tech import unit_technology
from tests.scalar_reference import REFERENCE_COSTS


@st.composite
def sink_sets(draw):
    n = draw(st.integers(min_value=2, max_value=14))
    coords = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1000, allow_nan=False),
                st.floats(min_value=0, max_value=1000, allow_nan=False),
            ),
            min_size=n,
            max_size=n,
        )
    )
    caps = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    return [
        Sink(name="s%d" % i, location=Point(x, y), load_cap=c, module=i)
        for i, ((x, y), c) in enumerate(zip(coords, caps))
    ]


class TestDmeProperties:
    @given(sink_sets())
    @settings(max_examples=80, deadline=None)
    def test_zero_skew_any_instance(self, sinks):
        tree = BottomUpMerger(sinks, unit_technology()).run()
        assert tree.skew() <= 1e-6 * max(tree.phase_delay(), 1.0)

    @given(sink_sets())
    @settings(max_examples=60, deadline=None)
    def test_full_binary_and_embedded(self, sinks):
        tree = BottomUpMerger(sinks, unit_technology()).run()
        assert len(tree) == 2 * len(sinks) - 1
        tree.validate_embedding()
        for node in tree.internal_nodes():
            assert len(node.children) == 2

    @given(sink_sets())
    @settings(max_examples=60, deadline=None)
    def test_gated_zero_skew_any_instance(self, sinks):
        tree = BottomUpMerger(
            sinks, unit_technology(), cell_policy=GateEveryEdgePolicy()
        ).run()
        assert tree.skew() <= 1e-6 * max(tree.phase_delay(), 1.0)

    @given(sink_sets())
    @settings(max_examples=60, deadline=None)
    def test_subtree_caps_match_elmore(self, sinks):
        tree = BottomUpMerger(sinks, unit_technology()).run()
        ev = tree.elmore_evaluator()
        for node in tree.nodes():
            recomputed = ev.subtree_cap(node.id)
            assert abs(node.subtree_cap - recomputed) <= 1e-6 * (1 + recomputed)

    @given(sink_sets())
    @settings(max_examples=40, deadline=None)
    def test_wirelength_at_least_star_lower_bound(self, sinks):
        # Any tree connecting all sinks to a common point is at least
        # as long as half the max pairwise distance (the two farthest
        # sinks are joined through the tree).
        tree = BottomUpMerger(sinks, unit_technology()).run()
        max_dist = max(
            a.location.manhattan_to(b.location)
            for a in sinks
            for b in sinks
        )
        assert tree.total_wirelength() >= max_dist / 2.0 - 1e-6


class TestLazyGreedyEquivalence:
    """The per-node-best + lazy-heap engine must equal the naive greedy."""

    def _naive_trace(self, sinks, tech, cost, policy):
        merger = BottomUpMerger(sinks, tech, cost=cost, cell_policy=policy)
        reference_cost = REFERENCE_COSTS[cost]
        active = set(range(len(sinks)))
        trace = []
        while len(active) > 1:
            # Replicate the engine's tie-breaking: each node's best
            # partner minimizes (cost, partner id); the global pick
            # minimizes (cost, node id).
            best = {}
            for nid in active:
                candidates = [
                    (reference_cost(merger.plan(nid, other), merger), other)
                    for other in active
                    if other != nid
                ]
                best[nid] = min(candidates)
            picked = min(active, key=lambda nid: (best[nid][0], nid))
            partner = best[picked][1]
            merged = merger.execute(merger.plan(picked, partner))
            active.discard(picked)
            active.discard(partner)
            active.add(merged.id)
            trace.append((picked, partner, merged.id))
        return trace

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "cost_name", ["nearest_neighbor", "switched_capacitance"]
    )
    def test_traces_identical(self, seed, cost_name):
        from repro.core.cost import incremental_switched_capacitance_cost

        rng = np.random.default_rng(seed)
        n = 12
        sinks = [
            Sink(
                name="s%d" % i,
                location=Point(float(x), float(y)),
                load_cap=float(c),
                module=i,
            )
            for i, (x, y, c) in enumerate(
                zip(
                    rng.uniform(0, 500, n),
                    rng.uniform(0, 500, n),
                    rng.uniform(0.2, 2.0, n),
                )
            )
        ]
        tech = unit_technology()
        if cost_name == "nearest_neighbor":
            cost, policy = nearest_neighbor_cost, None
        else:
            cost, policy = incremental_switched_capacitance_cost, GateEveryEdgePolicy()

        engine = BottomUpMerger(sinks, tech, cost=cost, cell_policy=policy)
        engine.run()
        naive = self._naive_trace(sinks, tech, cost, policy)
        normalized_engine = [
            (min(a, b), max(a, b), m) for a, b, m in engine.merge_trace
        ]
        normalized_naive = [(min(a, b), max(a, b), m) for a, b, m in naive]
        assert normalized_engine == normalized_naive
