"""Unit tests for the buffered baseline and the nearest-neighbour default."""

import numpy as np
import pytest

from repro.cts import BottomUpMerger, Sink, build_buffered_tree
from repro.cts.dme import GateEveryEdgePolicy
from repro.geometry import Point
from repro.tech import unit_technology


def rng_sinks(n, seed=0, span=100.0):
    rng = np.random.default_rng(seed)
    return [
        Sink(name="s%d" % i, location=Point(x, y), load_cap=1.0, module=i)
        for i, (x, y) in enumerate(
            zip(rng.uniform(0, span, n), rng.uniform(0, span, n))
        )
    ]


class TestBufferedTree:
    def test_every_edge_has_a_buffer(self):
        tech = unit_technology()
        tree = build_buffered_tree(rng_sinks(12), tech)
        for node in tree.edges():
            assert node.edge_cell == tech.buffer
            assert not node.edge_maskable

    def test_no_gates(self):
        tree = build_buffered_tree(rng_sinks(12), unit_technology())
        assert tree.gate_count() == 0
        assert tree.cell_count() == 22

    def test_zero_skew(self):
        tree = build_buffered_tree(rng_sinks(18, seed=2), unit_technology())
        assert tree.skew() <= 1e-9 * max(tree.phase_delay(), 1.0)

    def test_cell_area_counts_buffers(self):
        tech = unit_technology()
        tree = build_buffered_tree(rng_sinks(6), tech)
        assert tree.cell_area() == pytest.approx(10 * tech.buffer.area)


class TestNearestNeighborTree:
    def test_default_is_plain_wire(self):
        tree = BottomUpMerger(rng_sinks(10), unit_technology()).run()
        assert tree.cell_count() == 0

    def test_policy_override(self):
        tree = BottomUpMerger(
            rng_sinks(10), unit_technology(), cell_policy=GateEveryEdgePolicy()
        ).run()
        assert tree.gate_count() == 18

    def test_wirelength_close_to_buffered(self):
        # Same topology heuristic, so wirelength differs only through
        # cell-induced balancing.
        sinks = rng_sinks(20, seed=5)
        nn = BottomUpMerger(sinks, unit_technology()).run()
        buf = build_buffered_tree(sinks, unit_technology())
        assert buf.total_wirelength() == pytest.approx(
            nn.total_wirelength(), rel=0.35
        )
