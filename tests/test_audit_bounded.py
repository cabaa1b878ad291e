"""Audit behavior on bounded-skew and resized trees."""

import numpy as np
import pytest

from repro.bench.suite import load_benchmark
from repro.check.auditor import audit_network
from repro.core.flow import route_gated
from repro.core.gate_reduction import GateReductionPolicy
from repro.core.gate_sizing import GateSizingPolicy
from repro.cts import BottomUpMerger, Sink
from repro.geometry import Point
from repro.io.treejson import tree_from_dict, tree_to_dict
from repro.tech import date98_technology, unit_technology


def rng_sinks(n, seed=0, span=200.0):
    rng = np.random.default_rng(seed)
    caps = rng.uniform(0.5, 4.0, n)
    return [
        Sink(name="s%d" % i, location=Point(x, y), load_cap=float(caps[i]), module=i)
        for i, (x, y) in enumerate(
            zip(rng.uniform(0, span, n), rng.uniform(0, span, n))
        )
    ]


class TestBoundedAudit:
    def test_bounded_tree_passes_with_declared_bound(self):
        tree = BottomUpMerger(
            rng_sinks(20, seed=1), unit_technology(), skew_bound=50.0
        ).run()
        report = audit_network(tree, skew_bound=50.0)
        assert report.ok, report.problems

    def test_bounded_tree_fails_zero_bound_audit(self):
        tree = BottomUpMerger(
            rng_sinks(20, seed=1), unit_technology(), skew_bound=50.0
        ).run()
        if tree.skew() > 1e-6:  # budget actually used
            report = audit_network(tree)  # default: exact zero skew
            assert not report.ok

    def test_interval_brackets_survive_serialization(self):
        tree = BottomUpMerger(
            rng_sinks(15, seed=2), unit_technology(), skew_bound=30.0
        ).run()
        clone = tree_from_dict(tree_to_dict(tree))
        assert clone.root.sink_delay_min == pytest.approx(tree.root.sink_delay_min)
        assert audit_network(clone, skew_bound=30.0).ok

    def test_interval_violation_detected(self):
        tree = BottomUpMerger(
            rng_sinks(15, seed=3), unit_technology(), skew_bound=30.0
        ).run()
        tree.root.sink_delay_min = tree.root.sink_delay + 1.0  # nonsense interval
        report = audit_network(tree, skew_bound=30.0)
        assert not report.ok
        assert any("interval" in p for p in report.problems)


class TestSizedTreeSerialization:
    def test_sized_tree_roundtrip_preserves_cells(self):
        tech = date98_technology()
        case = load_benchmark("r1", scale=0.1)
        result = route_gated(
            case.sinks,
            tech,
            case.oracle,
            die=case.die,
            reduction=GateReductionPolicy.from_knob(0.5, tech),
            gate_sizing=GateSizingPolicy(),
        )
        clone = tree_from_dict(tree_to_dict(result.tree))
        for a, b in zip(result.tree.nodes(), clone.nodes()):
            assert (a.edge_cell is None) == (b.edge_cell is None)
            if a.edge_cell is not None:
                assert a.edge_cell.input_cap == pytest.approx(b.edge_cell.input_cap)
                assert a.edge_cell.drive_resistance == pytest.approx(
                    b.edge_cell.drive_resistance
                )
        assert audit_network(clone).ok
