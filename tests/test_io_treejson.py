"""Unit tests for clock-tree JSON serialization."""

import pytest

from repro.bench.suite import load_benchmark
from repro.check.auditor import audit_network
from repro.core.gate_reduction import GateReductionPolicy
from repro.core.gate_sizing import GateSizingPolicy
from repro.core.flow import route_gated
from repro.io.treejson import load_tree, save_tree, tree_from_dict, tree_to_dict
from repro.tech import date98_technology


@pytest.fixture(scope="module")
def routed():
    case = load_benchmark("r1", scale=0.08)
    tech = date98_technology()
    return route_gated(
        case.sinks,
        tech,
        case.oracle,
        die=case.die,
        reduction=GateReductionPolicy.from_knob(0.4, tech),
    )


class TestRoundTrip:
    def test_dict_roundtrip_preserves_structure(self, routed):
        tree = routed.tree
        clone = tree_from_dict(tree_to_dict(tree))
        assert len(clone) == len(tree)
        assert clone.root_id == tree.root_id
        for a, b in zip(tree.nodes(), clone.nodes()):
            assert a.children == b.children
            assert a.edge_length == pytest.approx(b.edge_length)
            assert a.edge_maskable == b.edge_maskable
            assert a.module_mask == b.module_mask
            assert a.enable_probability == pytest.approx(b.enable_probability)

    def test_roundtrip_preserves_electricals(self, routed):
        tree = routed.tree
        clone = tree_from_dict(tree_to_dict(tree))
        assert clone.skew() == pytest.approx(tree.skew(), abs=1e-9)
        assert clone.phase_delay() == pytest.approx(tree.phase_delay())
        assert clone.total_wirelength() == pytest.approx(tree.total_wirelength())
        assert clone.gate_count() == tree.gate_count()

    def test_roundtrip_preserves_technology(self, routed):
        clone = tree_from_dict(tree_to_dict(routed.tree))
        assert clone.tech.unit_wire_resistance == routed.tree.tech.unit_wire_resistance
        assert clone.tech.masking_gate == routed.tree.tech.masking_gate

    def test_file_roundtrip(self, routed, tmp_path):
        path = tmp_path / "tree.json"
        save_tree(routed.tree, path)
        clone = load_tree(path)
        assert len(clone) == len(routed.tree)
        clone.validate_embedding()


class TestValidation:
    def test_version_check(self, routed):
        data = tree_to_dict(routed.tree)
        data["format_version"] = 99
        with pytest.raises(ValueError, match="version"):
            tree_from_dict(data)

    def test_dense_ids_required(self, routed):
        data = tree_to_dict(routed.tree)
        data["nodes"][0]["id"] = 500
        with pytest.raises(ValueError):
            tree_from_dict(data)


class TestLegacyFiles:
    def test_sink_delay_min_key_is_ignored(self, routed):
        # Trees written while bounded-skew routing existed carry a
        # ``sink_delay_min`` key per node; they still load and audit.
        data = tree_to_dict(routed.tree)
        for record in data["nodes"]:
            record["sink_delay_min"] = record["sink_delay"]
        clone = tree_from_dict(data)
        assert tree_to_dict(clone) == tree_to_dict(routed.tree)
        report = audit_network(clone)
        assert report.ok, report.problems


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
