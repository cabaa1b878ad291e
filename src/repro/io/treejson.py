"""JSON (de)serialization of embedded clock trees.

The dictionary form is a faithful dump of every node: topology,
merging segments, placements, electrical edge data, cells and activity
annotations.  ``tree_from_dict(tree_to_dict(t))`` reproduces the tree
exactly (the round-trip property is tested), so routed results can be
archived and re-audited without re-running the router.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.check.errors import InputError
from repro.cts.topology import ClockNode, ClockTree, Sink
from repro.geometry.point import Point
from repro.geometry.trr import Trr
from repro.tech.parameters import GateModel, Technology

FORMAT_VERSION = 1


def _cell_to_dict(cell: Optional[GateModel]) -> Optional[Dict[str, float]]:
    if cell is None:
        return None
    return {
        "input_cap": cell.input_cap,
        "drive_resistance": cell.drive_resistance,
        "intrinsic_delay": cell.intrinsic_delay,
        "area": cell.area,
    }


def _cell_from_dict(data: Optional[Dict[str, float]]) -> Optional[GateModel]:
    if data is None:
        return None
    return GateModel(**data)


def _node_to_dict(node: ClockNode) -> Dict[str, Any]:
    seg = node.merging_segment
    return {
        "id": node.id,
        "children": list(node.children),
        "sink": (
            None
            if node.sink is None
            else {
                "name": node.sink.name,
                "x": node.sink.location.x,
                "y": node.sink.location.y,
                "load_cap": node.sink.load_cap,
                "module": node.sink.module,
            }
        ),
        "merging_segment": [seg.ulo, seg.uhi, seg.vlo, seg.vhi],
        "edge_length": node.edge_length,
        "edge_cell": _cell_to_dict(node.edge_cell),
        "edge_maskable": node.edge_maskable,
        "location": None if node.location is None else [node.location.x, node.location.y],
        "module_mask": hex(node.module_mask),
        "enable_probability": node.enable_probability,
        "enable_transition_probability": node.enable_transition_probability,
        "subtree_cap": node.subtree_cap,
        "sink_delay": node.sink_delay,
        "snaked": node.snaked,
    }


def tree_to_dict(tree: ClockTree) -> Dict[str, Any]:
    """Dump a tree (and the technology it was built with) to a dict."""
    tech = tree.tech
    return {
        "format_version": FORMAT_VERSION,
        "technology": {
            "unit_wire_resistance": tech.unit_wire_resistance,
            "unit_wire_capacitance": tech.unit_wire_capacitance,
            "masking_gate": _cell_to_dict(tech.masking_gate),
            "buffer": _cell_to_dict(tech.buffer),
            "clock_transitions_per_cycle": tech.clock_transitions_per_cycle,
            "wire_width": tech.wire_width,
        },
        "root": tree.root_id,
        "nodes": [_node_to_dict(n) for n in tree.nodes()],
    }


def tree_from_dict(data: Dict[str, Any]) -> ClockTree:
    """Rebuild a tree from :func:`tree_to_dict` output.

    Structural problems (wrong version, missing keys, sparse node ids)
    raise :class:`~repro.check.errors.InputError`.
    """
    if not isinstance(data, dict):
        raise InputError("tree file must hold a JSON object")
    if data.get("format_version") != FORMAT_VERSION:
        raise InputError(
            "unsupported tree format version %r" % data.get("format_version"),
            field="format_version",
        )
    try:
        return _tree_from_dict(data)
    except (KeyError, TypeError) as exc:
        raise InputError(
            "tree file is missing or corrupts a required key: %r" % exc
        ) from exc


def _tree_from_dict(data: Dict[str, Any]) -> ClockTree:
    tdata = data["technology"]
    tech = Technology(
        unit_wire_resistance=tdata["unit_wire_resistance"],
        unit_wire_capacitance=tdata["unit_wire_capacitance"],
        masking_gate=_cell_from_dict(tdata["masking_gate"]),
        buffer=_cell_from_dict(tdata["buffer"]),
        clock_transitions_per_cycle=tdata["clock_transitions_per_cycle"],
        wire_width=tdata["wire_width"],
    )
    tree = ClockTree(tech)
    nodes = sorted(data["nodes"], key=lambda n: n["id"])
    for record in nodes:
        if record["id"] != len(tree):
            raise InputError("node ids must be dense and ordered", node=record["id"])
        if record["sink"] is not None:
            sdata = record["sink"]
            node = tree.add_leaf(
                Sink(
                    name=sdata["name"],
                    location=Point(sdata["x"], sdata["y"]),
                    load_cap=sdata["load_cap"],
                    module=sdata["module"],
                )
            )
        else:
            left, right = record["children"]
            node = tree.add_internal(
                left, right, Trr(*record["merging_segment"])
            )
        node.merging_segment = Trr(*record["merging_segment"])
        node.edge_length = record["edge_length"]
        node.edge_cell = _cell_from_dict(record["edge_cell"])
        node.edge_maskable = record["edge_maskable"]
        if record["location"] is not None:
            node.location = Point(*record["location"])
        node.module_mask = int(record["module_mask"], 16)
        node.enable_probability = record["enable_probability"]
        node.enable_transition_probability = record["enable_transition_probability"]
        node.subtree_cap = record["subtree_cap"]
        node.sink_delay = record["sink_delay"]
        node.snaked = record["snaked"]
    tree.set_root(data["root"])
    return tree


def save_tree(tree: ClockTree, path: Union[str, Path]) -> None:
    """Write a tree to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(tree_to_dict(tree), handle, indent=1)


def load_tree(path: Union[str, Path]) -> ClockTree:
    """Read a tree from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise InputError(
                "invalid tree JSON: %s" % exc, source=str(path), line=exc.lineno
            ) from exc
    try:
        return tree_from_dict(data)
    except InputError as exc:
        if exc.source is not None:
            raise
        raise InputError(
            exc.message,
            source=str(path),
            line=exc.line,
            field=exc.field,
            node=exc.node,
        ) from exc
