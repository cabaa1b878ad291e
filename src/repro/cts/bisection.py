"""Top-down recursive-bisection clock topology.

The third classical topology generator (besides the bottom-up greedy
families this library centers on): recursively split the sink set by
the median coordinate, alternating cut directions -- the construction
behind H-tree-like clock plans.  The topology is built first, then the
fixed-topology embedding pass (:mod:`repro.cts.reembed`) computes the
merging segments, exact zero-skew splits and placements for it.

It serves as an ablation baseline: balanced and activity-blind, it
bounds how much of the gated router's win comes from *choosing* the
topology rather than from gating an arbitrary reasonable tree.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.activity.probability import ActivityOracle
from repro.check.errors import ContractError
from repro.cts.dme import CellPolicy, NoCellPolicy, annotate_enable, decide_edge
from repro.cts.reembed import reembed
from repro.cts.topology import ClockTree, Sink


def _build_recursive(
    tree: ClockTree,
    leaf_ids: List[int],
    vertical_cut: bool,
) -> int:
    """Merge ``leaf_ids`` into one subtree; returns its root node id."""
    if len(leaf_ids) == 1:
        return leaf_ids[0]
    # Split at the median of the current cut direction.
    def key(node_id: int) -> float:
        location = tree.node(node_id).sink.location
        return location.x if vertical_cut else location.y

    ordered = sorted(leaf_ids, key=lambda nid: (key(nid), nid))
    half = len(ordered) // 2
    left = _build_recursive(tree, ordered[:half], not vertical_cut)
    right = _build_recursive(tree, ordered[half:], not vertical_cut)
    # Placeholder merging segment; the re-embed pass recomputes it.
    merged = tree.add_internal(left, right, tree.node(left).merging_segment)
    return merged.id


def build_bisection_tree(
    sinks: Sequence[Sink],
    tech,
    cell_policy: Optional[CellPolicy] = None,
    oracle: Optional[ActivityOracle] = None,
) -> ClockTree:
    """Balanced bisection topology with an exact zero-skew embedding.

    ``cell_policy`` decides the cell on every edge (evaluated with the
    merged node's enable probability when the policy wants it);
    ``oracle`` annotates activity statistics as in the greedy flows.
    """
    if not sinks:
        raise ContractError("at least one sink is required")
    policy = cell_policy or NoCellPolicy()
    tree = ClockTree(tech)
    for sink in sinks:
        annotate_enable(tree.add_leaf(sink), oracle)
    root_id = _build_recursive(tree, [n.id for n in tree.sinks()], vertical_cut=True)
    tree.set_root(root_id)

    # Bottom-up annotation of module masks and enable statistics.
    for node in tree.postorder():
        if node.is_sink:
            continue
        left, right = (tree.node(c) for c in node.children)
        node.module_mask = left.module_mask | right.module_mask
        annotate_enable(node, oracle)

    # First embedding with plain wires gives real edge lengths and
    # subtree capacitances; cell decisions then see honest estimates,
    # and a second embedding balances the tree with the chosen cells.
    reembed(tree)
    cells = policy.cells(tech)
    for node in tree.internal_nodes():
        for child_id in node.children:
            child = tree.node(child_id)
            decision = decide_edge(
                policy,
                cells,
                child,
                node.enable_probability,
                2.0 * child.edge_length,  # the policies treat distance/2
                tech,  # as the nominal edge length
            )
            child.edge_cell = decision.cell
            child.edge_maskable = decision.maskable
    reembed(tree)
    return tree
