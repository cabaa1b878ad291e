"""Fixed-topology DME: embedding a tree whose topology is already set.

``reembed`` runs the deferred-merge embedding along the *existing*
topology with the *current* cell assignment: a bottom-up pass
recomputes merging segments and zero-skew splits (with wire snaking
where cells make siblings unbalanced), and a top-down pass re-places
every node.  The result is an exactly zero-skew tree.  Bisection
(:mod:`repro.cts.bisection`) builds its topology first and embeds it
with ``reembed``; the refinement pass (:mod:`repro.cts.refine`) edits
a finished tree and repairs only the edited node's root path, one
:func:`rebalance` step per node.

Running ``reembed`` on an untouched tree is a no-op up to
floating-point noise -- a property the test suite checks.
"""

from __future__ import annotations

from repro.cts.merge import Tap, merge_regions, zero_skew_split
from repro.cts.topology import ClockNode, ClockTree
from repro.geometry.trr import Trr


def rebalance(tree: ClockTree, node: ClockNode) -> None:
    """Recompute one node's merging segment, presented capacitance and
    delays -- and its children's edge lengths -- from its children's
    current state and cells (the bottom-up step of DME).

    A sink resets to its pin.  Internal nodes are normally binary, but
    edited or hand-built trees can hold *unary* pass-through nodes;
    those propagate their single child's presented capacitance and
    delay through a zero-length edge.
    """
    tech = tree.tech
    if node.is_sink:
        node.merging_segment = Trr.from_point(node.sink.location)
        node.subtree_cap = node.sink.load_cap
        node.sink_delay = 0.0
        return
    if len(node.children) == 1:
        # Unary pass-through: no split to balance.  The child
        # attaches with a zero-length edge, so the node presents
        # the child's own presented capacitance (its cell's input
        # pin when the edge carries one) and its unloaded delay.
        child = tree.node(node.children[0])
        tap = Tap(cap=child.subtree_cap, delay=child.sink_delay, cell=child.edge_cell)
        child.edge_length = 0.0
        child.snaked = False
        node.merging_segment = child.merging_segment
        node.subtree_cap = tap.presented_cap(0.0, tech)
        node.sink_delay = tap.edge_delay(0.0, tech)
    else:
        left, right = (tree.node(c) for c in node.children)
        distance = left.merging_segment.distance_to(right.merging_segment)
        split = zero_skew_split(
            distance,
            Tap(cap=left.subtree_cap, delay=left.sink_delay, cell=left.edge_cell),
            Tap(cap=right.subtree_cap, delay=right.sink_delay, cell=right.edge_cell),
            tech,
        )
        left.edge_length = split.length_a
        left.snaked = split.snaked == "a"
        right.edge_length = split.length_b
        right.snaked = split.snaked == "b"
        node.merging_segment = merge_regions(
            left.merging_segment, right.merging_segment, split
        )
        node.subtree_cap = split.merged_cap
        node.sink_delay = split.delay


def reembed(tree: ClockTree) -> None:
    """Recompute the embedding in place for the tree's current cells:
    :func:`rebalance` every node bottom-up, then place top-down."""
    for node in tree.postorder():
        rebalance(tree, node)
    tree.place()
