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

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.activity.probability import ActivityOracle
from repro.check.errors import ContractError, InputError
from repro.cts.dme import CellPolicy, NoCellPolicy, annotate_enable, decide_edge
from repro.cts.reembed import reembed
from repro.cts.topology import ClockTree, Sink


@dataclass(frozen=True)
class ShardPlan:
    """The partition and the stitch order it implies.

    ``shards`` holds, per shard, the indices into the original sink
    sequence (each sorted ascending).  ``merge_order`` is the cut tree
    read bottom-up: slots ``0 .. K-1`` are the shards themselves,
    every ``(left_slot, right_slot, new_slot)`` triple merges two
    subtree roots into a new slot, and the last triple's ``new_slot``
    is the clock root.  With one shard the order is empty.
    """

    shards: Tuple[Tuple[int, ...], ...]
    merge_order: Tuple[Tuple[int, int, int], ...]

    @property
    def num_shards(self) -> int:
        return len(self.shards)


def partition_sinks(sinks: Sequence[Sink], num_shards: int) -> ShardPlan:
    """Cut ``sinks`` into ``num_shards`` balanced spatial shards.

    Recursive median bisection with alternating cut axes, the first
    cut vertical: each cut sorts the remaining indices by the cut
    coordinate -- ties broken by sink index, so duplicate coordinates
    partition deterministically -- and splits them proportionally to
    the shard counts assigned to each side.  Shard sizes differ by at
    most one sink; with one shard per sink the cut tree is the
    bisection topology.
    """
    if num_shards < 1:
        raise InputError("num_shards must be positive", field="num_shards")
    if num_shards > len(sinks):
        raise InputError(
            "num_shards (%d) exceeds the sink count (%d)"
            % (num_shards, len(sinks)),
            field="num_shards",
        )
    shards: List[Tuple[int, ...]] = []
    merge_order: List[Tuple[int, int, int]] = []

    def split(indices: List[int], shard_count: int, vertical: bool) -> int:
        if shard_count == 1:
            shards.append(tuple(sorted(indices)))
            return len(shards) - 1
        left_count = shard_count // 2
        right_count = shard_count - left_count
        def key(i: int) -> Tuple[float, int]:
            location = sinks[i].location
            return ((location.x if vertical else location.y), i)

        ordered = sorted(indices, key=key)
        # Proportional split, clamped so both sides can still feed at
        # least one sink to every shard assigned to them.
        take = round(len(ordered) * left_count / shard_count)
        take = max(left_count, min(take, len(ordered) - right_count))
        left = split(ordered[:take], left_count, not vertical)
        right = split(ordered[take:], right_count, not vertical)
        merge_order.append((left, right, num_shards + len(merge_order)))
        return merge_order[-1][2]

    split(list(range(len(sinks))), num_shards, vertical=True)
    return ShardPlan(shards=tuple(shards), merge_order=tuple(merge_order))


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
    # One shard per sink; internal nodes are created in slot order.
    plan = partition_sinks(sinks, len(sinks))
    slots = [leaf for (leaf,) in plan.shards]
    for left, right, _ in plan.merge_order:
        # Placeholder merging segment; the re-embed pass recomputes it.
        segment = tree.node(slots[left]).merging_segment
        slots.append(tree.add_internal(slots[left], slots[right], segment).id)
    tree.set_root(slots[-1])

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
