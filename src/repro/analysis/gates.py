"""Per-gate efficacy analysis.

For every masking gate in a routed network, compare what it *saves*
(the capacitance it stops from switching, relative to the enable that
would mask the edge if the gate were absent) with what it *costs* (its
enable star edge's switched capacitance).  The resulting ledger shows
which gates carry the design -- typically the roots of idle functional
clusters -- and which are dead weight, which is precisely the
structure the section-4.3 reduction rules exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.controller import EnableRouting
from repro.core.switched_cap import effective_enable_probabilities
from repro.cts.topology import ClockTree, star_term
from repro.tech.parameters import Technology


@dataclass(frozen=True)
class GateEfficacy:
    """The power ledger of one masking gate."""

    node_id: int
    enable_probability: float
    mask_probability_above: float
    """Enable probability of the nearest masking gate above (1.0 at
    the top): what the edge would switch at without this gate."""

    masked_cap: float
    """Capacitance (wire + pins, pF) this gate's edge controls."""

    saving: float
    """Switched capacitance saved per cycle by having the gate."""

    star_cost: float
    """Switched capacitance of this gate's enable star edge."""

    @property
    def net_benefit(self) -> float:
        return self.saving - self.star_cost

    @property
    def worthwhile(self) -> bool:
        return self.net_benefit > 0


def _controlled_cap(tree: ClockTree, node_id: int, tech: Technology) -> float:
    """Wire + directly-driven pin capacitance of one edge's net.

    Follows the net through cell-less child edges (iteratively; greedy
    merge orders can produce deep trees) and stops at cell inputs.
    """
    cap = 0.0
    stack = [(node_id, True)]
    while stack:
        current, include_wire = stack.pop()
        node = tree.node(current)
        if include_wire:
            cap += tech.wire_cap(node.edge_length)
        if node.is_sink:
            cap += node.sink.load_cap
            continue
        for child_id in node.children:
            child = tree.node(child_id)
            if child.edge_cell is not None:
                cap += child.edge_cell.input_cap
            else:
                stack.append((child_id, True))
    return cap


def gate_efficacy(
    tree: ClockTree,
    tech: Technology,
    routing: Optional[EnableRouting] = None,
) -> List[GateEfficacy]:
    """The per-gate ledger, most beneficial gates first.

    ``routing`` supplies the star costs; without it they are reported
    as zero (clock-tree-only view).
    """
    star_cost: Dict[int, float] = {}
    if routing is not None:
        for route in routing.routes:
            star_cost[route.node_id] = star_term(
                tech, route.length, route.transition_probability
            )

    # Masking probability of the nearest gate STRICTLY above each node.
    above: Dict[int, float] = {tree.root_id: 1.0}
    eff = effective_enable_probabilities(tree)
    for node in tree.preorder():
        for child_id in node.children:
            above[child_id] = eff[node.id]

    a_clk = tech.clock_transitions_per_cycle
    ledger = []
    for node in tree.gates():
        controlled = _controlled_cap(tree, node.id, tech)
        saving = a_clk * controlled * (above[node.id] - node.enable_probability)
        ledger.append(
            GateEfficacy(
                node_id=node.id,
                enable_probability=node.enable_probability,
                mask_probability_above=above[node.id],
                masked_cap=controlled,
                saving=saving,
                star_cost=star_cost.get(node.id, 0.0),
            )
        )
    ledger.sort(key=lambda g: g.net_benefit, reverse=True)
    return ledger


def efficacy_summary(ledger: List[GateEfficacy]) -> Dict[str, float]:
    """Aggregate view: totals and the count of net-positive gates."""
    return {
        "gates": float(len(ledger)),
        "worthwhile_gates": float(sum(1 for g in ledger if g.worthwhile)),
        "total_saving": sum(g.saving for g in ledger),
        "total_star_cost": sum(g.star_cost for g in ledger),
        "net_benefit": sum(g.net_benefit for g in ledger),
    }
