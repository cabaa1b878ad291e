"""Switched-capacitance accounting over a finished clock tree.

``W(T)``: every edge's wire capacitance, plus the capacitance attached
at its bottom node (sink load or the input pins of the cells it
drives), switches with the clock activity factor times the *effective*
enable probability of the edge -- the signal probability of the
nearest maskable gate at or above it (1.0 when no gate masks it, as in
the buffered baseline).

The attachment convention avoids double counting with partially gated
trees: an ungated child edge's wire is accounted by that edge's own
term (at the same effective probability), so a node only contributes
the input capacitance of *cells* it directly drives plus its own sink
load.

Each node's term is :meth:`repro.cts.topology.ClockTree.clock_term`;
``W(S)`` is computed by :mod:`repro.core.controller`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.cts.topology import ClockTree
from repro.quantity import Probability, SwitchedCap
from repro.tech.parameters import Technology


@dataclass(frozen=True)
class SwitchedCapBreakdown:
    """W(T), W(S) and their sum, in pF per clock cycle."""

    clock_tree: SwitchedCap
    controller_tree: SwitchedCap

    @property
    def total(self) -> SwitchedCap:
        return self.clock_tree + self.controller_tree


def effective_enable_probabilities(tree: ClockTree) -> Dict[int, Probability]:
    """Per-node switching probability of the net feeding that node.

    The root's net is the raw clock (probability 1).  A maskable gated
    edge switches with its own enable's signal probability; any other
    edge inherits the probability of its parent's net.
    """
    eff: Dict[int, Probability] = {tree.root_id: 1.0}
    for node in tree.preorder():
        if node.id == tree.root_id:
            continue
        if node.has_gate:
            eff[node.id] = node.enable_probability
        else:
            eff[node.id] = eff[node.parent]
    return eff


def clock_tree_switched_cap(tree: ClockTree, tech: Technology) -> SwitchedCap:
    """``W(T)`` of an embedded (possibly gated, possibly buffered) tree."""
    eff = effective_enable_probabilities(tree)
    total = tree.clock_term(tree.root, eff[tree.root_id], tech)
    for node in tree.edges():
        total += tree.clock_term(node, eff[node.id], tech)
    return total


def ungated_clock_tree_switched_cap(tree: ClockTree, tech: Technology) -> SwitchedCap:
    """``W(T)`` of the same tree with every enable stuck at 1.

    The paper's Fig. 4 observation -- "the power consumption of the
    gated clock tree will be at least 40% of the ungated clock tree" --
    is checked against this quantity.
    """
    total = tree.clock_term(tree.root, 1.0, tech)
    for node in tree.edges():
        total += tree.clock_term(node, 1.0, tech)
    return total


def masking_efficiency(tree: ClockTree, tech: Technology) -> float:
    """Gated over ungated clock-tree switched capacitance, in (0, 1]."""
    ungated = ungated_clock_tree_switched_cap(tree, tech)
    if ungated <= 0:
        return 1.0
    return clock_tree_switched_cap(tree, tech) / ungated
