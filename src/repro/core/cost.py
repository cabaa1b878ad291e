"""Minimum-switched-capacitance merge costs.

When subtrees ``v_i`` and ``v_j`` are merged, the switched capacitance
added to the design per paper Eq. 3 is

* the two new clock edges:  ``(c e_i + C_i) P(EN_i)`` each, scaled by
  the clock activity factor, and
* the two new enable wires: ``(c |EN_i| + C_g) P_tr(EN_i)`` each,

with the enable wirelength estimated -- exactly as in the paper -- as
the distance from the controller point to the *middle of the child's
merging segment* (the Steiner point's final location is not known
during the bottom-up phase).

Two costs are provided, both :class:`~repro.cts.dme.PairCost` batches
over candidate lanes:

``switched_capacitance_cost``
    The literal Eq. 3.
``incremental_switched_capacitance_cost``
    A count-once re-attribution of the same total (see its docstring);
    it avoids a greedy pathology of the literal form and is the
    objective of :func:`repro.core.gated_routing.build_gated_tree`.
    The cost-term ablation bench compares the two.

Extensions beyond the literal Eq. 3, used only when the corresponding
feature is active:

* an edge the cell policy left ungated contributes its clock term
  weighted by the merged node's enable probability (its switching will
  be governed by the nearest gated ancestor; the merged node is the
  best bottom-up estimate) and no controller term;
* a buffered (non-maskable cell) edge contributes with weight 1.

Each lane's float chain follows the scalar evaluation order term for
term (a-side terms, then b-side terms), so a batch prices every pair
bit for bit as the scalar references of ``tests/scalar_reference.py``
price its plan.
"""

from __future__ import annotations

import numpy as np

from repro.cts.dme import BottomUpMerger, EdgeCells, PairCost, PairLanes
from repro.cts.topology import star_term


def _edge_weight(lanes: PairLanes, cells: EdgeCells):
    """Switching probability of every new clock edge: the child's own
    ``P(EN)`` below a gate, 1 below a buffer, and the merged ``P(EN)``
    (1 without an oracle) on ungated wire."""
    plain = ~(cells.maskable | cells.celled)
    merged = lanes.edge_merged_probability if plain.any() else None
    return np.where(
        cells.maskable,
        lanes.column("enable_p"),
        np.where(cells.celled, 1.0, 1.0 if merged is None else merged),
    )


def _star_term(merger: BottomUpMerger, lanes: PairLanes):
    """Enable-star switched capacitance of every edge's child."""
    return star_term(merger.tech, lanes.column("star"), lanes.column("enable_ptr"))


def _fold(n: int, wire, gated):
    """Each lane's total over its two edges, in the scalar order: the
    ``a`` edge's ``wire`` term, then each ``(mask, term)`` of ``gated``
    where its mask holds; then the same for the ``b`` edge.  The terms
    run over all ``2n`` edges (:attr:`PairLanes.edges`)."""
    total = 0.0
    for side in (slice(None, n), slice(n, None)):
        total = total + wire[side]
        for mask, term in gated:
            total = np.where(mask[side], total + term[side], total)
    return total


class SwitchedCapacitanceCost(PairCost):
    """Paper Eq. 3: switched capacitance added by this merge."""

    def batch(self, merger, lanes):
        tech = merger.tech
        cells, length = lanes.edges
        clock_cap = tech.unit_wire_capacitance * length + lanes.column("cap")
        wire = tech.clock_transitions_per_cycle * clock_cap * _edge_weight(lanes, cells)
        return _fold(lanes.distance.size, wire, [(cells.maskable, _star_term(merger, lanes))])


class IncrementalSwitchedCapacitanceCost(PairCost):
    """Count-once variant of Eq. 3 (the router objective).

    Summed over a whole construction this equals the final
    ``W(T) + W(S)`` up to per-sink constants -- exactly like Eq. 3 --
    but each capacitance is attributed to the merge whose *choice*
    controls it:

    * the two new edge wires, weighted by their enables,
    * the new cells' input pins, which hang at the merge node and
      switch with the merged enable's probability,
    * the two new enable star edges.

    The difference from the literal Eq. 3 is the child subtree
    capacitance ``C_i``: it consists of pins committed by the child's
    *own* creation (where this cost already charged them) and is
    identical for every candidate partner.  Including it per Eq. 3
    biases the greedy toward pairs of "cheap" nodes regardless of the
    wirelength the pairing commits, which inflates the routed tree.
    """

    def batch(self, merger, lanes):
        tech = merger.tech
        a_clk = tech.clock_transitions_per_cycle
        cells, length = lanes.edges
        wire = a_clk * tech.unit_wire_capacitance * length * _edge_weight(lanes, cells)
        merged = lanes.edge_merged_probability
        pin_weight = np.where(cells.maskable, 1.0 if merged is None else merged, 1.0)
        pin = a_clk * cells.input_cap * pin_weight
        gated = [(cells.celled, pin), (cells.maskable, _star_term(merger, lanes))]
        return _fold(lanes.distance.size, wire, gated)


switched_capacitance_cost = SwitchedCapacitanceCost()
incremental_switched_capacitance_cost = IncrementalSwitchedCapacitanceCost()
