"""Scalar reference evaluators: the parity oracle of the batched merger.

The library prices candidate merges only through
:meth:`repro.cts.dme.PairCost.batch` and decides cells only through
the batched :meth:`repro.cts.dme.CellPolicy.decide`.  This module keeps
the straightforward one-pair-at-a-time formulations they replaced --
the Eq. 3 and count-once costs over a :class:`~repro.cts.dme.MergePlan`
and the section 4.3 gate-keeping rules with their short-circuit
branches -- plus :class:`ScalarReferenceMerger`, the greedy engine with
every candidate lane priced by a scalar plan and a scalar reference
cost.  Tests compare the batched paths against these bit for bit.
"""

import numpy as np

from repro.core.cost import (
    incremental_switched_capacitance_cost,
    switched_capacitance_cost,
)
from repro.core.gate_reduction import GateReductionPolicy
from repro.cts.dme import BottomUpMerger, CellPolicy, nearest_neighbor_cost


def _edge_weight(decision, child, plan):
    """Switching probability of the new clock edge above ``child``."""
    if decision.maskable:
        return child.enable_probability
    if decision.cell is not None:
        return 1.0  # buffer: never masked
    if plan.merged_probability is not None:
        return plan.merged_probability
    return 1.0


def eq3_cost(plan, merger):
    """Paper Eq. 3 over one plan."""
    tech = merger.tech
    c = tech.unit_wire_capacitance
    a_clk = tech.clock_transitions_per_cycle
    gate_in = tech.masking_gate.input_cap
    cp = merger.controller_point

    total = 0.0
    for child_id, decision, edge_len in (
        (plan.a_id, plan.decision_a, plan.split.length_a),
        (plan.b_id, plan.decision_b, plan.split.length_b),
    ):
        child = merger.tree.node(child_id)
        clock_cap = c * edge_len + child.subtree_cap
        total += a_clk * clock_cap * _edge_weight(decision, child, plan)
        if decision.maskable:
            star_len = cp.manhattan_to(child.merging_segment.center())
            total += (c * star_len + gate_in) * child.enable_transition_probability
    return total


def incremental_cost(plan, merger):
    """The count-once Eq. 3 variant over one plan."""
    tech = merger.tech
    c = tech.unit_wire_capacitance
    a_clk = tech.clock_transitions_per_cycle
    gate_in = tech.masking_gate.input_cap
    cp = merger.controller_point
    merged_p = plan.merged_probability if plan.merged_probability is not None else 1.0

    total = 0.0
    for child_id, decision, edge_len in (
        (plan.a_id, plan.decision_a, plan.split.length_a),
        (plan.b_id, plan.decision_b, plan.split.length_b),
    ):
        child = merger.tree.node(child_id)
        total += a_clk * c * edge_len * _edge_weight(decision, child, plan)
        if decision.cell is not None:
            pin_weight = merged_p if decision.maskable else 1.0
            total += a_clk * decision.cell.input_cap * pin_weight
        if decision.maskable:
            star_len = cp.manhattan_to(child.merging_segment.center())
            total += (c * star_len + gate_in) * child.enable_transition_probability
    return total


def distance_cost(plan, merger):
    """The nearest-neighbour objective over one plan."""
    return plan.distance


REFERENCE_COSTS = {
    switched_capacitance_cost: eq3_cost,
    incremental_switched_capacitance_cost: incremental_cost,
    nearest_neighbor_cost: distance_cost,
}


def should_keep(policy, enable_probability, mask_probability, exposed_cap, tech):
    """The section 4.3 rules for one gate site, branch by branch."""
    gate = tech.masking_gate
    if (
        policy.force_cap_ratio is not None
        and exposed_cap >= policy.force_cap_ratio * gate.input_cap
    ):
        return True
    if enable_probability >= policy.activity_threshold:
        return False  # rule 1: never idle
    edge_switched_cap = tech.clock_transitions_per_cycle * exposed_cap * enable_probability
    if 0.0 < policy.switched_cap_threshold >= edge_switched_cap:
        return False  # rule 2: nothing to save
    if mask_probability - enable_probability <= policy.parent_delta_threshold:
        return False  # rule 3: the gate above masks as well
    return True


def keeps_gate(policy, enable_probability, subtree_cap, distance, merged_probability, tech):
    """Merge-time section 4.3 decision for one edge: keep its gate?"""
    exposed_cap = tech.wire_cap(distance / 2.0) + subtree_cap
    mask = merged_probability if merged_probability is not None else 1.0
    return should_keep(policy, enable_probability, mask, exposed_cap, tech)


class ScalarPolicy(CellPolicy):
    """A cell policy whose decisions come from the scalar references."""

    def __init__(self, policy):
        self.policy = policy

    def cells(self, tech):
        return self.policy.cells(tech)

    def decide(self, enable_probability, subtree_cap, distance, merged_probability, tech):
        if isinstance(self.policy, GateReductionPolicy):
            return int(
                keeps_gate(
                    self.policy,
                    enable_probability,
                    subtree_cap,
                    distance,
                    merged_probability,
                    tech,
                )
            )
        return self.policy.decide(
            enable_probability, subtree_cap, distance, merged_probability, tech
        )


class ScalarReferenceMerger(BottomUpMerger):
    """The greedy engine with each candidate lane priced on its own.

    Every lane of a screen -- whichever owner it belongs to -- gets a
    full scalar :meth:`plan` (cells from the scalar section 4.3 rules)
    and a scalar reference cost, in the lane's pair orientation;
    candidate selection, batching, the heap and repair are the
    engine's.  Its merge trace must equal the batched engine's
    byte for byte.
    """

    def __init__(self, sinks, tech, reference_cost=None, **kwargs):
        super().__init__(sinks, tech, **kwargs)
        self.reference_cost = reference_cost or REFERENCE_COSTS[self.cost]
        self.cell_policy = ScalarPolicy(self.cell_policy)

    def _screen(self, owner, other, distance=None, canonical=False):
        costs, distances = [], []
        for nid, partner in zip(owner.tolist(), other.tolist()):
            a, b = (partner, nid) if canonical and partner < nid else (nid, partner)
            plan = self.plan(a, b)
            costs.append(self.reference_cost(plan, self))
            segment = self.tree.node(nid).merging_segment
            distances.append(segment.distance_to(self.tree.node(partner).merging_segment))
        distances = np.array(distances, dtype=float)
        # Distances measured by the candidate index must be the scalar
        # ones bit for bit.
        assert distance is None or np.array_equal(distance, distances)
        return np.array(costs, dtype=float), distances
