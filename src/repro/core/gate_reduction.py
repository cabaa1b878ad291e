"""Gate reduction (paper section 4.3).

Inserting a masking gate on *every* edge maximizes clock-tree masking
but explodes the star-routed controller tree -- section 5.1 shows the
fully-gated tree is actually worse than the buffered baseline.  Three
rules identify edges where a gate buys (almost) nothing:

1. the node's activity is close to 1 (it can never be shut off),
2. the node's switched capacitance is very small,
3. the activity of the masking parent is almost the same as the
   node's activity (the gate above already masks almost as well --
   "only the parent will have a gate").

Removing too many gates exposes large subtree capacitances and blows
up the phase delay, so a fourth rule *forces* a gate whenever the
capacitance the edge would otherwise expose reaches a multiple of the
gate input capacitance.

Two application modes are provided:

* :class:`GateReductionPolicy` as a merge-time
  :class:`~repro.cts.dme.CellPolicy` -- the default ``"merge"`` mode
  of both gated flows and the paper's best flow: gates are decided
  during bottom-up merging, using the merged node's activity as the
  parent estimate, so the topology co-optimizes with the gate count.
* :func:`apply_gate_reduction` -- the ``"demote"`` **post-pass**:
  build the fully gated tree, then walk it top-down pruning gates,
  with rule 3 evaluated against the *nearest kept gate above* (so
  pruning a parent's gate automatically protects the children's).  A
  pruned gate becomes an electrically identical always-on buffer, so
  zero skew is untouched.

A scalar *knob* in [0, 1] scales all thresholds at once; sweeping it
regenerates Fig. 5 ("gate reduction % vs switched capacitance/area").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

import numpy as np

from repro.check.errors import ContractError
from repro.tech.parameters import GateModel

from repro.cts.dme import CellDecision, CellPolicy
from repro.cts.topology import ClockTree
from repro.obs import get_registry, get_tracer
from repro.tech.parameters import Technology

#: Rule-at-full-knob scales (knob = 1 maps to these extremes).
_FULL_KNOB_ACTIVITY_THRESHOLD = 0.35
_FULL_KNOB_PARENT_DELTA = 0.5
_FULL_KNOB_CAP_UNITS = 3.0
_BASE_FORCE_CAP_RATIO = 10.0
_FULL_KNOB_FORCE_CAP_RATIO = 100.0


@dataclass(frozen=True)
class GateReductionPolicy(CellPolicy):
    """Thresholds for the section-4.3 rules.

    Parameters
    ----------
    activity_threshold:
        Rule 1: drop the gate when ``P(EN) >= activity_threshold``
        (1.0 effectively disables the rule).
    switched_cap_threshold:
        Rule 2: drop the gate when the edge's switched capacitance
        (pF per cycle, clock activity factor included) is at or below
        this (0 disables).
    parent_delta_threshold:
        Rule 3: drop the gate when
        ``P(EN_masking_parent) - P(EN) <= parent_delta_threshold``
        (negative disables; the difference is always >= 0 because an
        ancestor's enable is the OR of its descendants').
    force_cap_ratio:
        Override: always gate when the capacitance the edge would
        expose reaches ``force_cap_ratio * C_g``; keeps the phase delay
        from growing without bound.  ``None`` disables the override.
    """

    activity_threshold: float = 1.0
    switched_cap_threshold: float = 0.0
    parent_delta_threshold: float = -1.0
    force_cap_ratio: Optional[float] = _BASE_FORCE_CAP_RATIO

    def __post_init__(self):
        if not 0.0 <= self.activity_threshold <= 1.0 + 1e-9:
            raise ContractError("activity_threshold must lie in [0, 1]")
        if self.switched_cap_threshold < 0:
            raise ContractError("switched_cap_threshold must be non-negative")
        if self.force_cap_ratio is not None and self.force_cap_ratio <= 0:
            raise ContractError("force_cap_ratio must be positive")

    @staticmethod
    def from_knob(knob: float, tech: Technology) -> "GateReductionPolicy":
        """Map a scalar aggressiveness in [0, 1] onto the thresholds.

        knob 0 removes no gates (the fully gated tree); knob 1 removes
        aggressively.  The mapping is monotone: a larger knob's rules
        dominate a smaller knob's, so the achieved reduction percentage
        grows monotonically along the sweep.
        """
        if not 0.0 <= knob <= 1.0:
            raise ContractError("knob must lie in [0, 1]")
        gate_cap = tech.masking_gate.input_cap
        force = _BASE_FORCE_CAP_RATIO + knob * (
            _FULL_KNOB_FORCE_CAP_RATIO - _BASE_FORCE_CAP_RATIO
        )
        return GateReductionPolicy(
            activity_threshold=1.0 - knob * (1.0 - _FULL_KNOB_ACTIVITY_THRESHOLD),
            switched_cap_threshold=knob * _FULL_KNOB_CAP_UNITS * gate_cap,
            parent_delta_threshold=knob * _FULL_KNOB_PARENT_DELTA,
            force_cap_ratio=force,
        )

    # ------------------------------------------------------------------
    # the rules
    # ------------------------------------------------------------------
    def should_keep(
        self,
        enable_probability,
        mask_probability,
        exposed_cap,
        tech: Technology,
        honor_force: bool = True,
    ):
        """Apply the rules to gate sites (scalars or per-site arrays).

        ``mask_probability`` is the activity of whatever would mask the
        edge if this gate were removed (the nearest kept gate above, or
        1.0 for the raw clock); ``exposed_cap`` the capacitance the
        edge presents when ungated (wire plus decoupled subtree).
        ``honor_force=False`` skips the forced-insertion override (used
        when pruning cannot expose capacitance, i.e. demote mode).
        """
        gate = tech.masking_gate
        forced = (
            honor_force
            and self.force_cap_ratio is not None
            and exposed_cap >= self.force_cap_ratio * gate.input_cap
        )
        edge_switched_cap = (
            tech.clock_transitions_per_cycle * exposed_cap * enable_probability
        )
        threshold = self.switched_cap_threshold
        dropped = (
            # rule 1: never idle
            (enable_probability >= self.activity_threshold)
            # rule 2: nothing to save (a zero threshold disables it)
            | ((0.0 < threshold) & (threshold >= edge_switched_cap))
            # rule 3: the gate above masks as well
            | (mask_probability - enable_probability <= self.parent_delta_threshold)
        )
        return forced | np.logical_not(dropped)

    # ------------------------------------------------------------------
    # CellPolicy interface (merge-time mode)
    # ------------------------------------------------------------------
    def cells(self, tech: Technology) -> Tuple[CellDecision, ...]:
        return (CellDecision(cell=None), CellDecision(cell=tech.masking_gate, maskable=True))

    def decide(
        self,
        enable_probability,
        subtree_cap,
        distance,
        merged_probability,
        tech: Technology,
    ):
        # The final edge length is not known before the zero-skew
        # split; half the merging distance is the unbiased estimate.
        exposed_cap = tech.wire_cap(distance / 2.0) + subtree_cap
        mask = 1.0 if merged_probability is None else merged_probability
        return self.should_keep(enable_probability, mask, exposed_cap, tech)


def apply_gate_reduction(
    tree: ClockTree, policy: GateReductionPolicy, mode: str = "demote"
) -> int:
    """Prune gates from a fully (or partially) gated tree, in place.

    Top-down pass: every gated edge is tested with
    :meth:`GateReductionPolicy.should_keep` against the activity of the
    nearest gate kept *above* it -- so pruning a parent's gate
    automatically protects its descendants' gates from rule 3, which a
    merge-time decision cannot guarantee.

    ``mode`` must be ``"demote"``: a pruned gate is swapped for an
    *electrically identical* always-on buffer (its enable tied high):
    same input cap, drive and delay, half the cell area.  The tree's
    embedding -- hence its exact zero skew -- is untouched; only the
    enable star edge and the masking disappear.  The forced-insertion
    rule is moot (nothing gets exposed) so the sweep reaches 100%
    reduction.

    Returns the number of gates pruned.
    """
    if mode != "demote":
        raise ContractError("mode must be 'demote'")
    with get_tracer().span("gating.reduce", mode=mode):
        removed = _demote_gates(tree, policy)
    get_registry().counter("gating.gates_pruned").inc(removed)
    return removed


def _demote_gates(tree: ClockTree, policy: GateReductionPolicy) -> int:
    tech = tree.tech
    removed = 0
    mask_prob: Dict[int, float] = {tree.root_id: 1.0}
    for node in tree.preorder():
        if node.id == tree.root_id:
            continue
        above = mask_prob[node.parent]
        if node.has_gate:
            exposed = tech.wire_cap(node.edge_length) + node.subtree_cap
            # Demoting never exposes capacitance upstream, so the
            # forced-insertion override does not apply.
            if policy.should_keep(
                node.enable_probability, above, exposed, tech, honor_force=False
            ):
                mask_prob[node.id] = node.enable_probability
                continue
            node.edge_cell = _demoted(node.edge_cell, tech)
            node.edge_maskable = False
            removed += 1
        mask_prob[node.id] = above
    return removed


def _demoted(gate: GateModel, tech: Technology) -> GateModel:
    """The always-on buffer a pruned gate is swapped for.

    Electrically identical to the gate (so skew is untouched); the cell
    area drops to the baseline buffer's, modelling the layout swap of a
    tied-high AND gate for an equivalent buffer.
    """
    return replace(gate, area=tech.buffer.area)


def reduction_fraction(num_gates: int, num_sinks: int) -> float:
    """Fraction of gate sites left empty (the x-axis of Fig. 5).

    A fully gated tree over ``N`` sinks has a gate on every edge:
    ``2N - 2`` gates.
    """
    if num_sinks < 1:
        raise ContractError("need at least one sink")
    sites = 2 * num_sinks - 2
    if sites == 0:
        return 0.0
    if not 0 <= num_gates <= sites:
        raise ContractError("gate count outside [0, %d]" % sites)
    return 1.0 - num_gates / sites
