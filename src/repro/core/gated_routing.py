"""GatedClockRouting (paper section 4.2).

The procedure, verbatim from the paper's outline:

1. scan the instruction stream once, building IFT and IMATT
   (:mod:`repro.activity.tables`);
2. find ``P(EN)`` and ``P_tr(EN)`` for every sink;
3. repeatedly merge the pair of subtrees whose merge adds the least
   switched capacitance (Eq. 3), each time performing an exact
   zero-skew split, computing the merged node's enable statistics and
   its merging segment;
4. place internal nodes top-down within their merging segments.

This module wires those steps together; all the machinery lives in
:mod:`repro.cts.dme` (the greedy engine) and :mod:`repro.core.cost`
(the Eq. 3 objective).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.activity.probability import ActivityOracle
from repro.core.cost import incremental_switched_capacitance_cost
from repro.cts.dme import BottomUpMerger, CellPolicy, GateEveryEdgePolicy
from repro.cts.topology import ClockTree, Sink
from repro.geometry.point import Point
from repro.obs import get_tracer
from repro.tech.parameters import Technology


def build_gated_tree(
    sinks: Sequence[Sink],
    tech: Technology,
    oracle: ActivityOracle,
    controller_point: Optional[Point] = None,
    cell_policy: Optional[CellPolicy] = None,
    candidate_limit: Optional[int] = None,
    gate_sizing=None,
    skew_bound: float = 0.0,
) -> ClockTree:
    """Build a zero-skew gated clock tree minimizing switched capacitance.

    Parameters
    ----------
    sinks:
        Module clock pins; each sink's ``module`` index keys into the
        activity oracle.
    tech:
        Technology constants (wire RC, gate model, activity factor).
    oracle:
        Table-driven ``P(EN)`` / ``P_tr(EN)`` source built from the
        instruction stream (or analytically from a Markov model).
    controller_point:
        Gate controller location; defaults to the sink bounding-box
        center, the paper's "center of the chip".
    cell_policy:
        Gate placement policy.  Defaults to a gate on every edge (the
        paper's base configuration); pass a
        :class:`~repro.core.gate_reduction.GateReductionPolicy` for the
        merge-time reduced-gate variant.
    candidate_limit:
        Optional k-nearest-neighbour restriction of the greedy
        candidate pairs (exact greedy when ``None``).
    gate_sizing:
        Optional :class:`repro.core.gate_sizing.GateSizingPolicy`;
        resizes cells instead of snaking wire on unbalanced merges.
    """
    with get_tracer().span("topology.gated", n=len(sinks)):
        merger = BottomUpMerger(
            sinks=sinks,
            tech=tech,
            cost=incremental_switched_capacitance_cost,
            cell_policy=cell_policy or GateEveryEdgePolicy(),
            oracle=oracle,
            controller_point=controller_point,
            candidate_limit=candidate_limit,
            cell_sizer=gate_sizing,
            skew_bound=skew_bound,
        )
        return merger.run()
