"""Nearest-neighbour topology generation (baseline greedy).

The paper's baseline follows Edahiro's heuristic: repeatedly merge the
two subtrees whose merging segments are geometrically closest.  The
implementation is the generic engine of :mod:`repro.cts.dme` with the
distance cost; this module only gives the combination a name and a
couple of convenience wrappers.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.activity.probability import ActivityOracle
from repro.cts.dme import (
    BottomUpMerger,
    CellPolicy,
    NoCellPolicy,
    nearest_neighbor_cost,
)
from repro.cts.topology import ClockTree, Sink
from repro.obs import get_tracer
from repro.tech.parameters import Technology


def build_nearest_neighbor_tree(
    sinks: Sequence[Sink],
    tech: Technology,
    cell_policy: Optional[CellPolicy] = None,
    oracle: Optional[ActivityOracle] = None,
    candidate_limit: Optional[int] = None,
    skew_bound: float = 0.0,
) -> ClockTree:
    """Zero-skew tree with nearest-neighbour merge order.

    ``cell_policy`` defaults to plain wires; pass
    :class:`~repro.cts.dme.BufferEveryEdgePolicy` for the paper's
    buffered baseline or :class:`~repro.cts.dme.GateEveryEdgePolicy`
    for a gated tree whose *topology* ignores activity (useful in
    ablations).
    """
    with get_tracer().span("topology.nearest_neighbor", n=len(sinks)):
        merger = BottomUpMerger(
            sinks=sinks,
            tech=tech,
            cost=nearest_neighbor_cost,
            cell_policy=cell_policy or NoCellPolicy(),
            oracle=oracle,
            candidate_limit=candidate_limit,
            skew_bound=skew_bound,
        )
        return merger.run()
