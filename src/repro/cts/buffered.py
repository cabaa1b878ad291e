"""The buffered zero-skew clock tree -- the paper's comparison baseline.

Section 5.1: "The buffered clock tree is constructed using the nearest
neighbor heuristic and the size of a buffer is assumed to be half the
size of AND-gates."  Every edge carries a buffer; buffers are never
masked, so the whole tree switches every cycle.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.activity.probability import ActivityOracle
from repro.cts.dme import BottomUpMerger, BufferEveryEdgePolicy, nearest_neighbor_cost
from repro.cts.topology import ClockTree, Sink
from repro.obs import get_tracer
from repro.tech.parameters import Technology


def build_buffered_tree(
    sinks: Sequence[Sink],
    tech: Technology,
    oracle: Optional[ActivityOracle] = None,
    candidate_limit: Optional[int] = None,
    skew_bound: float = 0.0,
) -> ClockTree:
    """Nearest-neighbour zero-skew tree with a buffer on every edge.

    ``oracle`` is optional and only annotates nodes with activity
    statistics (handy for side-by-side reporting); it does not affect
    the construction, since buffers ignore activity.
    """
    with get_tracer().span("topology.buffered", n=len(sinks)):
        merger = BottomUpMerger(
            sinks=sinks,
            tech=tech,
            cost=nearest_neighbor_cost,
            cell_policy=BufferEveryEdgePolicy(),
            oracle=oracle,
            candidate_limit=candidate_limit,
            skew_bound=skew_bound,
        )
        return merger.run()
