"""Clock-tree synthesis substrate.

This package contains everything a *conventional* zero-skew clock
router needs -- and on top of which the paper's gated router
(:mod:`repro.core`) is built:

* :mod:`repro.cts.topology` -- sinks, tree nodes, the embedded clock
  tree container, and the two per-node terms of the paper's Eq. 3
  (``ClockTree.clock_term`` for W(T), ``star_term`` for W(S));
* :mod:`repro.cts.merge` -- Tsay-style exact zero-skew merging,
  generalized to edges that carry decoupling cells (buffers or masking
  gates), including wire snaking;
* :mod:`repro.cts.reembed` -- fixed-topology re-embedding of a given
  topology (bisection) and the ``rebalance`` node step it loops over
  (refine's root-path repair);
* :mod:`repro.cts.dme` -- the deferred-merge embedding engine: a
  generic greedy bottom-up merger with a pluggable pair cost and cell
  policy, followed by top-down placement of merging segments; one
  exact screen prices every candidate batch, and the merge step
  (``plan_merge`` / ``commit_merge``) is shared with the shard stitch.
  Its default cost, ``nearest_neighbor_cost`` (Edahiro-style: merge the
  closest pair), on plain wire gives the nearest-neighbour baseline;
* :mod:`repro.cts.candidate_index` -- the bounding-box block index
  answering the merger's k-nearest-candidate queries a batch at a
  time, with the exact distances its screen reuses;
* :mod:`repro.cts.buffered` -- the buffered zero-skew clock tree the
  paper compares against.
"""

from repro.cts.topology import ClockNode, ClockTree, Sink
from repro.cts.merge import SkewBalanceError, SplitResult, Tap, zero_skew_split
from repro.cts.candidate_index import SegmentBlockIndex
from repro.cts.dme import BottomUpMerger, CellDecision, MergePlan, MergerStats
from repro.cts.buffered import build_buffered_tree
from repro.cts.reembed import reembed
from repro.cts.refine import AnnealingRefiner, RefineConfig, RefineResult, refine_tree

__all__ = [
    "AnnealingRefiner",
    "RefineConfig",
    "RefineResult",
    "refine_tree",
    "ClockNode",
    "ClockTree",
    "Sink",
    "SegmentBlockIndex",
    "SkewBalanceError",
    "SplitResult",
    "Tap",
    "zero_skew_split",
    "BottomUpMerger",
    "CellDecision",
    "MergePlan",
    "MergerStats",
    "build_buffered_tree",
    "reembed",
]
