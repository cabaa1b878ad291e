"""Clock-tree synthesis substrate.

This package contains everything a *conventional* zero-skew clock
router needs -- and on top of which the paper's gated router
(:mod:`repro.core`) is built:

* :mod:`repro.cts.topology` -- sinks, tree nodes, the embedded clock
  tree container;
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
  (``plan_merge`` / ``commit_merge``) is shared with the shard stitch;
* :mod:`repro.cts.candidate_index` -- the uniform-grid spatial index
  answering the merger's k-nearest-candidate queries;
* :mod:`repro.cts.nearest_neighbor` -- the nearest-neighbour pair cost
  (Edahiro-style), used by the baseline;
* :mod:`repro.cts.buffered` -- the buffered zero-skew clock tree the
  paper compares against.
"""

from repro.cts.topology import ClockNode, ClockTree, Sink
from repro.cts.merge import SkewBalanceError, SplitResult, Tap, zero_skew_split
from repro.cts.candidate_index import SegmentGridIndex
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
    "SegmentGridIndex",
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
