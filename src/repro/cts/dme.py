"""Deferred-merge embedding with a pluggable greedy objective.

The engine implements the construction shared by the paper's router and
the baselines:

1. **Bottom-up merging** (paper Fig. 2): every subtree root carries a
   merging segment (Manhattan arc).  A greedy loop repeatedly merges
   the pair of active subtrees with minimum *cost*; the cost function
   is a parameter -- geometric distance gives the nearest-neighbour
   baseline, the paper's Eq. 3 gives the min-switched-capacitance
   router.  Each merge performs an exact zero-skew split (with cells
   decided by a pluggable *cell policy*) and computes the new merging
   segment.
2. **Top-down placement**: the root is embedded at the center of its
   merging segment, every child at the point of its own segment
   nearest to its parent's placement.

The greedy pair selection keeps, per active subtree, its current best
partner; a lazy min-heap orders the candidates.  This gives the exact
greedy (same result as scanning all pairs each round) in roughly
O(N^2) cost evaluations.  An optional ``candidate_limit`` restricts
each node's candidates to its k geometrically nearest neighbours,
answered by a uniform grid
(:class:`repro.cts.candidate_index.SegmentGridIndex`) -- the
speed/quality trade-off explored in the ablation bench.

One screen evaluates every candidate set.  The candidates of a node
form a :class:`PairLanes` batch of oriented pairs; the cell policy
decides both new edges of every lane at once
(:meth:`CellPolicy.decide`), the NumPy kernels of
:mod:`repro.cts.kernels` split them, and the cost's
:meth:`PairCost.batch` prices them; one ``(cost, id)`` ranking then
picks the best partner.  The kernels mirror the scalar float
arithmetic op for op, so every lane equals the scalar plan and cost of
its pair bit for bit.  Lanes the kernels do not model -- snaked splits,
re-sized by the cell sizer when one is set -- take their split from
the scalar :meth:`BottomUpMerger.plan` for that lane and are priced in
the same batch.  Those plans are memoized per *ordered* pair until
either side retires, and the winning merge is planned through the same
memo at commit.

Exact-greedy runs (no ``candidate_limit``) repair orphaned best-pair
pointers *lazily*: pair costs are immutable and an orphan's candidate
set only shrinks until its entry pops, so the stale heap entry's cost
can only underestimate the node's true current best and the recompute
safely waits for :meth:`_pop_valid_pair`'s partner-inactive branch.
``candidate_limit`` runs keep the eager per-merge repair -- their
k-nearest candidate snapshots are time-sensitive.

:class:`MergerStats` counts plans, cache hits, heap traffic, index
queries, kernel batches and lane fallbacks.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.activity.probability import ActivityOracle
from repro.check.errors import InputError, InternalInvariantError
from repro.cts import kernels
from repro.cts.candidate_index import SegmentGridIndex
from repro.obs import (
    get_registry,
    get_tracer,
    publish_index_stats,
    publish_merger_stats,
)
from repro.cts.merge import SplitResult, Tap, merge_regions, zero_skew_split
from repro.cts.topology import ClockNode, ClockTree, Sink
from repro.geometry.point import Point
from repro.quantity import LengthUm, Probability
from repro.tech.parameters import GateModel, Technology


@dataclass(frozen=True)
class CellDecision:
    """What to put at the top of a new edge."""

    cell: Optional[GateModel]
    maskable: bool = False

    def __post_init__(self):
        if self.maskable and self.cell is None:
            raise InputError("a maskable edge needs a gate cell", field="cell")


class CellPolicy:
    """Decides the cell on each new edge during bottom-up merging.

    A policy picks from a fixed set of decisions, :meth:`cells`.  With
    a single decision there is nothing to decide; otherwise
    :meth:`decide` maps whole batches of edges to indices into that
    set.  It must be an elementwise pure function of its arguments: the
    merger evaluates it over candidate batches and again, one lane at a
    time, when it plans a merge, and the two must agree.
    """

    def cells(self, tech: Technology) -> Tuple[CellDecision, ...]:
        raise NotImplementedError

    def decide(
        self,
        enable_probability,
        subtree_cap,
        distance,
        merged_probability,
        tech: Technology,
    ):
        """Index into :meth:`cells` of every edge (arrays or scalars).

        ``enable_probability`` and ``subtree_cap`` describe the child
        below each new edge, ``distance`` is the merging distance and
        ``merged_probability`` the merged node's ``P(EN)`` (``None``
        without an activity oracle).
        """
        return 0


def decide_edge(
    policy: CellPolicy,
    cells: Sequence[CellDecision],
    child: ClockNode,
    merged_probability: Optional[Probability],
    distance: LengthUm,
    tech: Technology,
) -> CellDecision:
    """One-lane :meth:`CellPolicy.decide`: the decision from ``cells``
    (the policy's :meth:`~CellPolicy.cells`) for the new edge above
    ``child``."""
    if len(cells) == 1:
        return cells[0]
    code = policy.decide(
        child.enable_probability, child.subtree_cap, distance, merged_probability, tech
    )
    return cells[int(code)]


class NoCellPolicy(CellPolicy):
    """Plain wires everywhere (unbuffered Tsay/DME tree)."""

    def cells(self, tech: Technology) -> Tuple[CellDecision, ...]:
        return (CellDecision(cell=None),)


class BufferEveryEdgePolicy(CellPolicy):
    """The baseline's buffer on every edge (never maskable)."""

    def cells(self, tech: Technology) -> Tuple[CellDecision, ...]:
        return (CellDecision(cell=tech.buffer, maskable=False),)


class GateEveryEdgePolicy(CellPolicy):
    """The paper's default: a masking gate on every edge."""

    def cells(self, tech: Technology) -> Tuple[CellDecision, ...]:
        return (CellDecision(cell=tech.masking_gate, maskable=True),)


class EdgeCells:
    """Per-lane cell decisions on one side of a batch of merges.

    Plain-wire lanes carry ``celled=False`` and zero drive resistance,
    intrinsic delay and input capacitance -- exactly the terms the
    split kernel's cell-free float chain uses.
    """

    __slots__ = (
        "maskable",
        "celled",
        "drive_resistance",
        "intrinsic_delay",
        "input_cap",
    )

    _DTYPES = (bool, bool, float, float, float)

    def __init__(self, decisions: Sequence[CellDecision]):
        columns = zip(*(self._row(d) for d in decisions))
        for name, dtype, column in zip(self.__slots__, self._DTYPES, columns):
            setattr(self, name, np.array(column, dtype=dtype))

    @staticmethod
    def _row(decision: CellDecision) -> tuple:
        cell = decision.cell
        if cell is None:
            return decision.maskable, False, 0.0, 0.0, 0.0
        return (
            decision.maskable,
            True,
            cell.drive_resistance,
            cell.intrinsic_delay,
            cell.input_cap,
        )

    def take(self, codes) -> "EdgeCells":
        """The decisions at ``codes`` (indices into this set), per lane."""
        out = EdgeCells.__new__(EdgeCells)
        for name in self.__slots__:
            setattr(out, name, getattr(self, name)[codes])
        return out

    def put(self, lane: int, decision: CellDecision) -> None:
        """Overwrite one lane's decision."""
        for name, value in zip(self.__slots__, self._row(decision)):
            getattr(self, name)[lane] = value


@dataclass
class MergePlan:
    """Everything known about a candidate merge before committing it."""

    a_id: int
    b_id: int
    distance: LengthUm
    decision_a: CellDecision
    decision_b: CellDecision
    split: SplitResult
    merged_mask: int
    merged_probability: Optional[Probability]


def annotate_enable(node: ClockNode, oracle: Optional[ActivityOracle]) -> None:
    """Set ``P(EN)`` / ``P_tr(EN)`` of the node's module set (no-op
    without an oracle: the node stays always-on)."""
    if oracle is None:
        return
    stats = oracle.statistics(node.module_mask)
    node.enable_probability = stats.signal_probability
    node.enable_transition_probability = stats.transition_probability


def plan_merge(
    na: ClockNode,
    nb: ClockNode,
    policy: CellPolicy,
    cells: Sequence[CellDecision],
    oracle: Optional[ActivityOracle],
    tech: Technology,
    distance: Optional[LengthUm] = None,
) -> MergePlan:
    """Plan the merge of two subtree roots: the cells of both new edges
    (``cells`` is the policy's :meth:`~CellPolicy.cells`) and the
    zero-skew split of their merging distance."""
    if distance is None:
        distance = na.merging_segment.distance_to(nb.merging_segment)
    merged_mask = na.module_mask | nb.module_mask
    merged_probability = None
    if oracle is not None:
        merged_probability = oracle.signal_probability(merged_mask)
    decision_a, decision_b = (
        decide_edge(policy, cells, node, merged_probability, distance, tech)
        for node in (na, nb)
    )
    tap_a = Tap(cap=na.subtree_cap, delay=na.sink_delay, cell=decision_a.cell)
    tap_b = Tap(cap=nb.subtree_cap, delay=nb.sink_delay, cell=decision_b.cell)
    return MergePlan(
        a_id=na.id,
        b_id=nb.id,
        distance=distance,
        decision_a=decision_a,
        decision_b=decision_b,
        split=zero_skew_split(distance, tap_a, tap_b, tech),
        merged_mask=merged_mask,
        merged_probability=merged_probability,
    )


def commit_merge(
    tree: ClockTree, plan: MergePlan, oracle: Optional[ActivityOracle]
) -> ClockNode:
    """Create the internal node of a planned merge in ``tree``."""
    na, nb = tree.node(plan.a_id), tree.node(plan.b_id)
    region = merge_regions(na.merging_segment, nb.merging_segment, plan.split)
    merged = tree.add_internal(plan.a_id, plan.b_id, region)
    na.edge_length = plan.split.length_a
    na.edge_cell = plan.decision_a.cell
    na.edge_maskable = plan.decision_a.maskable
    na.snaked = plan.split.snaked == "a"
    nb.edge_length = plan.split.length_b
    nb.edge_cell = plan.decision_b.cell
    nb.edge_maskable = plan.decision_b.maskable
    nb.snaked = plan.split.snaked == "b"
    merged.module_mask = plan.merged_mask
    merged.subtree_cap = plan.split.merged_cap
    merged.sink_delay = plan.split.delay
    annotate_enable(merged, oracle)
    return merged


_UNSET = object()


class PairLanes:
    """A batch of candidate merges ``(a[j], b[j])``, one pair per lane.

    ``a`` and ``b`` are node-id arrays -- every per-node quantity sits
    in the merger's :attr:`BottomUpMerger.node_arrays` row of that id
    -- and ``distance`` holds the merging distances.  What a cost may
    read beyond that is derived on first use, so each cost pays only
    for what it reads: :attr:`merged_probability` and the cells and
    lengths of both new edges (:attr:`edges`).
    """

    def __init__(self, merger: "BottomUpMerger", a, b, distance, edges=None):
        self.merger = merger
        self.a = a
        self.b = b
        self.distance = distance
        self._edges = edges
        self._merged_probability: object = _UNSET

    @property
    def merged_probability(self):
        """``P(EN)`` of each lane's merged module set (``None`` without
        an oracle)."""
        if self._merged_probability is _UNSET:
            self._merged_probability = self.merger._merged_probabilities(
                self.a, self.b
            )
        return self._merged_probability

    @property
    def edges(self) -> Tuple[Tuple[EdgeCells, np.ndarray], ...]:
        """``((cells_a, length_a), (cells_b, length_b))``: the cell
        decisions and zero-skew lengths of each lane's two new edges."""
        if self._edges is None:
            self._edges = self.merger._split_lanes(self)
        return self._edges


class PairCost:
    """A greedy merge objective.

    :meth:`batch` is the only implementation: the merger calls it on
    whole candidate batches, and one planned merge is a one-lane batch
    (:meth:`__call__`).  Lanes are independent, read node state from
    ``merger.node_arrays`` by id, and must price the pair in its lane
    orientation exactly as its scalar plan would.
    """

    def batch(self, merger: "BottomUpMerger", lanes: PairLanes) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, plan: MergePlan, merger: "BottomUpMerger") -> float:
        """The cost of one planned merge."""
        return float(self.batch(merger, merger.plan_lanes(plan))[0])


class NearestNeighborCost(PairCost):
    """Geometric distance between merging segments (Edahiro-style)."""

    def batch(self, merger, lanes):
        return lanes.distance


nearest_neighbor_cost = NearestNeighborCost()


@dataclass
class MergerStats:
    """Counters of the greedy engine's work, for benches and reports.

    ``plans_computed`` is the number of full :meth:`BottomUpMerger.plan`
    evaluations (scalar split + cell decisions); ``plan_cache_hits``
    the plan requests the memo answered instead.

    The kernel counters track the screens: ``kernel_batches`` batched
    distance evaluations, ``kernel_candidates`` the candidate lanes
    they covered, and ``kernel_scalar_fallbacks`` lanes whose split
    came from a scalar plan because the kernels do not model them
    (snaked splits).  ``distance_reuses`` counts ``plan()`` calls that
    received an already-measured segment distance instead of
    re-deriving it.

    The repair counters split best-pair recomputations by trigger:
    ``orphan_recomputes`` eager per-merge repairs of nodes whose best
    partner retired (``candidate_limit`` runs), ``repair_recomputes``
    lazy repairs taken when a stale best pair actually popped from the
    heap (exact-greedy runs).
    """

    plans_computed: int = 0
    plan_cache_hits: int = 0
    heap_pops: int = 0
    stale_entries: int = 0
    index_queries: int = 0
    distance_reuses: int = 0
    kernel_batches: int = 0
    kernel_candidates: int = 0
    kernel_scalar_fallbacks: int = 0
    orphan_recomputes: int = 0
    repair_recomputes: int = 0

    @property
    def cost_probes(self) -> int:
        """Plan requests answered (computed or cached)."""
        return self.plans_computed + self.plan_cache_hits

    def snapshot(self) -> Dict[str, int]:
        """Stable-key dict of every counter (plus derived totals).

        The keys are a public contract: the metrics registry
        (:func:`repro.obs.publish_merger_stats`, hence the RunRecord)
        and the benches read this instead of the attributes.
        """
        return {
            "plans_computed": self.plans_computed,
            "plan_cache_hits": self.plan_cache_hits,
            "heap_pops": self.heap_pops,
            "stale_entries": self.stale_entries,
            "index_queries": self.index_queries,
            "distance_reuses": self.distance_reuses,
            "kernel_batches": self.kernel_batches,
            "kernel_candidates": self.kernel_candidates,
            "kernel_scalar_fallbacks": self.kernel_scalar_fallbacks,
            "orphan_recomputes": self.orphan_recomputes,
            "repair_recomputes": self.repair_recomputes,
            "cost_probes": self.cost_probes,
        }


logger = logging.getLogger(__name__)


class BottomUpMerger:
    """Greedy bottom-up zero-skew merger with top-down embedding.

    Parameters
    ----------
    sinks:
        The clock sinks (at least one).
    tech:
        Technology constants.
    cost:
        Pair cost; the next merge is always a currently cheapest pair.
    cell_policy:
        Decides buffers/gates on new edges.
    oracle:
        Activity oracle; when given, every node is annotated with
        ``P(EN)`` / ``P_tr(EN)`` of its module set.  Without it all
        nodes behave as always-on (baseline trees).
    controller_point:
        Location of the gate controller, for costs that include
        controller-wiring terms.  Defaults to the sink bounding-box
        center (the paper's "center of the chip").
    candidate_limit:
        Optional k-nearest-neighbour candidate restriction.
    cell_sizer:
        Optional sizing hook (e.g.
        :class:`repro.core.gate_sizing.GateSizingPolicy`): given a
        merge whose unit-size split snakes, it may resize the new
        edges' cells to balance the delays with less wire.
    """

    def __init__(
        self,
        sinks: Sequence[Sink],
        tech: Technology,
        cost: PairCost = nearest_neighbor_cost,
        cell_policy: Optional[CellPolicy] = None,
        oracle: Optional[ActivityOracle] = None,
        controller_point: Optional[Point] = None,
        candidate_limit: Optional[int] = None,
        cell_sizer=None,
    ):
        if not sinks:
            raise InputError("at least one sink is required")
        if candidate_limit is not None and candidate_limit < 1:
            raise InputError(
                "candidate_limit must be positive", field="candidate_limit"
            )
        self.tech = tech
        self.cost = cost
        self.cell_policy = cell_policy or NoCellPolicy()
        self.oracle = oracle
        self.candidate_limit = candidate_limit
        self.cell_sizer = cell_sizer
        self._cells = self.cell_policy.cells(tech)
        self._cell_table = EdgeCells(self._cells)
        self.stats = MergerStats()
        self._plan_cache: Dict[Tuple[int, int], MergePlan] = {}
        self._plan_partners: Dict[int, Set[int]] = {}
        self.tree = ClockTree(tech)
        for sink in sinks:
            annotate_enable(self.tree.add_leaf(sink), oracle)
        if controller_point is None:
            xs = [s.location.x for s in sinks]
            ys = [s.location.y for s in sinks]
            controller_point = Point(
                (min(xs) + max(xs)) / 2.0, (min(ys) + max(ys)) / 2.0
            )
        self.controller_point = controller_point
        self._active: Set[int] = set(range(len(sinks)))
        # nid -> (cost, partner, generation, distance) of its best pair.
        self._best: Dict[int, Tuple[float, int, int, float]] = {}
        self._reverse: Dict[int, Set[int]] = {}
        self._heap: List[Tuple[float, int, int]] = []
        self._generation = 0
        capacity = 2 * len(sinks) - 1
        # Activation signatures ride in an int64 column up to 63 ISA
        # instructions and in Python ints (object dtype) beyond.
        wide = oracle is not None and oracle.signature_bits > 63
        self.node_arrays = kernels.NodeArrays(capacity, wide_signatures=wide)
        """Struct-of-arrays mirror (:class:`repro.cts.kernels.NodeArrays`)
        of every node's merge state; costs read candidate rows by id."""
        for nid in range(len(sinks)):
            self._set_row(self.tree.node(nid))
        self._active_ids = kernels.ActiveIds(range(len(sinks)), capacity)
        self._index: Optional[SegmentGridIndex] = None
        if candidate_limit is not None and len(sinks) > 1:
            self._index = SegmentGridIndex(self._index_cell_size(sinks))
            for nid in self._active:
                self._index.insert(nid, self.tree.node(nid).merging_segment)
        # Exact-greedy runs repair orphaned best pairs lazily at pop
        # time (see the module docstring); candidate_limit runs must
        # stay eager because their k-nearest candidate snapshots are
        # taken relative to the *current* active set.
        self._eager_repair = candidate_limit is not None
        self.merge_trace: List[Tuple[int, int, int]] = []
        """(left, right, merged) triples, in merge order -- for tests."""

    @staticmethod
    def _index_cell_size(sinks: Sequence[Sink]) -> float:
        """Grid pitch near the expected nearest-neighbour spacing."""
        us = [s.location.u for s in sinks]
        vs = [s.location.v for s in sinks]
        span = max(max(us) - min(us), max(vs) - min(vs))
        if span <= 0.0:
            return 1.0
        return span / max(1.0, math.sqrt(len(sinks)))

    def _set_row(self, node: ClockNode) -> None:
        """Mirror a node's merge state, activation signature and
        enable-star length (controller to merging-segment center)."""
        sig = 0
        if self.oracle is not None:
            sig = self.oracle.activation_signature(node.module_mask)
        star = self.controller_point.manhattan_to(node.merging_segment.center())
        self.node_arrays.set_row(node.id, node, sig=sig, star=star)

    # ------------------------------------------------------------------
    # planning and executing a single merge
    # ------------------------------------------------------------------
    def plan(
        self, a_id: int, b_id: int, distance: Optional[float] = None
    ) -> MergePlan:
        """Evaluate the merge of two active subtrees without committing.

        ``distance`` threads an already-measured segment distance (from
        a candidate screen) so the plan does not re-derive it.
        ``Trr.distance_to`` is symmetric at the bit level -- the
        interval-gap arguments merely swap under ``max`` -- so a
        measurement taken in either pair orientation is exact.
        """
        self.stats.plans_computed += 1
        if distance is not None:
            self.stats.distance_reuses += 1
        na, nb = self.tree.node(a_id), self.tree.node(b_id)
        plan = plan_merge(
            na,
            nb,
            self.cell_policy,
            self._cells,
            self.oracle,
            self.tech,
            distance,
        )
        if self.cell_sizer is not None and plan.split.snaked is not None:
            plan.decision_a, plan.decision_b, plan.split = self.cell_sizer.resolve(
                plan.distance,
                na.subtree_cap,
                na.sink_delay,
                plan.decision_a,
                nb.subtree_cap,
                nb.sink_delay,
                plan.decision_b,
                self.tech,
                plan.split,
            )
        return plan

    def _plan_pair(
        self, a_id: int, b_id: int, distance: Optional[float] = None
    ) -> MergePlan:
        """:meth:`plan` through the memo.

        Keys are *ordered* pairs: ``plan(a, b)`` and ``plan(b, a)``
        agree to rounding but not bit-for-bit (the split solves for the
        other side's edge first), and a cache must never change any
        float an uncached call would have produced.
        """
        key = (a_id, b_id)
        cached = self._plan_cache.get(key)
        if cached is not None:
            self.stats.plan_cache_hits += 1
            return cached
        plan = self.plan(a_id, b_id, distance)
        self._plan_cache[key] = plan
        self._plan_partners.setdefault(a_id, set()).add(b_id)
        self._plan_partners.setdefault(b_id, set()).add(a_id)
        return plan

    def _invalidate_plans(self, nid: int) -> None:
        """Drop every cached plan involving a retired node."""
        partners = self._plan_partners.pop(nid, None)
        if not partners:
            return
        for other in partners:
            self._plan_cache.pop((nid, other), None)
            self._plan_cache.pop((other, nid), None)
            remaining = self._plan_partners.get(other)
            if remaining is not None:
                remaining.discard(nid)
                if not remaining:
                    del self._plan_partners[other]

    def execute(self, plan: MergePlan) -> ClockNode:
        """Commit a planned merge: create the internal node."""
        merged = commit_merge(self.tree, plan, self.oracle)
        self._set_row(merged)
        self.merge_trace.append((plan.a_id, plan.b_id, merged.id))
        return merged

    # ------------------------------------------------------------------
    # the candidate screen
    # ------------------------------------------------------------------
    def plan_lanes(self, plan: MergePlan) -> PairLanes:
        """One planned merge as a one-lane batch."""
        edges = tuple(
            (EdgeCells((decision,)), np.array([length]))
            for decision, length in (
                (plan.decision_a, plan.split.length_a),
                (plan.decision_b, plan.split.length_b),
            )
        )
        return PairLanes(
            self,
            np.array([plan.a_id]),
            np.array([plan.b_id]),
            np.array([plan.distance]),
            edges=edges,
        )

    def _merged_probabilities(self, a, b):
        """Batched ``P(EN)`` of each lane's union module set.

        Signatures of mask unions are bitwise ORs of the per-node
        signatures, and the oracle answers them through the same memo
        its scalar lookups use, so every lane is bit-identical to
        ``oracle.signal_probability(mask_a | mask_b)``.
        """
        if self.oracle is None:
            return None
        sig = self.node_arrays.sig
        return self.oracle.batch_probabilities(sig[a] | sig[b])

    def _split_lanes(self, lanes: PairLanes):
        """Cells and zero-skew lengths of every lane's two new edges."""
        arrays = self.node_arrays
        a, b, distance = lanes.a, lanes.b, lanes.distance
        n = distance.size
        codes = np.zeros(2 * n, dtype=np.intp)
        if len(self._cells) > 1:
            # Both sides in one call: lanes (a[j], .) then (b[j], .).
            ids = np.concatenate((a, b))
            merged = lanes.merged_probability
            codes = np.asarray(
                self.cell_policy.decide(
                    arrays.enable_p[ids],
                    arrays.cap[ids],
                    np.concatenate((distance, distance)),
                    None if merged is None else np.concatenate((merged, merged)),
                    self.tech,
                ),
                dtype=np.intp,
            )
        cells_a, cells_b = self._cell_table.take(codes[:n]), self._cell_table.take(codes[n:])
        split = kernels.batch_zero_skew_split(
            distance,
            arrays.cap[a],
            arrays.delay[a],
            arrays.cap[b],
            arrays.delay[b],
            self.tech.unit_wire_resistance,
            self.tech.unit_wire_capacitance,
            cell_a=cells_a,
            cell_b=cells_b,
        )
        length_a, length_b = split.length_a, split.length_b
        for j in kernels.out_of_range_lanes(split):
            plan = self._plan_pair(int(a[j]), int(b[j]), distance=float(distance[j]))
            length_a[j], length_b[j] = plan.split.length_a, plan.split.length_b
            if self.cell_sizer is not None:
                # Only the sizer re-decides cells; the policy's one-lane
                # decisions equal the batched ones.
                cells_a.put(j, plan.decision_a)
                cells_b.put(j, plan.decision_b)
            self.stats.kernel_scalar_fallbacks += 1
        return (cells_a, length_a), (cells_b, length_b)

    def _distances(self, segment, ids):
        """Batched ``Trr.distance_to`` from ``segment`` to each node id."""
        self.stats.kernel_batches += 1
        self.stats.kernel_candidates += int(ids.size)
        arrays = self.node_arrays
        return kernels.batch_segment_distance(
            segment.ulo,
            segment.uhi,
            segment.vlo,
            segment.vhi,
            arrays.ulo[ids],
            arrays.uhi[ids],
            arrays.vlo[ids],
            arrays.vhi[ids],
        )

    def _index_distances(self, segment, ids) -> List[float]:
        """``batch_distance`` hook of :meth:`SegmentGridIndex.nearest`."""
        return self._distances(segment, kernels.as_id_array(ids)).tolist()

    def _candidates(self, nid: int):
        """Candidate partner ids of ``nid`` (k nearest with a limit)."""
        others = self._active_ids.others(nid)
        limit = self.candidate_limit
        if limit is None or others.size <= limit:
            return others
        self.stats.index_queries += 1
        return kernels.as_id_array(
            self._index.nearest(
                self.tree.node(nid).merging_segment,
                limit,
                exclude=nid,
                batch_distance=self._index_distances,
            )
        )

    def _screen(self, nid: int, ids, canonical: bool = False):
        """Exact ``(costs, distances)`` of merging ``nid`` with each
        candidate id.

        Lanes pair ``(nid, other)``; ``canonical`` orients every pair
        ``(min id, max id)`` instead -- the orientation of an all-pairs
        scan, which the exact-greedy initialization reproduces
        (``plan(a, b)`` and ``plan(b, a)`` agree only to rounding).
        """
        distance = self._distances(self.tree.node(nid).merging_segment, ids)
        if canonical:
            low = ids < nid
            a, b = np.where(low, ids, nid), np.where(low, nid, ids)
        else:
            a, b = np.full_like(ids, nid), ids
        return self.cost.batch(self, PairLanes(self, a, b, distance)), distance

    # ------------------------------------------------------------------
    # greedy pair selection
    # ------------------------------------------------------------------
    def _set_best(
        self, nid: int, cost: float, partner: int, distance: float
    ) -> None:
        old = self._best.get(nid)
        if old is not None:
            self._reverse.get(old[1], set()).discard(nid)
        self._generation += 1
        self._best[nid] = (cost, partner, self._generation, distance)
        self._reverse.setdefault(partner, set()).add(nid)
        heapq.heappush(self._heap, (cost, nid, self._generation))

    def _recompute_best(self, nid: int, canonical: bool = False) -> None:
        """Re-screen a node's candidates for its cheapest partner,
        ranked by ``(cost, id)``."""
        ids = self._candidates(nid)
        if ids.size == 0:
            self._best.pop(nid, None)
            return
        costs, distance = self._screen(nid, ids, canonical=canonical)
        j = int(kernels.rank_by_cost(ids, costs)[0])
        self._set_best(nid, float(costs[j]), int(ids[j]), float(distance[j]))

    def _initialize_best(self) -> None:
        canonical = self.candidate_limit is None
        for nid in sorted(self._active):
            self._recompute_best(nid, canonical=canonical)

    def _pop_valid_pair(self) -> Tuple[int, int, float]:
        while self._heap:
            cost, nid, generation = heapq.heappop(self._heap)
            self.stats.heap_pops += 1
            if nid not in self._active:
                self.stats.stale_entries += 1
                continue
            current = self._best.get(nid)
            if current is None or current[2] != generation:
                self.stats.stale_entries += 1
                continue  # superseded by a newer _set_best
            partner = current[1]
            if partner not in self._active:
                # Lazy repair: the stale entry's cost never exceeded
                # this node's true current best, so it could not have
                # won a pop over any valid pair (module docstring).
                self.stats.repair_recomputes += 1
                self._recompute_best(nid)
                continue
            return nid, partner, current[3]
        # The merge loop always leaves >= 2 active nodes with mutual
        # best pointers; an empty heap here means the bookkeeping
        # (generation counters, reverse pointers) broke mid-run.
        survivor = min(self._active) if self._active else None
        raise InternalInvariantError(
            "no mergeable pair left among %d active node(s) "
            "(best-pair heap drained; internal error)" % len(self._active),
            node=survivor,
        )

    def _retire(self, nid: int) -> Set[int]:
        """Deactivate a node; return nodes that pointed at it."""
        self._active.discard(nid)
        self._active_ids.discard(nid)
        self._best.pop(nid, None)
        self._invalidate_plans(nid)
        if self._index is not None and nid in self._index:
            self._index.remove(nid)
        return self._reverse.pop(nid, set())

    def _introduce(self, merged_id: int) -> None:
        """Register a new subtree and refresh neighbours' best pairs.

        Every neighbour adopts the new node when ``(cost, merged_id)``
        beats its current best; the resulting heap outcomes do not
        depend on the update order (generation staleness).
        """
        ids = self._candidates(merged_id)
        best = None
        if ids.size:
            costs, distance = self._screen(merged_id, ids)
            for other, cost, d in zip(ids.tolist(), costs.tolist(), distance.tolist()):
                current = self._best.get(other)
                if current is None or (cost, merged_id) < (current[0], current[1]):
                    self._set_best(other, cost, merged_id, d)
            j = int(kernels.rank_by_cost(ids, costs)[0])
            best = float(costs[j]), int(ids[j]), float(distance[j])
        self._active.add(merged_id)
        self._active_ids.add(merged_id)
        if self._index is not None:
            self._index.insert(merged_id, self.tree.node(merged_id).merging_segment)
        if best is not None:
            self._set_best(merged_id, *best)

    # ------------------------------------------------------------------
    # the full flow
    # ------------------------------------------------------------------
    def run(self) -> ClockTree:
        """Build the tree: greedy bottom-up merge, then top-down embed."""
        num_sinks = len(self._active)
        cost_name = type(self.cost).__name__
        logger.debug(
            "merging %d sinks (cost=%s, policy=%s, candidate_limit=%s)",
            num_sinks,
            cost_name,
            type(self.cell_policy).__name__,
            self.candidate_limit,
        )
        tracer = get_tracer()
        with tracer.span(
            "dme.merge",
            n=num_sinks,
            cost=cost_name,
            policy=type(self.cell_policy).__name__,
            candidate_limit=self.candidate_limit,
        ):
            if num_sinks == 1:
                (only,) = self._active
                self.tree.set_root(only)
                with tracer.span("dme.embed"):
                    self.tree.place()
                return self.tree
            with tracer.span("dme.init_best", n=num_sinks):
                self._initialize_best()
            get_registry().counter("dme.init_best.runs").inc()
            with tracer.span("dme.merge_loop"):
                while len(self._active) > 1:
                    a_id, b_id, distance = self._pop_valid_pair()
                    plan = self._plan_pair(a_id, b_id, distance)
                    merged = self.execute(plan)
                    orphans = (self._retire(a_id) | self._retire(b_id)) & self._active
                    self._introduce(merged.id)
                    if self._eager_repair:
                        for orphan in orphans:
                            current = self._best.get(orphan)
                            if current is None or current[1] not in self._active:
                                self.stats.orphan_recomputes += 1
                                self._recompute_best(orphan)
            (root,) = self._active
            self.tree.set_root(root)
            with tracer.span("dme.embed"):
                self.tree.place()
            publish_merger_stats(self.stats)
            publish_index_stats(self._index)
        if logger.isEnabledFor(logging.DEBUG):
            # Guarded: these arguments walk the whole tree.
            logger.debug(
                "tree built: wirelength %.4g, %d gates, root delay %.4g",
                self.tree.total_wirelength(),
                self.tree.gate_count(),
                self.tree.root.sink_delay,
            )
        return self.tree
