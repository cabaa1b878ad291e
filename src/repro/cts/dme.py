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
answered by a bounding-box block index
(:class:`repro.cts.candidate_index.SegmentBlockIndex`) together with
their exact distances, which the screen then reuses -- the
speed/quality trade-off explored in the ablation bench.

One screen evaluates every candidate set.  The candidates of one or
many *owner* nodes form a :class:`PairLanes` batch of oriented pairs;
the cell policy decides both new edges of every lane at once
(:meth:`CellPolicy.decide`), the NumPy kernels of
:mod:`repro.cts.kernels` split them, and the cost's
:meth:`PairCost.batch` prices them; one grouped ``(cost, id)`` ranking
then picks each owner's best partner.  Best-partner recomputes are
independent of each other, so the owners of one screen share one
candidate query (:meth:`BottomUpMerger._candidates`, one batched
:meth:`~repro.cts.candidate_index.SegmentBlockIndex.nearest_many` with
a limit) in batches of at most :data:`_SCREEN_LANES` lanes: the
initialization screens every node, and each merge step
(:meth:`BottomUpMerger._merge_step`) screens the merged node together
with every orphan of the step, once.  The kernels
mirror the scalar float arithmetic op for op and are elementwise, so
every lane equals the scalar plan and cost of its pair bit for bit,
whichever lanes share its batch.  Snaked splits are modelled in the
kernel too, and with a cell sizer every sizing option of every snaked
lane is split in one more batch (its ``resolve_lanes``, the twin of
the scalar ``resolve``).  The scalar :meth:`BottomUpMerger.plan` runs
once per committed merge, and on a lane whose split cannot balance,
which raises ``SkewBalanceError``.

Exact-greedy runs (no ``candidate_limit``) repair orphaned best-pair
pointers *lazily*: pair costs are immutable and an orphan's candidate
set only shrinks until its entry pops, so the stale heap entry's cost
can only underestimate the node's true current best and the recompute
safely waits for :meth:`_pop_valid_pair`'s partner-inactive branch;
their merge step screens the merged node alone.  ``candidate_limit``
runs repair eagerly, in the merge step -- their k-nearest candidate
snapshots are time-sensitive.  Which orphans adopt the merged node is
known only once its lanes are priced, so the step queries and screens
every orphan and applies a ranked lane only to those still stale.

:class:`MergerStats` counts plans, heap traffic, index queries, kernel
batches and repairs.  The merge loop's wall time is split, exclusively,
over five layers (:data:`MERGE_LAYERS`): heap pop, candidate query,
oracle probabilities, split, and cost and commit (the cost arithmetic,
plan, execute, best-pair bookkeeping and retirement).  The totals are
published as ``dme.layer.<layer>_ns`` gauges, not counters, so work
diffs never see timing noise.
"""

from __future__ import annotations

import heapq
import logging
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.activity.probability import ActivityOracle, EnableStatistics
from repro.check.errors import InputError, InternalInvariantError
from repro.cts import kernels
from repro.cts.candidate_index import SegmentBlockIndex
from repro.obs import get_registry, get_tracer, publish_merge_layers, publish_merger_stats
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
    split kernel's cell-free float chain uses -- and zero cell area.
    """

    __slots__ = (
        "maskable",
        "celled",
        "drive_resistance",
        "intrinsic_delay",
        "input_cap",
        "area",
    )

    _DTYPES = (bool, bool, float, float, float, float)

    def __init__(self, decisions: Sequence[CellDecision]):
        columns = zip(*(self._row(d) for d in decisions))
        for name, dtype, column in zip(self.__slots__, self._DTYPES, columns):
            setattr(self, name, np.array(column, dtype=dtype))

    @staticmethod
    def _row(decision: CellDecision) -> tuple:
        cell = decision.cell
        if cell is None:
            return decision.maskable, False, 0.0, 0.0, 0.0, 0.0
        return (
            decision.maskable,
            True,
            cell.drive_resistance,
            cell.intrinsic_delay,
            cell.input_cap,
            cell.area,
        )

    def take(self, codes) -> "EdgeCells":
        """The decisions at ``codes`` (indices into this set), per lane."""
        out = EdgeCells.__new__(EdgeCells)
        for name in self.__slots__:
            setattr(out, name, getattr(self, name)[codes])
        return out


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
    merged_signature: int
    merged_probability: Optional[Probability]


def _set_enable(node: ClockNode, stats: EnableStatistics) -> None:
    node.enable_probability = stats.signal_probability
    node.enable_transition_probability = stats.transition_probability


def annotate_enable(node: ClockNode, oracle: Optional[ActivityOracle]) -> None:
    """Set ``P(EN)`` / ``P_tr(EN)`` of the node's module set (no-op
    without an oracle: the node stays always-on)."""
    if oracle is not None:
        _set_enable(node, oracle.statistics(node.module_mask))


def plan_merge(
    na: ClockNode,
    nb: ClockNode,
    policy: CellPolicy,
    cells: Sequence[CellDecision],
    oracle: Optional[ActivityOracle],
    tech: Technology,
    distance: Optional[LengthUm] = None,
    signature: Optional[int] = None,
) -> MergePlan:
    """Plan the merge of two subtree roots: the cells of both new edges
    (``cells`` is the policy's :meth:`~CellPolicy.cells`) and the
    zero-skew split of their merging distance.

    ``signature`` is the merged node's activation signature when the
    caller already holds it (the merger ORs its children's); without
    it the oracle derives it from the merged module mask."""
    if distance is None:
        distance = na.merging_segment.distance_to(nb.merging_segment)
    merged_mask = na.module_mask | nb.module_mask
    merged_probability = None
    if oracle is None:
        signature = 0
    else:
        if signature is None:
            signature = oracle.activation_signature(merged_mask)
        merged_probability = oracle.signature_probability(signature)
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
        merged_signature=signature,
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
    if oracle is not None:
        _set_enable(merged, oracle.signature_statistics(plan.merged_signature))
    return merged


_SCREEN_LANES = 1 << 15
"""Lane cap of one multi-owner screen: bounds the screen's temporaries
(exact-greedy initialization would otherwise batch all N^2 lanes)."""


class PairLanes:
    """A batch of candidate merges ``(a[j], b[j])``, one pair per lane.

    ``a`` and ``b`` are node-id arrays -- every per-node quantity sits
    in the merger's :attr:`BottomUpMerger.node_arrays` row of that id
    -- and ``distance`` holds the merging distances.  What a cost may
    read beyond that is derived on first use, so each cost pays only
    for what it reads: :attr:`merged_probability` and the cells and
    lengths of both new edges (:attr:`edges`).

    Per-edge quantities run over the ``2n`` new edges of ``n`` lanes:
    the ``a`` sides, then the ``b`` sides (:attr:`ids` holds each
    edge's child), so one array operation serves both sides.
    """

    def __init__(self, merger: "BottomUpMerger", a, b, distance):
        self.merger = merger
        self.a = a
        self.b = b
        self.distance = distance
        self._columns: Dict[str, np.ndarray] = {}

    @cached_property
    def ids(self) -> np.ndarray:
        """The child below each new edge: ``a``, then ``b``."""
        return np.concatenate((self.a, self.b))

    def column(self, name: str) -> np.ndarray:
        """The :class:`~repro.cts.kernels.NodeArrays` column ``name`` at
        every edge's child (:attr:`ids`), gathered once per batch."""
        values = self._columns.get(name)
        if values is None:
            values = getattr(self.merger.node_arrays, name)[self.ids]
            self._columns[name] = values
        return values

    @cached_property
    def merged_probability(self):
        """``P(EN)`` of each lane's merged module set (``None`` without
        an oracle)."""
        return self.merger._merged_probabilities(self.a, self.b)

    @cached_property
    def edge_merged_probability(self):
        """:attr:`merged_probability` of the lane of each edge."""
        merged = self.merged_probability
        return None if merged is None else np.concatenate((merged, merged))

    @cached_property
    def edges(self) -> Tuple[EdgeCells, np.ndarray]:
        """``(cells, length)``: the cell decision and zero-skew length
        of every new edge, ``a`` sides then ``b`` sides."""
        return self.merger._split_lanes(self)


class PairCost:
    """A greedy merge objective.

    :meth:`batch` is the only implementation: the merger calls it on
    whole candidate batches.  Lanes are independent, read node state
    from ``merger.node_arrays`` by id, and must price the pair in its
    lane orientation exactly as its scalar plan would.
    """

    def batch(self, merger: "BottomUpMerger", lanes: PairLanes) -> np.ndarray:
        raise NotImplementedError


class NearestNeighborCost(PairCost):
    """Geometric distance between merging segments (Edahiro-style)."""

    def batch(self, merger, lanes):
        return lanes.distance


nearest_neighbor_cost = NearestNeighborCost()


@dataclass
class MergerStats:
    """Counters of the greedy engine's work, for benches and reports.

    ``plans_computed`` is the number of full :meth:`BottomUpMerger.plan`
    evaluations (scalar split + cell decisions): one per committed
    merge, plus one on a candidate whose split cannot balance (it
    raises ``SkewBalanceError``).

    ``index_queries`` counts the batched k-nearest index queries that
    found candidates, one per screen of a ``candidate_limit`` run: at
    most one per merge step, plus one per :data:`_SCREEN_LANES` lanes
    of owners at initialization.

    The kernel counters track the segment distances:
    ``kernel_batches`` batched distance evaluations of candidate
    segments (one per exact-greedy screen, however many owners it
    spans, and one or two per group of queries of an index query,
    whose distances the screen reuses) and ``kernel_candidates`` the
    lanes they covered (an index query measures a query x slot grid of
    whole blocks).

    The repair counters split best-pair recomputations by trigger:
    ``orphan_recomputes`` eager repairs in a merge step of nodes whose
    best partner retired and that did not adopt the merged node
    (``candidate_limit`` runs), ``repair_recomputes`` lazy repairs
    taken when a stale best pair actually popped from the heap
    (exact-greedy runs).
    """

    plans_computed: int = 0
    heap_pops: int = 0
    stale_entries: int = 0
    index_queries: int = 0
    kernel_batches: int = 0
    kernel_candidates: int = 0
    orphan_recomputes: int = 0
    repair_recomputes: int = 0

    def snapshot(self) -> Dict[str, int]:
        """Stable-key dict of every counter.

        The keys are a public contract: the metrics registry
        (:func:`repro.obs.publish_merger_stats`, hence the RunRecord)
        and the benches read this instead of the attributes.
        """
        return dict(vars(self))


MERGE_LAYERS = ("heap_pop", "candidate_query", "oracle", "split", "cost_commit")
"""The merge loop's time layers, in loop order (:meth:`BottomUpMerger._enter`)."""

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
        edges' cells to balance the delays with less wire.  Its
        ``sized`` table holds every policy decision at every size
        (``unit_codes`` maps the policy's codes into it); screens size
        their snaked lanes with its batched ``resolve_lanes``, plans
        with its scalar ``resolve``.
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
        self._cell_table = EdgeCells(
            self._cells if cell_sizer is None else cell_sizer.sized(self._cells)
        )
        self.stats = MergerStats()
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
            leaf = self.tree.node(nid)
            sig = 0 if oracle is None else oracle.activation_signature(leaf.module_mask)
            self._set_row(leaf, sig)
        self._active_ids = kernels.ActiveIds(range(len(sinks)), capacity)
        self._index: Optional[SegmentBlockIndex] = None
        if candidate_limit is not None and len(sinks) > 1:
            self._index = SegmentBlockIndex(
                self.node_arrays, range(len(sinks)), measure=self._measure
            )
        # Exact-greedy runs repair orphaned best pairs lazily at pop
        # time (see the module docstring); candidate_limit runs repair
        # them in the merge step because their k-nearest candidate
        # snapshots are taken relative to the *current* active set.
        self._eager_repair = candidate_limit is not None
        self.merge_trace: List[Tuple[int, int, int]] = []
        """(left, right, merged) triples, in merge order -- for tests."""
        self.layer_ns: Dict[str, int] = dict.fromkeys(MERGE_LAYERS, 0)
        """Merge-loop nanoseconds per layer of :data:`MERGE_LAYERS`."""
        self._layer = "cost_commit"
        self._mark = time.perf_counter_ns()

    def _enter(self, layer: str) -> str:
        """Charge the time since the last switch to the current layer,
        make ``layer`` current and return the layer it replaces.

        Each nanosecond goes to exactly one layer, so a nested layer
        (the oracle inside a split) is not counted twice; a caller
        returns to the outer layer by entering the one returned.
        """
        now = time.perf_counter_ns()
        self.layer_ns[self._layer] += now - self._mark
        self._mark = now
        outer, self._layer = self._layer, layer
        return outer

    def _set_row(self, node: ClockNode, sig: int) -> None:
        """Mirror a node's merge state, activation signature ``sig``
        and enable-star length (controller to merging-segment center)."""
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
        measurement taken in either pair orientation is exact.  The
        merged activation signature is the OR of the two rows'
        signatures, the screen's own derivation.
        """
        self.stats.plans_computed += 1
        na, nb = self.tree.node(a_id), self.tree.node(b_id)
        sig = self.node_arrays.sig
        plan = plan_merge(
            na,
            nb,
            self.cell_policy,
            self._cells,
            self.oracle,
            self.tech,
            distance,
            signature=int(sig[a_id] | sig[b_id]),
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

    def execute(self, plan: MergePlan) -> ClockNode:
        """Commit a planned merge: create the internal node."""
        merged = commit_merge(self.tree, plan, self.oracle)
        self._set_row(merged, plan.merged_signature)
        self.merge_trace.append((plan.a_id, plan.b_id, merged.id))
        return merged

    # ------------------------------------------------------------------
    # the candidate screen
    # ------------------------------------------------------------------
    def _merged_probabilities(self, a, b):
        """Batched ``P(EN)`` of each lane's union module set.

        Signatures of mask unions are bitwise ORs of the per-node
        signatures, and the oracle answers them through the same memo
        its scalar lookups use, so every lane is bit-identical to
        ``oracle.signal_probability(mask_a | mask_b)``.
        """
        if self.oracle is None:
            return None
        outer = self._enter("oracle")
        sig = self.node_arrays.sig
        probabilities = self.oracle.batch_probabilities(sig[a] | sig[b])
        self._enter(outer)
        return probabilities

    def _split_lanes(self, lanes: PairLanes):
        """Cells and zero-skew lengths of every lane's two new edges,
        ``a`` sides then ``b`` sides (:attr:`PairLanes.edges`)."""
        outer = self._enter("split")
        distance = lanes.distance
        n = distance.size
        codes = np.zeros(2 * n, dtype=np.intp)
        if len(self._cells) > 1:
            codes = np.asarray(
                self.cell_policy.decide(
                    lanes.column("enable_p"),
                    lanes.column("cap"),
                    np.concatenate((distance, distance)),
                    lanes.edge_merged_probability,
                    self.tech,
                ),
                dtype=np.intp,
            )
        sizer = self.cell_sizer
        if sizer is not None:
            codes = sizer.unit_codes(codes)
        table = self._cell_table
        cells = table.take(codes)
        cap, delay = lanes.column("cap"), lanes.column("delay")
        split = kernels.BatchSplit(
            distance,
            cap,
            delay,
            cells,
            self.tech.unit_wire_resistance,
            self.tech.unit_wire_capacitance,
        )
        for j in kernels.out_of_range_lanes(split):
            # The scalar plan raises SkewBalanceError on these lanes.
            self.plan(int(lanes.a[j]), int(lanes.b[j]), distance=float(distance[j]))
        length = split.length
        if sizer is not None:
            # The sizer may resize the cells of any snaked merge.
            (snaked,) = np.nonzero(~split.in_range)
            if snaked.size:
                # Its per-lane split arguments and the lanes' two sides.
                columns = (distance, cap[:n], delay[:n], cap[n:], delay[n:])
                sides = (codes[:n], codes[n:], length[:n], length[n:])
                resized = sizer.resolve_lanes(
                    table,
                    sides[0][snaked],
                    sides[1][snaked],
                    [column[snaked] for column in columns],
                    self.tech,
                )
                for column, values in zip(sides, resized):
                    column[snaked] = values
                cells = table.take(codes)
        self._enter(outer)
        return cells, length

    def _measure(self, *extents) -> np.ndarray:
        """:func:`kernels.batch_segment_distance`, counted in
        :attr:`stats`."""
        distance = kernels.batch_segment_distance(*extents)
        self.stats.kernel_batches += 1
        self.stats.kernel_candidates += distance.size
        return distance

    def _candidates(self, nids: Sequence[int]):
        """Candidate partners of every owner in ``nids``: ``(sizes, ids,
        distances)``, the owners' candidates concatenated in ``nids``
        order, ``sizes[i]`` of them for ``nids[i]``.  With a limit they
        are the k nearest, from one batched index query; otherwise every
        other active id (distances ``None``: the screen measures them).
        """
        outer = self._enter("candidate_query")
        index = self._index
        if index is None:
            others = [self._active_ids.others(nid) for nid in nids]
            candidates = np.array([o.size for o in others]), np.concatenate(others), None
        else:
            ids, distance, sizes = index.nearest_many(nids, self.candidate_limit)
            if ids.size:
                self.stats.index_queries += 1
            candidates = sizes, ids, distance
        self._enter(outer)
        return candidates

    def _screen(self, owner, other, distance=None, canonical: bool = False):
        """Exact ``(costs, distances)`` of merging each lane's owner
        ``owner[j]`` with its candidate ``other[j]``; ``distance``
        passes the lanes' segment distances when already measured.

        One screen may span the candidates of many owners: every kernel
        is elementwise, so a lane's cost does not depend on which other
        lanes share its batch.  Lanes pair ``(owner, other)``;
        ``canonical`` orients every pair ``(min id, max id)`` instead --
        the orientation of an all-pairs scan, which the exact-greedy
        initialization reproduces (``plan(a, b)`` and ``plan(b, a)``
        agree only to rounding).
        """
        if distance is None:
            rows = self.node_arrays
            distance = self._measure(
                rows.ulo[owner], rows.uhi[owner], rows.vlo[owner], rows.vhi[owner],
                rows.ulo[other], rows.uhi[other], rows.vlo[other], rows.vhi[other],
            )
        if canonical:
            low = other < owner
            a, b = np.where(low, other, owner), np.where(low, owner, other)
        else:
            a, b = owner, other
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

    def _screens(self, nids: Sequence[int], canonical: bool = False):
        """Screen the candidates of every owner in ``nids``.

        Owners share screens of up to :data:`_SCREEN_LANES` lanes, each
        with one candidate query (an owner with more lanes is screened
        alone).  Yields ``(owners, sizes, other, costs, distances,
        best)`` per screen: the owners' lanes concatenated in owner
        order, ``sizes[i]`` of them for ``owners[i]``, and ``best[i]``
        the lane of ``owners[i]``'s first candidate by ``(cost, id)``
        (``-1`` when it has none).  Owners are independent -- their
        candidates read the active set and the index, which neither
        screening nor :meth:`_set_best` touches -- so batching changes
        no cost, only the number of screens.
        """
        per_owner = self.candidate_limit or len(self._active_ids) - 1
        step = max(1, _SCREEN_LANES // max(1, per_owner))
        for start in range(0, len(nids), step):
            owners = nids[start : start + step]
            sizes, other, distance = self._candidates(owners)
            best = np.full(len(owners), -1, dtype=np.int64)
            if other.size == 0:
                yield owners, sizes, other, np.empty(0), np.empty(0), best
                continue
            owner = np.repeat(np.array(owners, dtype=np.int64), sizes)
            costs, distance = self._screen(owner, other, distance, canonical)
            group = np.repeat(np.arange(len(owners)), sizes)
            best[np.flatnonzero(sizes)] = kernels.rank_by_cost(other, costs, group)
            yield owners, sizes, other, costs, distance, best

    def _recompute_best(self, nids: Sequence[int], canonical: bool = False) -> None:
        """Re-screen the candidates of every node in ``nids`` for its
        cheapest partner, ranked by ``(cost, id)``; a node without
        candidates loses its best pair."""
        for owners, _, other, costs, distance, best in self._screens(nids, canonical):
            for nid, j in zip(owners, best.tolist()):
                self._take_lane(nid, j, other, costs, distance)

    def _take_lane(self, nid: int, j: int, other, costs, distance) -> None:
        """Make lane ``j`` of a screen ``nid``'s best pair (``j < 0``:
        drop its best pair)."""
        if j < 0:
            self._best.pop(nid, None)
        else:
            self._set_best(nid, float(costs[j]), int(other[j]), float(distance[j]))

    def _initialize_best(self) -> None:
        self._recompute_best(
            sorted(self._active), canonical=self.candidate_limit is None
        )

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
                self._recompute_best((nid,))
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
        if self._index is not None and nid in self._index:
            self._index.remove(nid)
        return self._reverse.pop(nid, set())

    def _merge_step(self, merged_id: int, orphans: Sequence[int]) -> None:
        """Register a new subtree and refresh the best pairs it touches,
        in one candidate query and one screen.

        The merged node joins the active set and the index first (a
        query excludes its own id, so its candidates are unchanged).
        Its lanes and those of every orphan -- a node whose best
        partner just retired -- are screened together.  Then, in order:
        every candidate of the merged node adopts it when ``(cost,
        merged_id)`` beats its current best; the merged node takes its
        own best lane; and each orphan, in ``orphans`` order, whose best
        partner is still inactive takes its ranked lane.  The heap
        outcomes do not depend on the order of the adoptions
        (generation staleness).
        """
        self._active.add(merged_id)
        self._active_ids.add(merged_id)
        if self._index is not None:
            self._index.insert(merged_id)
        screens = list(self._screens([merged_id, *orphans]))
        _, sizes, other, costs, distance, best = screens[0]
        lanes = int(sizes[0])
        for partner, cost, d in zip(
            other[:lanes].tolist(), costs[:lanes].tolist(), distance[:lanes].tolist()
        ):
            current = self._best.get(partner)
            if current is None or (cost, merged_id) < (current[0], current[1]):
                self._set_best(partner, cost, merged_id, d)
        for owners, _, other, costs, distance, best in screens:
            for nid, j in zip(owners, best.tolist()):
                if nid != merged_id:
                    current = self._best.get(nid)
                    if current is not None and current[1] in self._active:
                        continue  # the orphan adopted the merged node
                    self.stats.orphan_recomputes += 1
                self._take_lane(nid, j, other, costs, distance)

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
                # Restart the layer clock: only the loop is charged.
                self._enter("cost_commit")
                self.layer_ns = dict.fromkeys(MERGE_LAYERS, 0)
                while len(self._active) > 1:
                    self._enter("heap_pop")
                    a_id, b_id, distance = self._pop_valid_pair()
                    self._enter("cost_commit")
                    plan = self.plan(a_id, b_id, distance)
                    merged = self.execute(plan)
                    orphans = (self._retire(a_id) | self._retire(b_id)) & self._active
                    self._merge_step(
                        merged.id, sorted(orphans) if self._eager_repair else ()
                    )
                self._enter("cost_commit")
            (root,) = self._active
            self.tree.set_root(root)
            with tracer.span("dme.embed"):
                self.tree.place()
            publish_merger_stats(self.stats)
            publish_merge_layers(self.layer_ns)
        if logger.isEnabledFor(logging.DEBUG):
            # Guarded: these arguments walk the whole tree.
            logger.debug(
                "tree built: wirelength %.4g, %d gates, root delay %.4g",
                self.tree.total_wirelength(),
                self.tree.gate_count(),
                self.tree.root.sink_delay,
            )
        return self.tree
