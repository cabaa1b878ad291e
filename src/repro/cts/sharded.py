"""Sharded parallel gated routing: partition -> route -> exact stitch.

The paper's greedy merge is inherently sequential: every merge decision
conditions the next.  This module trades a sliver of optimality at the
*top* of the tree for parallelism everywhere below it:

1. **Partition** (:func:`partition_sinks`): recursive median bisection
   -- the same alternating-axis median cut
   :mod:`repro.cts.bisection` builds whole topologies with -- splits
   the sink set into ``K`` spatially coherent, balanced shards and
   records the cut tree as the stitch's merge order.
2. **Route** (:func:`route_shards`): each shard's gated subtree is
   built independently by the existing
   :class:`~repro.cts.dme.BottomUpMerger`, either inline or in a
   ``ProcessPoolExecutor`` worker pool.  Workers receive pickled
   shard sinks plus the :class:`~repro.activity.tables.ActivityTables`
   (the oracle itself carries per-instance LRU caches and is rebuilt
   worker-side), run with tracing disabled and a private
   :class:`~repro.obs.MetricsRegistry`, and return the finished shard
   tree and its metrics for the parent to fold in.
3. **Stitch** (:func:`stitch_shards`): shard trees are grafted into
   one :class:`~repro.cts.topology.ClockTree` (per shard, in node-id
   order, so ids stay a valid bottom-up order) and the shard roots are
   merged along the cut tree by the merger's own merge step
   (:func:`~repro.cts.dme.plan_merge` /
   :func:`~repro.cts.dme.commit_merge`), followed by the global
   top-down embedding (:meth:`~repro.cts.topology.ClockTree.place`).
   Every merge in the final tree -- shard-internal or stitch-level --
   is an exact zero-skew split, so the stitched tree has exact zero
   skew by construction and passes :func:`repro.check.audit_network`
   unchanged.

Two byte-stability contracts anchor the tests:

* ``num_shards=1`` reproduces the unsharded
  :func:`~repro.core.gated_routing.build_gated_tree` result exactly --
  same merge trace, same floats, same placement -- because the graft
  preserves node ids and every copied field verbatim;
* for any ``K``, each shard's switched-capacitance contribution over
  its *internal* edges (:func:`shard_edge_cap_sums`) is bit-identical
  between the standalone shard tree and the stitched tree: with a gate
  on every edge the effective enable probability is node-local, the
  graft preserves ids (hence summation order) and floats verbatim.
  The stitch's own edges form the one extra accounting bucket.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.activity.probability import ActivityOracle
from repro.check.errors import ContractError, InputError
from repro.core.gated_routing import build_gated_tree
from repro.cts.dme import CellPolicy, GateEveryEdgePolicy, commit_merge, plan_merge
from repro.cts.topology import ClockTree, Sink
from repro.geometry.point import Point
from repro.obs import MetricsRegistry, get_registry, set_registry
from repro.tech.parameters import Technology

__all__ = [
    "ShardPlan",
    "ShardRoute",
    "partition_sinks",
    "route_shards",
    "shard_edge_cap_sums",
    "stitch_shards",
]


@dataclass(frozen=True)
class ShardPlan:
    """The partition and the stitch order it implies.

    ``shards`` holds, per shard, the indices into the original sink
    sequence (each sorted ascending).  ``merge_order`` is the cut tree
    read bottom-up: slots ``0 .. K-1`` are the shards themselves,
    every ``(left_slot, right_slot, new_slot)`` triple merges two
    subtree roots into a new slot, and the last triple's ``new_slot``
    is the clock root.  With one shard the order is empty.
    """

    shards: Tuple[Tuple[int, ...], ...]
    merge_order: Tuple[Tuple[int, int, int], ...]

    @property
    def num_shards(self) -> int:
        return len(self.shards)


def partition_sinks(sinks: Sequence[Sink], num_shards: int) -> ShardPlan:
    """Cut ``sinks`` into ``num_shards`` balanced spatial shards.

    Recursive median bisection with alternating cut axes (the
    :mod:`repro.cts.bisection` construction, stopped at shard
    granularity): each cut sorts the remaining indices by the cut
    coordinate -- ties broken by sink index, so duplicate coordinates
    partition deterministically -- and splits them proportionally to
    the shard counts assigned to each side.  Shard sizes differ by at
    most one sink.
    """
    if num_shards < 1:
        raise InputError("num_shards must be positive", field="num_shards")
    if num_shards > len(sinks):
        raise InputError(
            "num_shards (%d) exceeds the sink count (%d)"
            % (num_shards, len(sinks)),
            field="num_shards",
        )
    shards: List[Tuple[int, ...]] = []
    merge_order: List[Tuple[int, int, int]] = []
    slots = [num_shards]  # next free slot id above the shard slots

    def split(indices: List[int], shard_count: int, vertical: bool) -> int:
        if shard_count == 1:
            shards.append(tuple(sorted(indices)))
            return len(shards) - 1
        left_count = shard_count // 2
        right_count = shard_count - left_count
        def key(i: int) -> Tuple[float, int]:
            location = sinks[i].location
            return ((location.x if vertical else location.y), i)

        ordered = sorted(indices, key=key)
        # Proportional split, clamped so both sides can still feed at
        # least one sink to every shard assigned to them.
        take = round(len(ordered) * left_count / shard_count)
        take = max(left_count, min(take, len(ordered) - right_count))
        left = split(ordered[:take], left_count, not vertical)
        right = split(ordered[take:], right_count, not vertical)
        slot = slots[0]
        slots[0] += 1
        merge_order.append((left, right, slot))
        return slot

    split(list(range(len(sinks))), num_shards, vertical=True)
    return ShardPlan(shards=tuple(shards), merge_order=tuple(merge_order))


@dataclass
class ShardRoute:
    """One routed shard, as returned by a worker (all fields pickle)."""

    index: int
    tree: ClockTree
    seconds: float
    registry: Optional[MetricsRegistry] = None


def _route_one_shard(
    index: int,
    sinks: Sequence[Sink],
    tech: Technology,
    oracle: ActivityOracle,
    controller_point: Point,
    cell_policy: Optional[CellPolicy],
    candidate_limit: Optional[int],
) -> ShardRoute:
    """Route one shard's gated subtree with the existing merger."""
    import time

    start = time.perf_counter()
    # build_gated_tree opens its own "topology.gated" span (a no-op in
    # workers, whose tracer is disabled by _worker_initializer).
    tree = build_gated_tree(
        sinks,
        tech,
        oracle,
        controller_point=controller_point,
        cell_policy=cell_policy,
        candidate_limit=candidate_limit,
    )
    return ShardRoute(index=index, tree=tree, seconds=time.perf_counter() - start)


def _worker_initializer() -> None:
    """Make a forked/spawned worker process observability-safe.

    Workers inherit the parent's process-global tracer and metrics
    registry.  Spans and the RunRecord ledger are strictly parent-side
    concerns: install a disabled tracer and a private registry before
    the shard does real work.
    """
    from repro.obs import Tracer, set_tracer

    set_tracer(Tracer(enabled=False))
    set_registry(MetricsRegistry())


def _pool_route_shard(payload: Tuple) -> ShardRoute:
    """Worker-side entry: rebuild the oracle, route, return the shard.

    The :class:`~repro.activity.probability.ActivityOracle` carries
    per-instance ``lru_cache`` wrappers and does not pickle; workers
    receive the underlying :class:`ActivityTables` and rebuild it (the
    oracle is a pure function of its tables, so worker-side
    probabilities are bit-identical to parent-side ones).
    """
    (
        index,
        sinks,
        tech,
        tables,
        controller_point,
        cell_policy,
        candidate_limit,
    ) = payload
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        shard = _route_one_shard(
            index,
            sinks,
            tech,
            ActivityOracle(tables),
            controller_point,
            cell_policy,
            candidate_limit,
        )
    finally:
        set_registry(previous)
    shard.registry = registry
    return shard


def route_shards(
    sinks: Sequence[Sink],
    plan: ShardPlan,
    tech: Technology,
    oracle: ActivityOracle,
    controller_point: Point,
    num_workers: int = 1,
    cell_policy: Optional[CellPolicy] = None,
    candidate_limit: Optional[int] = None,
) -> List[ShardRoute]:
    """Route every shard of ``plan``; returns shards in index order.

    ``num_workers <= 1`` routes inline (deterministic fallback, no
    pickling); more workers fan the shards out over a
    ``ProcessPoolExecutor``.  Results are identical either way: shard
    routing shares no state across shards, workers rebuild the oracle
    from its tables, and the stitch consumes shards in index order
    regardless of completion order.  Worker metrics registries are
    merged into the parent's (counters sum), so ``dme.*`` totals cover
    all shards in both modes.
    """
    from repro.obs import get_tracer

    registry = get_registry()
    if num_workers <= 1 or plan.num_shards == 1:
        shards = []
        for index, members in enumerate(plan.shards):
            shard_registry = MetricsRegistry()
            with get_tracer().span("shard.one", shard=index, n=len(members)):
                previous = set_registry(shard_registry)
                try:
                    shards.append(
                        _route_one_shard(
                            index,
                            [sinks[i] for i in members],
                            tech,
                            oracle,
                            controller_point,
                            cell_policy,
                            candidate_limit,
                        )
                    )
                finally:
                    set_registry(previous)
            registry.merge(shard_registry)
        return shards

    from concurrent.futures import ProcessPoolExecutor

    tables = oracle.tables
    payloads = [
        (
            index,
            tuple(sinks[i] for i in members),
            tech,
            tables,
            controller_point,
            cell_policy,
            candidate_limit,
        )
        for index, members in enumerate(plan.shards)
    ]
    workers = min(num_workers, plan.num_shards)
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_worker_initializer
    ) as pool:
        # Workers reach the tracer/registry through build_gated_tree's
        # spans, but _worker_initializer installs a disabled tracer and
        # a fresh registry per worker first, and the shard registries
        # are merged parent-side after the join.
        shards = list(pool.map(_pool_route_shard, payloads))
    shards.sort(key=lambda s: s.index)
    for shard in shards:
        if shard.registry is not None:
            registry.merge(shard.registry)
            shard.registry = None
    return shards


def stitch_shards(
    shards: Sequence[ShardRoute],
    plan: ShardPlan,
    tech: Technology,
    oracle: ActivityOracle,
    cell_policy: Optional[CellPolicy] = None,
) -> ClockTree:
    """Merge routed shard trees into one exactly zero-skew clock tree.

    Shard roots are merged along ``plan.merge_order`` by the merge step
    of every bottom-up merge (:func:`~repro.cts.dme.plan_merge` splits
    the Elmore delays exactly, :func:`~repro.cts.dme.commit_merge`
    creates the merged node), then the whole tree is embedded top-down
    (:meth:`~repro.cts.topology.ClockTree.place`).  Since every
    shard tree is internally zero-skew and every stitch merge splits
    exactly, the stitched tree has exact zero skew: at each stitch
    node both sides present equal sink delays, so the common delay
    propagates to the root unchanged.
    """
    if len(shards) != plan.num_shards:
        raise ContractError(
            "got %d routed shards for a %d-shard plan"
            % (len(shards), plan.num_shards)
        )
    policy = cell_policy or GateEveryEdgePolicy()
    cells = policy.cells(tech)
    out = ClockTree(tech)
    slots = {shard.index: out.graft(shard.tree) for shard in shards}
    for left_slot, right_slot, new_slot in plan.merge_order:
        merge = plan_merge(
            out.node(slots[left_slot]),
            out.node(slots[right_slot]),
            policy,
            cells,
            oracle,
            tech,
        )
        slots[new_slot] = commit_merge(out, merge, oracle).id
    root_slot = plan.merge_order[-1][2] if plan.merge_order else 0
    out.set_root(slots[root_slot])
    out.place()
    get_registry().counter("shard.stitch_merges").inc(len(plan.merge_order))
    return out


def shard_edge_cap_sums(
    tree: ClockTree,
    tech: Technology,
    node_ranges: Sequence[Tuple[int, int]],
) -> List[float]:
    """Per-shard switched capacitance over shard-internal edges.

    ``node_ranges`` gives each shard's contiguous ``[start, stop)``
    node-id block in ``tree`` (shard roots excluded from their own
    block's *edge* terms only in the stitched tree, where they carry a
    stitch-level edge -- pass ``stop`` as the shard root id to scope
    the sum to internal edges).  Terms follow
    :func:`repro.core.switched_cap.clock_tree_switched_cap` exactly --
    ``a_clk * P(EN) * (c * length + attached)`` accumulated in id
    order -- restricted to edges whose *own* gate masks them, which is
    every edge under :class:`~repro.cts.dme.GateEveryEdgePolicy`.
    Identical id order and identical floats make each sum bit-stable
    between a standalone shard tree and its grafted block.
    """
    c = tech.unit_wire_capacitance
    a_clk = tech.clock_transitions_per_cycle
    sums: List[float] = []
    for start, stop in node_ranges:
        total = 0.0
        for nid in range(start, stop):
            node = tree.node(nid)
            if not node.has_gate:
                raise ContractError(
                    "node %d has no masking gate; per-shard accounting "
                    "requires node-local enable probabilities (gate on "
                    "every edge)" % nid
                )
            total += a_clk * node.enable_probability * (
                c * node.edge_length + tree.attached_cap(nid)
            )
        sums.append(total)
    return sums
