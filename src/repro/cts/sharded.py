"""Sharded parallel gated routing: partition -> route -> exact stitch.

The paper's greedy merge is inherently sequential: every merge decision
conditions the next.  This module trades a sliver of optimality at the
*top* of the tree for parallelism everywhere below it:

1. **Partition** (:func:`~repro.cts.bisection.partition_sinks`):
   the alternating-axis median cut :mod:`repro.cts.bisection` builds
   whole topologies with, stopped at ``K`` spatially coherent,
   balanced shards; the cut tree is the stitch's merge order.
2. **Route** (:func:`route_shards`): each shard's gated subtree is
   built independently by the existing
   :class:`~repro.cts.dme.BottomUpMerger`, either inline or in a
   ``ProcessPoolExecutor`` worker pool.  Workers receive pickled
   shard sinks plus the :class:`~repro.activity.tables.ActivityTables`
   (the oracle itself carries per-instance LRU caches and is rebuilt
   worker-side) and run with tracing disabled.  Every shard, inline or
   pooled, routes under a private :class:`~repro.obs.MetricsRegistry`
   and returns it with the finished shard tree for the parent to fold
   in.
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
* for any ``K``, each shard's switched capacitance over its
  *internal* edges -- the :meth:`~repro.cts.topology.ClockTree.clock_term`
  of each, folded in id order -- is bit-identical between the
  standalone shard tree and the stitched tree: with a gate on every
  edge the effective enable probability is node-local, and the graft
  preserves ids (hence summation order) and floats verbatim.  The
  stitch's own edges form the one extra accounting bucket.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.activity.probability import ActivityOracle
from repro.check.errors import ContractError
from repro.core.gated_routing import build_gated_tree
from repro.cts.bisection import ShardPlan, partition_sinks
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
    "stitch_shards",
]


@dataclass
class ShardRoute:
    """One routed shard, as returned by a worker (all fields pickle).

    ``registry`` holds the metrics the shard's route published; the
    parent merges it in index order and then drops it.
    """

    index: int
    tree: ClockTree
    seconds: float
    registry: Optional[MetricsRegistry]


def _route_one_shard(
    index: int,
    sinks: Sequence[Sink],
    tech: Technology,
    oracle: ActivityOracle,
    controller_point: Point,
    cell_policy: Optional[CellPolicy],
    candidate_limit: Optional[int],
) -> ShardRoute:
    """Route one shard's gated subtree with the existing merger.

    The route publishes into a private registry, returned on the
    :class:`ShardRoute`, so inline and pooled shards hand their
    metrics to the parent the same way.
    """
    import time

    start = time.perf_counter()
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        # build_gated_tree opens its own "topology.gated" span (a no-op
        # in workers, whose tracer is disabled by _worker_initializer).
        tree = build_gated_tree(
            sinks,
            tech,
            oracle,
            controller_point=controller_point,
            cell_policy=cell_policy,
            candidate_limit=candidate_limit,
        )
    finally:
        set_registry(previous)
    return ShardRoute(index, tree, time.perf_counter() - start, registry)


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
    index, sinks, tech, tables, *rest = payload
    return _route_one_shard(index, sinks, tech, ActivityOracle(tables), *rest)


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
    regardless of completion order.  Each shard's registry is merged
    into the parent's in index order (counters sum), so ``dme.*``
    totals cover all shards in both modes.
    """
    from repro.obs import get_tracer

    if num_workers <= 1 or plan.num_shards == 1:
        shards = []
        for index, members in enumerate(plan.shards):
            with get_tracer().span("shard.one", shard=index, n=len(members)):
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
    else:
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
            # _worker_initializer installs a disabled tracer and a fresh
            # registry per worker before any shard routes.
            # pool.map yields in payload (= index) order.
            shards = list(pool.map(_pool_route_shard, payloads))
    registry = get_registry()
    for shard in shards:
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
