"""Multi-owner screens: batching best-partner recomputes changes nothing.

The merger recomputes many nodes' best partners in one screen (the
initialization, and each merge step's merged node together with its
orphans), capped at ``repro.cts.dme._SCREEN_LANES`` lanes per screen.
These tests check that each owner of such a batch gets the same
``(cost, partner, distance)``, bit for bit, as it gets from a screen
of its own, in both pair orientations, with owners that have no
candidates and with caps small enough to split the batch; that no
screen exceeds the cap unless one owner alone does; and that the fused
merge step decides exactly what a step of two screens (the merged
node's, then the still-stale orphans') decides.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.activity import ActivityOracle, ActivityTables, InstructionStream
from repro.activity.isa import paper_example_isa, paper_example_stream
from repro.core.cost import (
    incremental_switched_capacitance_cost,
    switched_capacitance_cost,
)
from repro.core.gate_reduction import GateReductionPolicy
from repro.core.gate_sizing import GateSizingPolicy
from repro.cts import BottomUpMerger, Sink, candidate_index, dme
from repro.cts.dme import GateEveryEdgePolicy, nearest_neighbor_cost
from repro.geometry import Point
from repro.tech import date98_technology
from tests.test_pair_cost_lanes import NUM_MODULES, merge_some

COSTS = [nearest_neighbor_cost, switched_capacitance_cost, incremental_switched_capacitance_cost]


@pytest.fixture(scope="module")
def oracle():
    isa = paper_example_isa()
    stream = InstructionStream(ids=np.array(paper_example_stream()))
    return ActivityOracle(ActivityTables.from_stream(isa, stream))


class ScreenLog(BottomUpMerger):
    """A merger that records every screen's lane count and owners, and
    can hide the candidates of chosen owners."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.screens = []
        self.no_candidates = set()

    def _candidates(self, nids):
        sizes, ids, distance = super()._candidates(nids)
        hidden = np.isin(nids, list(self.no_candidates))
        keep = ~np.repeat(hidden, sizes)
        sizes = np.where(hidden, 0, sizes)
        return sizes, ids[keep], None if distance is None else distance[keep]

    def _screen(self, owner, other, distance=None, canonical=False):
        self.screens.append((int(other.size), set(owner.tolist())))
        return super()._screen(owner, other, distance, canonical=canonical)


def _merger(sinks, oracle, cost, policy, sized, limit):
    return ScreenLog(
        sinks,
        date98_technology(),
        cost=cost,
        cell_policy=policy,
        oracle=oracle,
        controller_point=Point(120.0, 80.0),
        candidate_limit=limit,
        cell_sizer=GateSizingPolicy() if sized else None,
    )


def _best_bits(merger, nid):
    entry = merger._best.get(nid)
    if entry is None:
        return None
    cost, partner, _, distance = entry
    return cost.hex(), partner, distance.hex()


@settings(max_examples=60, deadline=None)
@given(
    raw=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=400),
            st.integers(min_value=0, max_value=400),
            st.floats(min_value=0.05, max_value=80.0),
            st.integers(min_value=0, max_value=NUM_MODULES - 1),
        ),
        min_size=3,
        max_size=14,
    ),
    cost_index=st.integers(min_value=0, max_value=len(COSTS) - 1),
    reduce=st.booleans(),
    sized=st.booleans(),
    limit=st.sampled_from([None, 2, 4]),
    canonical=st.booleans(),
    pairs=st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 20)), min_size=0, max_size=5
    ),
    owner_picks=st.lists(st.integers(0, 40), min_size=1, max_size=12),
    empty_picks=st.lists(st.integers(0, 40), max_size=3),
    cap=st.integers(min_value=1, max_value=40),
)
def test_batched_screen_equals_one_owner_screens(
    oracle,
    raw,
    cost_index,
    reduce,
    sized,
    limit,
    canonical,
    pairs,
    owner_picks,
    empty_picks,
    cap,
):
    tech = date98_technology()
    sinks = [
        Sink(name="s%d" % i, location=Point(x, y), load_cap=c, module=m)
        for i, (x, y, c, m) in enumerate(raw)
    ]
    policy = GateReductionPolicy.from_knob(0.5, tech) if reduce else GateEveryEdgePolicy()
    mergers = [
        _merger(sinks, oracle, COSTS[cost_index], policy, sized, limit) for _ in range(2)
    ]
    active = merge_some(mergers, pairs)
    for merger in mergers:
        # merge_some bypasses the merge loop: retire the merged children
        # from the candidate structures the way the loop does.
        for nid in list(merger._active):
            if nid not in active:
                merger._retire(nid)
        for nid in active:
            if nid not in merger._active:
                merger._active.add(nid)
                merger._active_ids.add(nid)
                if merger._index is not None:
                    merger._index.insert(nid)
    owners = sorted({active[i % len(active)] for i in owner_picks})
    empty = {active[i % len(active)] for i in empty_picks}
    batched, single = mergers
    for merger in mergers:
        merger.no_candidates = empty
        # A stale entry for every owner: one with no candidates must drop it.
        for nid in owners:
            merger._set_best(nid, -1.0, nid, -1.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dme, "_SCREEN_LANES", cap)
        batched._recompute_best(owners, canonical=canonical)
    for nid in owners:
        single._recompute_best((nid,), canonical=canonical)
    for nid in owners:
        assert _best_bits(batched, nid) == _best_bits(single, nid)
        assert (_best_bits(batched, nid) is None) == (nid in empty)
    # One candidate query and one screen serve many owners.
    batched_stats, single_stats = batched.stats.snapshot(), single.stats.snapshot()
    for batch_counter in ("kernel_batches", "index_queries"):
        assert batched_stats[batch_counter] <= single_stats[batch_counter]
        del batched_stats[batch_counter], single_stats[batch_counter]
    assert batched_stats == single_stats
    for lanes, screen_owners in batched.screens:
        assert lanes <= cap or len(screen_owners) == 1


@pytest.mark.parametrize("limit", [None, 4], ids=["exact", "k4"])
@pytest.mark.parametrize("cap", [1, 20, 64, 200], ids=lambda c: "cap%d" % c)
def test_screens_respect_lane_cap(oracle, monkeypatch, limit, cap):
    # Exact greedy: every owner has N - 1 = 29 lanes at init, so a cap
    # of 20 forces one-owner screens and 64 packs two owners per screen.
    rng = np.random.default_rng(3)
    sinks = [
        Sink(
            name="s%d" % i,
            location=Point(float(x), float(y)),
            load_cap=float(c),
            module=i % NUM_MODULES,
        )
        for i, (x, y, c) in enumerate(
            zip(rng.uniform(0, 300, 30), rng.uniform(0, 300, 30), rng.uniform(0.5, 40, 30))
        )
    ]
    tech = date98_technology()
    policy = GateReductionPolicy.from_knob(0.5, tech)
    reference = _merger(sinks, oracle, switched_capacitance_cost, policy, False, limit)
    reference.run()
    monkeypatch.setattr(dme, "_SCREEN_LANES", cap)
    capped = _merger(sinks, oracle, switched_capacitance_cost, policy, False, limit)
    capped.run()
    for lanes, owners in capped.screens:
        assert lanes <= cap or len(owners) == 1
    assert any(len(owners) > 1 for _, owners in reference.screens)
    if cap >= 2 * (len(sinks) - 1):
        assert any(len(owners) > 1 for _, owners in capped.screens)
    assert capped.merge_trace == reference.merge_trace
    assert capped.stats.kernel_candidates == reference.stats.kernel_candidates


class TwoScreenStep(ScreenLog):
    """A merge step as two screens: the merged node's own (its
    neighbours' adoptions and its best pair), then one over the orphans
    still stale after adoption -- the order of decisions the fused step
    must reproduce."""

    def _merge_step(self, merged_id, orphans):
        super()._merge_step(merged_id, ())
        stale = [
            orphan
            for orphan in orphans
            if orphan not in self._best or self._best[orphan][1] not in self._active
        ]
        self.stats.orphan_recomputes += len(stale)
        self._recompute_best(stale)


@pytest.mark.parametrize("limit", [2, 4, 16, None], ids=["k2", "k4", "k16", "exact-eager"])
@pytest.mark.parametrize("block", [8, 256], ids=["blocks8", "blocks256"])
def test_fused_step_matches_two_screen_step(oracle, monkeypatch, limit, block):
    monkeypatch.setattr(candidate_index, "_BLOCK", block)
    rng = np.random.default_rng(7)
    n = 60
    sinks = [
        Sink(
            name="s%d" % i,
            location=Point(float(x), float(y)),
            load_cap=float(c),
            module=i % NUM_MODULES,
        )
        for i, (x, y, c) in enumerate(
            zip(rng.uniform(0, 500, n), rng.uniform(0, 500, n), rng.uniform(0.5, 40, n))
        )
    ]
    tech = date98_technology()
    policy = GateReductionPolicy.from_knob(0.5, tech)
    runs = []
    for cls in (ScreenLog, TwoScreenStep):
        merger = cls(
            sinks,
            tech,
            cost=switched_capacitance_cost,
            cell_policy=policy,
            oracle=oracle,
            controller_point=Point(250.0, 250.0),
            candidate_limit=limit,
        )
        # Exact greedy repairs lazily; force the per-step orphan repair.
        merger._eager_repair = True
        tree = merger.run()
        runs.append((merger, tree.total_wirelength()))
    (fused, fused_wl), (two, two_wl) = runs
    assert fused.merge_trace == two.merge_trace
    assert fused_wl == two_wl
    # Only orphans still stale after adoption count as recomputes.
    assert fused.stats.orphan_recomputes == two.stats.orphan_recomputes > 0
    assert fused.stats.heap_pops == two.stats.heap_pops
    # The initialization's lanes fit one screen; then at most one
    # screen and one index query per merge step.
    merges = len(fused.merge_trace)
    assert len(fused.screens) <= merges + 1 < len(two.screens)
    if limit is not None:
        assert fused.stats.index_queries <= merges + 1
