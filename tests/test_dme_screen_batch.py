"""Multi-owner screens: batching best-partner recomputes changes nothing.

The merger recomputes many nodes' best partners in one screen (the
initialization, the eager orphan repair of a merge step), capped at
``repro.cts.dme._SCREEN_LANES`` lanes per screen.  These tests check
that each owner of such a batch gets the same ``(cost, partner,
distance)``, bit for bit, as it gets from a screen of its own, in both
pair orientations, with owners that have no candidates and with caps
small enough to split the batch -- and that no screen exceeds the cap
unless one owner alone does.
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
from repro.cts import BottomUpMerger, Sink, dme
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

    def _candidates(self, nid):
        ids, distance = super()._candidates(nid)
        if nid in self.no_candidates:
            return ids[:0], None if distance is None else distance[:0]
        return ids, distance

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
    assert batched.stats.snapshot() == dict(
        single.stats.snapshot(),
        kernel_batches=batched.stats.kernel_batches,
    )
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
