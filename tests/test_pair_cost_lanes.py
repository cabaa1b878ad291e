"""Lane parity: every lane of a batched screen equals its scalar reference.

The merger prices candidates only through :meth:`PairCost.batch` and
decides cells only through the batched :meth:`CellPolicy.decide`.  These
tests build random merge states and compare, bit for bit, each lane of
both pair orientations against the scalar references in
``tests/scalar_reference.py``: the Eq. 3 and count-once costs over a
scalar plan, and the branch-by-branch section 4.3 rules.  Uniform
(one-cell) and per-lane (gate reduction) policies, the cell sizer and
snaked fallback lanes are all covered.
"""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.activity import ActivityOracle, ActivityTables, InstructionStream
from repro.activity.isa import paper_example_isa, paper_example_stream
from repro.core.cost import (
    incremental_switched_capacitance_cost,
    switched_capacitance_cost,
)
from repro.core.gate_reduction import GateReductionPolicy
from repro.core.gate_sizing import GateSizingPolicy
from repro.cts import BottomUpMerger, Sink
from repro.cts.dme import BufferEveryEdgePolicy, GateEveryEdgePolicy, NoCellPolicy
from repro.geometry import Point
from repro.tech import date98_technology
from tests.scalar_reference import (
    REFERENCE_COSTS,
    ScalarReferenceMerger,
    keeps_gate,
    should_keep,
)

NUM_MODULES = 6  # paper_example_isa()
COSTS = [switched_capacitance_cost, incremental_switched_capacitance_cost]


@pytest.fixture(scope="module")
def oracle():
    isa = paper_example_isa()
    stream = InstructionStream(ids=np.array(paper_example_stream()))
    return ActivityOracle(ActivityTables.from_stream(isa, stream))


def make_policy(name, knob, tech):
    return {
        "none": NoCellPolicy(),
        "buffer": BufferEveryEdgePolicy(),
        "gate": GateEveryEdgePolicy(),
        "reduction": GateReductionPolicy.from_knob(knob, tech),
    }[name]


sinks_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=0, max_value=400),
        st.floats(min_value=0.05, max_value=80.0),
        st.integers(min_value=0, max_value=NUM_MODULES - 1),
    ),
    min_size=3,
    max_size=10,
)


def twin_mergers(sinks, oracle, cost, policy, sizer):
    """The batched engine and its scalar reference over the same inputs."""
    kwargs = dict(
        cost=cost,
        cell_policy=policy,
        oracle=oracle,
        controller_point=Point(120.0, 80.0),
        cell_sizer=sizer,
    )
    tech = date98_technology()
    return BottomUpMerger(sinks, tech, **kwargs), ScalarReferenceMerger(sinks, tech, **kwargs)


def merge_some(mergers, pairs):
    """Apply the same merges to every merger; return the active ids."""
    active = list(range(len(mergers[0].tree)))
    for i, j in pairs:
        if len(active) < 3:
            break
        a, b = active[i % len(active)], active[j % len(active)]
        if a == b:
            continue
        for merger in mergers:
            merged = merger.execute(merger.plan(a, b))
        active = [n for n in active if n not in (a, b)] + [merged.id]
    return active


@settings(max_examples=80, deadline=None)
@given(
    raw=sinks_strategy,
    cost_index=st.integers(min_value=0, max_value=1),
    policy_name=st.sampled_from(["none", "buffer", "gate", "reduction"]),
    knob=st.floats(min_value=0.0, max_value=1.0),
    sized=st.booleans(),
    pairs=st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 20)), min_size=0, max_size=6
    ),
    pick=st.integers(min_value=0, max_value=20),
)
def test_every_lane_matches_scalar_reference(
    oracle, raw, cost_index, policy_name, knob, sized, pairs, pick
):
    tech = date98_technology()
    sinks = [
        Sink(name="s%d" % i, location=Point(x, y), load_cap=cap, module=m)
        for i, (x, y, cap, m) in enumerate(raw)
    ]
    mergers = twin_mergers(
        sinks,
        oracle,
        COSTS[cost_index],
        make_policy(policy_name, knob, tech),
        GateSizingPolicy() if sized else None,
    )
    batched, reference = mergers
    active = merge_some(mergers, pairs)
    nid = active[pick % len(active)]
    ids = np.array([o for o in active if o != nid], dtype=np.int64)
    owner = np.full_like(ids, nid)
    for canonical in (False, True):
        costs, distance = batched._screen(owner, ids, canonical=canonical)
        ref_costs, ref_distance = reference._screen(owner, ids, canonical=canonical)
        assert distance.tolist() == ref_distance.tolist()
        assert costs.tolist() == ref_costs.tolist()
    event("snaked fallback lanes" if batched.stats.kernel_scalar_fallbacks else "kernel lanes only")


@settings(max_examples=80, deadline=None)
@given(
    raw=sinks_strategy,
    knob=st.floats(min_value=0.0, max_value=1.0),
    pairs=st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 20)), min_size=0, max_size=6
    ),
)
def test_policy_lanes_match_scalar_rules(oracle, raw, knob, pairs):
    tech = date98_technology()
    sinks = [
        Sink(name="s%d" % i, location=Point(x, y), load_cap=cap, module=m)
        for i, (x, y, cap, m) in enumerate(raw)
    ]
    policy = GateReductionPolicy.from_knob(knob, tech)
    merger = BottomUpMerger(sinks, tech, cell_policy=policy, oracle=oracle)
    active = merge_some([merger], pairs)
    nid, ids = active[0], np.array(active[1:], dtype=np.int64)
    node = merger.tree.node(nid)
    arrays = merger.node_arrays
    distance = np.array(
        [node.merging_segment.distance_to(merger.tree.node(o).merging_segment) for o in ids]
    )
    merged = merger._merged_probabilities(np.full_like(ids, nid), ids)
    for side in (np.full_like(ids, nid), ids):
        keep = policy.decide(arrays.enable_p[side], arrays.cap[side], distance, merged, tech)
        expected = [
            keeps_gate(
                policy,
                merger.tree.node(int(child)).enable_probability,
                merger.tree.node(int(child)).subtree_cap,
                float(d),
                oracle.signal_probability(
                    node.module_mask | merger.tree.node(int(o)).module_mask
                ),
                tech,
            )
            for child, o, d in zip(side, ids, distance)
        ]
        assert keep.tolist() == expected
    # Without an oracle the rules read the raw clock (mask 1.0).
    keep = policy.decide(arrays.enable_p[ids], arrays.cap[ids], distance, None, tech)
    assert keep.tolist() == [
        keeps_gate(policy, float(p), float(c), float(d), None, tech)
        for p, c, d in zip(arrays.enable_p[ids], arrays.cap[ids], distance)
    ]


@settings(max_examples=200, deadline=None)
@given(
    knob=st.floats(min_value=0.0, max_value=1.0),
    p=st.floats(min_value=0.0, max_value=1.0),
    mask=st.floats(min_value=0.0, max_value=1.0),
    exposed=st.floats(min_value=0.0, max_value=5000.0),
)
def test_should_keep_matches_scalar_rules(knob, p, mask, exposed):
    tech = date98_technology()
    policy = GateReductionPolicy.from_knob(knob, tech)
    assert bool(policy.should_keep(p, mask, exposed, tech)) == should_keep(
        policy, p, mask, exposed, tech
    )
    lanes = policy.should_keep(np.array([p]), np.array([mask]), np.array([exposed]), tech)
    assert lanes.tolist() == [should_keep(policy, p, mask, exposed, tech)]


@pytest.mark.parametrize("cost", COSTS, ids=["eq3", "incremental"])
@pytest.mark.parametrize("sized", [False, True], ids=["unsized", "sized"])
def test_snaked_fallback_lanes_match(oracle, cost, sized):
    # Wildly uneven loads make most splits snake: those lanes take their
    # split (and, with the sizer, their resized cells) from a scalar plan.
    rng = np.random.default_rng(5)
    sinks = [
        Sink(
            name="s%d" % i,
            location=Point(float(x), float(y)),
            load_cap=float(c),
            module=i % NUM_MODULES,
        )
        for i, (x, y, c) in enumerate(
            zip(rng.uniform(0, 60, 12), rng.uniform(0, 60, 12), rng.uniform(0.1, 400.0, 12))
        )
    ]
    tech = date98_technology()
    mergers = twin_mergers(
        sinks,
        oracle,
        cost,
        GateReductionPolicy.from_knob(0.6, tech),
        GateSizingPolicy() if sized else None,
    )
    batched, reference = mergers
    active = merge_some(mergers, [(0, 1), (2, 3), (4, 7)])
    for nid in active:
        ids = np.array([o for o in active if o != nid], dtype=np.int64)
        owner = np.full_like(ids, nid)
        for canonical in (False, True):
            costs, _ = batched._screen(owner, ids, canonical=canonical)
            ref_costs, _ = reference._screen(owner, ids, canonical=canonical)
            assert costs.tolist() == ref_costs.tolist()
    assert batched.stats.kernel_scalar_fallbacks > 0


@pytest.mark.parametrize("cost", COSTS, ids=["eq3", "incremental"])
def test_one_lane_call_matches_reference(oracle, cost):
    rng = np.random.default_rng(9)
    sinks = [
        Sink(name="s%d" % i, location=Point(float(x), float(y)), load_cap=1.0, module=i % 6)
        for i, (x, y) in enumerate(zip(rng.uniform(0, 300, 8), rng.uniform(0, 300, 8)))
    ]
    tech = date98_technology()
    merger = BottomUpMerger(
        sinks,
        tech,
        cost=cost,
        cell_policy=GateReductionPolicy.from_knob(0.5, tech),
        oracle=oracle,
    )
    for a in range(len(sinks)):
        for b in range(len(sinks)):
            if a != b:
                plan = merger.plan(a, b)
                assert cost(plan, merger) == REFERENCE_COSTS[cost](plan, merger)
