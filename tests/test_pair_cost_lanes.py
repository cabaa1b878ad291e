"""Lane parity: every lane of a batched screen equals its scalar reference.

The merger prices candidates only through :meth:`PairCost.batch` and
decides cells only through the batched :meth:`CellPolicy.decide`.  These
tests build random merge states and compare, bit for bit, each lane of
both pair orientations against the scalar references in
``tests/scalar_reference.py``: the Eq. 3 and count-once costs over a
scalar plan, and the branch-by-branch section 4.3 rules.  Uniform
(one-cell) and per-lane (gate reduction) policies, the cell sizer and
snaked lanes are all covered.
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
from tests.test_merge_trace_digests import tree_digest
from tests.scalar_reference import (
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
    snaked = any(reference.plan(nid, o).split.snaked for o in ids.tolist())
    event("snaked lanes" if snaked else "in-range lanes only")


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


def uneven_sinks():
    """Wildly uneven loads: most splits among these sinks snake."""
    rng = np.random.default_rng(5)
    return [
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


@pytest.mark.parametrize("cost", COSTS, ids=["eq3", "incremental"])
@pytest.mark.parametrize("sized", [False, True], ids=["unsized", "sized"])
def test_snaked_fallback_lanes_match(oracle, cost, sized, snaked_lanes):
    # The kernel prices snaked lanes, and with the sizer the batched
    # twin of ``resolve`` sizes them: no screen lane takes a plan.
    sinks = uneven_sinks()
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
    assert sum(snaked_lanes) > 0
    assert batched.stats.plans_computed == len(batched.merge_trace) == 3


def routed(oracle, cost, limit, sizer):
    tech = date98_technology()
    merger = BottomUpMerger(
        uneven_sinks(),
        tech,
        cost=cost,
        cell_policy=GateReductionPolicy.from_knob(0.6, tech),
        oracle=oracle,
        controller_point=Point(120.0, 80.0),
        candidate_limit=limit,
        cell_sizer=sizer,
    )
    return merger, merger.run()


@pytest.mark.parametrize("cost", COSTS, ids=["eq3", "incremental"])
@pytest.mark.parametrize("limit", [None, 16], ids=["exact", "k16"])
def test_one_plan_per_merge_without_sizer(oracle, cost, limit, snaked_lanes):
    # Snaked screen lanes are priced in-kernel, so the only scalar plans
    # are the committed merges'.
    merger, _ = routed(oracle, cost, limit, None)
    assert sum(snaked_lanes) > 0
    assert merger.stats.plans_computed == len(merger.merge_trace) == 11


#: Tree digests of the sized routes.  They were captured while every
#: snaked screen lane still took a scalar plan: the sizer path keeps its
#: trees.
SIZED_ROUTES = {
    ("eq3", None): "94442034fbd9fa4b7105a07f0d5e4e53e1363c814e890eba774803e80668b6d9",
    ("eq3", 16): "94442034fbd9fa4b7105a07f0d5e4e53e1363c814e890eba774803e80668b6d9",
    ("incremental", None): "8858d57bef6c95b397b713018e3160212c6f6909f48392ad174a50431d88bd1d",
    ("incremental", 16): "fc90614df1c6808fec0269befb0249496041af6c78a543e1acc47245c17fca4e",
}


@pytest.mark.parametrize("cost", COSTS, ids=["eq3", "incremental"])
@pytest.mark.parametrize("limit", [None, 16], ids=["exact", "k16"])
def test_sized_routes_unchanged(oracle, cost, limit, snaked_lanes):
    # The batched twin of ``resolve`` sizes the snaked screen lanes, so
    # a sized route, too, plans only its committed merges.
    merger, tree = routed(oracle, cost, limit, GateSizingPolicy())
    name = "eq3" if cost is switched_capacitance_cost else "incremental"
    assert tree_digest(tree) == SIZED_ROUTES[name, limit]
    assert sum(snaked_lanes) > 0
    assert merger.stats.plans_computed == len(merger.merge_trace) == 11
