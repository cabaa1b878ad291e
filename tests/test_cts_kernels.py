"""Kernel/scalar parity tests for the batched DME screens.

Two layers of defence:

* **property tests** pin the exact-parity contract of
  :mod:`repro.cts.kernels` -- the batched distance, split, and
  enable-star kernels must agree with their scalar counterparts to
  *exact float equality* (``==``, not approx) on everything they model;
* **trace determinism tests** run the full merger against the scalar
  reference path (``tests/scalar_reference.py``: every candidate lane
  priced by a scalar plan and cost) across every cost/policy/fallback
  configuration and assert byte-identical ``merge_trace`` and
  wirelength.
"""

import dataclasses

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
from repro.cts import BottomUpMerger, Sink
from repro.cts.dme import (
    BufferEveryEdgePolicy,
    CellDecision,
    EdgeCells,
    GateEveryEdgePolicy,
    PairCost,
    nearest_neighbor_cost,
)
from repro.cts import kernels
from repro.cts.merge import SkewBalanceError, Tap, zero_skew_split
from repro.geometry.point import Point
from repro.geometry.trr import Trr
from repro.obs import MetricsRegistry, set_registry
from repro.tech import date98_technology, unit_technology
from tests.scalar_reference import ScalarReferenceMerger

NUM_MODULES = 6  # paper_example_isa()

coords = st.floats(min_value=-1000.0, max_value=1000.0, allow_nan=False)
extents = st.floats(min_value=0.0, max_value=200.0, allow_nan=False)
caps = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
delays = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)
lengths = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)


@st.composite
def arcs(draw):
    """A random Manhattan arc (degenerate in one rotated axis)."""
    u, v = draw(coords), draw(coords)
    length = draw(extents)
    if draw(st.booleans()):
        return Trr(u, u + length, v, v)
    return Trr(u, u, v, v + length)


def batch_of(segments):
    return (
        np.array([s.ulo for s in segments]),
        np.array([s.uhi for s in segments]),
        np.array([s.vlo for s in segments]),
        np.array([s.vhi for s in segments]),
    )


class TestBatchDistanceParity:
    @settings(max_examples=200, deadline=None)
    @given(a=arcs(), others=st.lists(arcs(), min_size=1, max_size=8))
    def test_exact_equality_with_scalar(self, a, others):
        got = kernels.batch_segment_distance(
            a.ulo, a.uhi, a.vlo, a.vhi, *batch_of(others)
        )
        for j, b in enumerate(others):
            assert got[j] == a.distance_to(b)  # exact, not approx

    @settings(max_examples=200, deadline=None)
    @given(a=arcs(), b=arcs())
    def test_orientation_symmetric(self, a, b):
        ab = kernels.batch_segment_distance(
            a.ulo, a.uhi, a.vlo, a.vhi, *batch_of([b])
        )
        ba = kernels.batch_segment_distance(
            b.ulo, b.uhi, b.vlo, b.vhi, *batch_of([a])
        )
        assert ab[0] == ba[0] == a.distance_to(b)

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(arcs(), arcs()), min_size=1, max_size=8))
    def test_per_lane_query_segments(self, pairs):
        # A screen over many owners passes one query segment per lane.
        got = kernels.batch_segment_distance(
            *batch_of([a for a, _ in pairs]), *batch_of([b for _, b in pairs])
        )
        assert got.tolist() == [a.distance_to(b) for a, b in pairs]

    def test_touching_segments_have_zero_distance(self):
        a = Trr(0.0, 4.0, 0.0, 0.0)
        b = Trr(4.0, 8.0, 0.0, 0.0)
        got = kernels.batch_segment_distance(
            a.ulo, a.uhi, a.vlo, a.vhi, *batch_of([b])
        )
        assert got[0] == 0.0


SPLIT_TECHS = {
    "unit": unit_technology,
    "date98": date98_technology,
    "tiny-rc": lambda: dataclasses.replace(
        unit_technology(), unit_wire_resistance=1e-7, unit_wire_capacitance=1e-7
    ),
}

#: One lane: ``(L, cap_a, delay_a, cap_b, delay_b, cell_a, cell_b)``,
#: cells indexing :func:`lane_cells`.
split_lanes = st.tuples(
    st.one_of(st.just(0.0), lengths),
    caps,
    delays,
    caps,
    delays,
    st.integers(0, 2),
    st.integers(0, 2),
)


SPLIT_FIELDS = ("length_a", "length_b", "delay", "presented_a", "presented_b", "merged_cap")


def lane_cells(tech):
    """Plain wire, buffer, gate."""
    return (
        CellDecision(cell=None),
        CellDecision(cell=tech.buffer),
        CellDecision(cell=tech.masking_gate, maskable=True),
    )


def assert_lanes_match(tech, lanes):
    """Batch-split ``lanes`` with per-lane cells and check every lane
    against ``zero_skew_split``: equal to the bit where the scalar
    balances, unmodelled where it raises.  Returns the batch split and
    each lane's scalar branch."""
    cells = lane_cells(tech)
    length, cap_a, delay_a, cap_b, delay_b, code_a, code_b = map(np.array, zip(*lanes))
    table = EdgeCells(cells)
    split = kernels.batch_zero_skew_split(
        length,
        cap_a,
        delay_a,
        cap_b,
        delay_b,
        tech.unit_wire_resistance,
        tech.unit_wire_capacitance,
        cell_a=table.take(code_a),
        cell_b=table.take(code_b),
    )
    unmodelled = kernels.out_of_range_lanes(split)
    branches = []
    for j, (dist, ca, da, cb, db, ka, kb) in enumerate(lanes):
        tap_a = Tap(cap=ca, delay=da, cell=cells[ka].cell)
        tap_b = Tap(cap=cb, delay=db, cell=cells[kb].cell)
        try:
            scalar = zero_skew_split(dist, tap_a, tap_b, tech)
        except SkewBalanceError:
            branches.append("unbalanceable")
            assert j in unmodelled
            continue
        branches.append("snake %s" % scalar.snaked if scalar.snaked else "in range")
        assert j not in unmodelled
        assert bool(split.snake_a[j]) == (scalar.snaked == "a")
        assert bool(split.snake_b[j]) == (scalar.snaked == "b")
        for field in SPLIT_FIELDS:
            assert getattr(split, field)[j] == getattr(scalar, field), field
    return split, branches


class TestBatchSplitParity:
    """Cell-free batched splits agree with ``zero_skew_split`` exactly."""

    @settings(max_examples=300, deadline=None)
    @given(
        length=lengths,
        cap_a=caps,
        delay_a=delays,
        sides=st.lists(st.tuples(caps, delays), min_size=1, max_size=8),
    )
    def test_in_range_lanes_bit_identical(self, length, cap_a, delay_a, sides):
        tech = unit_technology()
        r, c = tech.unit_wire_resistance, tech.unit_wire_capacitance
        n = len(sides)
        split = kernels.batch_zero_skew_split(
            np.full(n, length),
            cap_a,
            delay_a,
            np.array([s[0] for s in sides]),
            np.array([s[1] for s in sides]),
            r,
            c,
        )
        tap_a = Tap(cap=cap_a, delay=delay_a)
        for j, (cap_b, delay_b) in enumerate(sides):
            scalar = zero_skew_split(length, tap_a, Tap(cap=cap_b, delay=delay_b), tech)
            # Classification always matches the scalar branch taken.
            assert bool(split.snake_a[j]) == (scalar.snaked == "a")
            assert bool(split.snake_b[j]) == (scalar.snaked == "b")
            assert bool(split.in_range[j]) == (scalar.snaked is None)
            if split.in_range[j]:
                # Exact equality on every modelled quantity.
                assert split.length_a[j] == scalar.length_a
                assert split.length_b[j] == scalar.length_b
                assert split.delay[j] == scalar.delay
                assert split.presented_a[j] == scalar.presented_a
                assert split.presented_b[j] == scalar.presented_b
                assert split.merged_cap[j] == scalar.merged_cap

    def test_degenerate_denominator_classification(self):
        # r*(cap_a+cap_b) + r*c*L == 0: the scalar branches on the skew.
        tech = unit_technology()
        r, c = tech.unit_wire_resistance, tech.unit_wire_capacitance
        split = kernels.batch_zero_skew_split(
            np.zeros(3),
            0.0,
            5.0,
            np.zeros(3),
            np.array([5.0, 9.0, 1.0]),  # equal / b slower / a slower
            r,
            c,
        )
        assert split.degenerate.all()
        assert bool(split.in_range[0]) and split.x[0] == 0.0
        assert bool(split.snake_a[1])  # b slower: snake a
        assert bool(split.snake_b[2])  # a slower: snake b

    def test_out_of_range_lanes_listed(self):
        tech = unit_technology()
        r, c = tech.unit_wire_resistance, tech.unit_wire_capacitance
        split = kernels.batch_zero_skew_split(
            np.array([10.0, 10.0]),
            1.0,
            0.0,
            np.array([1.0, 1.0]),
            np.array([0.0, 1e6]),  # balanced / wildly slower b: snake a
            r,
            c,
        )
        # The snaking lane is modelled: nothing is left to the scalar plan.
        assert bool(split.snake_a[1])
        assert kernels.out_of_range_lanes(split) == []
        # Wire without RC cannot snake: the scalar split raises there.
        split = kernels.batch_zero_skew_split(
            np.zeros(2), 1.0, 0.0, np.array([1.0, 1.0]), np.array([0.0, 5.0]), 0.0, 0.0
        )
        assert bool(split.snake_a[1])
        assert kernels.out_of_range_lanes(split) == [1]

    @settings(max_examples=300, deadline=None)
    @given(
        tech_name=st.sampled_from(sorted(SPLIT_TECHS)),
        lanes=st.lists(split_lanes, min_size=1, max_size=8),
    )
    def test_snaked_lanes_bit_identical(self, tech_name, lanes):
        # Per-lane cells (plain wire, buffer or gate on either side) and
        # L = 0 (co-located roots); the tiny-RC technology takes the
        # linear snake branch and leaves cell-free, unloaded lanes
        # unbalanceable.
        for branch in assert_lanes_match(SPLIT_TECHS[tech_name](), lanes)[1]:
            event(branch)

    def test_snake_branch_edges(self):
        tech = unit_technology()
        lanes = [
            # Degenerate denominator (L = 0, unloaded plain wire).
            (0.0, 0.0, 5.0, 0.0, 9.0, 0, 0),
            (0.0, 0.0, 5.0, 0.0, 1.0, 0, 0),
            # Skew inside the snake tolerance but x out of range: the
            # snake is zero and the edge takes max(0, L).
            (0.0, 1.0, 0.0, 1.0, 1e-13, 0, 0),
            (1e-14, 1.0, 0.0, 1.0, 1e-13, 0, 0),
            # Co-located roots of unequal delay behind different cells.
            (0.0, 2.0, 3.0, 1.0, 40.0, 2, 1),
        ]
        split, _ = assert_lanes_match(tech, lanes)
        assert split.degenerate[:2].tolist() == [True, True]
        assert split.snake_a.tolist() == [True, False, True, True, True]
        assert bool(split.snake_b[1])
        assert split.length_a[2:4].tolist() == [0.0, 1e-14]
        assert split.length_a[4] > 0.0

    def test_unbalanceable_lanes_raise_through_plan(self):
        # Zero-RC wire behind buffers: the degenerate balance sends the
        # slower side's partner snaking, which no wire can do.
        tech = dataclasses.replace(
            unit_technology(), unit_wire_resistance=0.0, unit_wire_capacitance=0.0
        )
        sinks = [Sink("a", Point(0, 0), 1.0, 0), Sink("b", Point(10, 0), 3.0, 1)]
        merger = BottomUpMerger(
            sinks, tech, cost=total_split_length_cost, cell_policy=BufferEveryEdgePolicy()
        )
        with pytest.raises(SkewBalanceError):
            merger._screen(np.array([0]), np.array([1]))
        assert merger.stats.plans_computed == 1  # the lane's scalar plan raised
        with pytest.raises(SkewBalanceError):
            merger.plan(0, 1)

    @settings(max_examples=200, deadline=None)
    @given(
        length=lengths,
        cap_a=caps,
        delay_a=delays,
        sides=st.lists(st.tuples(caps, delays), min_size=1, max_size=8),
        gates=st.booleans(),
    )
    def test_cell_lanes_bit_identical(self, length, cap_a, delay_a, sides, gates):
        # Cell-aware lanes (gate or buffer on both new edges, the case
        # every uniform cell policy produces) against the scalar split.
        tech = unit_technology()
        cell = tech.masking_gate if gates else tech.buffer
        r, c = tech.unit_wire_resistance, tech.unit_wire_capacitance
        n = len(sides)
        split = kernels.batch_zero_skew_split(
            np.full(n, length),
            cap_a,
            delay_a,
            np.array([s[0] for s in sides]),
            np.array([s[1] for s in sides]),
            r,
            c,
            cell_a=cell,
            cell_b=cell,
        )
        tap_a = Tap(cap=cap_a, delay=delay_a, cell=cell)
        for j, (cap_b, delay_b) in enumerate(sides):
            scalar = zero_skew_split(
                length, tap_a, Tap(cap=cap_b, delay=delay_b, cell=cell), tech
            )
            assert bool(split.snake_a[j]) == (scalar.snaked == "a")
            assert bool(split.snake_b[j]) == (scalar.snaked == "b")
            assert bool(split.in_range[j]) == (scalar.snaked is None)
            if split.in_range[j]:
                assert split.length_a[j] == scalar.length_a
                assert split.length_b[j] == scalar.length_b
                assert split.delay[j] == scalar.delay
                assert split.presented_a[j] == scalar.presented_a
                assert split.presented_b[j] == scalar.presented_b
                assert split.merged_cap[j] == scalar.merged_cap

    @settings(max_examples=200, deadline=None)
    @given(
        length=lengths,
        cap_b=caps,
        delay_b=delays,
        sides=st.lists(st.tuples(caps, delays), min_size=1, max_size=8),
        gates=st.booleans(),
    )
    def test_swapped_lanes_bit_identical(
        self, length, cap_b, delay_b, sides, gates
    ):
        # The kernel is broadcasting-symmetric: candidate arrays on the
        # *a*-side and the scalar query on the *b*-side reproduce the
        # scalar split in the swapped (other, query) orientation -- the
        # case the canonical init scans feed it for ids below the query.
        tech = unit_technology()
        cell = tech.masking_gate if gates else tech.buffer
        r, c = tech.unit_wire_resistance, tech.unit_wire_capacitance
        n = len(sides)
        split = kernels.batch_zero_skew_split(
            np.full(n, length),
            np.array([s[0] for s in sides]),
            np.array([s[1] for s in sides]),
            cap_b,
            delay_b,
            r,
            c,
            cell_a=cell,
            cell_b=cell,
        )
        tap_b = Tap(cap=cap_b, delay=delay_b, cell=cell)
        for j, (cap_a, delay_a) in enumerate(sides):
            scalar = zero_skew_split(
                length, Tap(cap=cap_a, delay=delay_a, cell=cell), tap_b, tech
            )
            assert bool(split.snake_a[j]) == (scalar.snaked == "a")
            assert bool(split.snake_b[j]) == (scalar.snaked == "b")
            assert bool(split.in_range[j]) == (scalar.snaked is None)
            if split.in_range[j]:
                assert split.length_a[j] == scalar.length_a
                assert split.length_b[j] == scalar.length_b
                assert split.delay[j] == scalar.delay
                assert split.presented_a[j] == scalar.presented_a
                assert split.presented_b[j] == scalar.presented_b
                assert split.merged_cap[j] == scalar.merged_cap


class TestNodeArrays:
    def test_set_row_mirrors_node(self):
        arrays = kernels.NodeArrays(10)

        class FakeNode:
            merging_segment = Trr(1.0, 2.0, 3.0, 3.0)
            subtree_cap = 4.0
            sink_delay = 5.0
            enable_probability = 0.25
            enable_transition_probability = 0.125

        arrays.set_row(1, FakeNode())
        arrays.set_row(9, FakeNode())
        for nid in (1, 9):
            assert (
                arrays.ulo[nid],
                arrays.uhi[nid],
                arrays.vlo[nid],
                arrays.vhi[nid],
            ) == (1.0, 2.0, 3.0, 3.0)
            assert arrays.cap[nid] == 4.0
            assert arrays.delay[nid] == 5.0
            assert arrays.enable_p[nid] == 0.25
            assert arrays.enable_ptr[nid] == 0.125

    def test_active_ids_add_discard(self):
        ids = kernels.ActiveIds(range(5), capacity=6)
        assert sorted(ids.view().tolist()) == [0, 1, 2, 3, 4]
        ids.discard(2)
        ids.discard(2)  # idempotent
        ids.add(7)
        assert len(ids) == 5
        assert sorted(ids.view().tolist()) == [0, 1, 3, 4, 7]
        assert sorted(ids.others(4).tolist()) == [0, 1, 3, 7]

    def test_rank_by_cost_breaks_ties_by_id(self):
        ids = np.array([9, 3, 5], dtype=np.int64)
        costs = np.array([1.0, 1.0, 0.5])
        assert ids[kernels.rank_by_cost(ids, costs)].tolist() == [5]
        assert ids[kernels.rank_by_cost(ids[:2], costs[:2])].tolist() == [3]
        # One best lane per group: cheapest cost, then the smaller id.
        ids = np.array([9, 3, 5, 8, 4, 2], dtype=np.int64)
        costs = np.array([1.0, 1.0, 2.0, 0.5, 0.5, 7.0])
        group = np.array([0, 0, 0, 1, 1, 2])
        best = kernels.rank_by_cost(ids, costs, group)
        assert ids[best].tolist() == [3, 4, 2]

    @settings(max_examples=200, deadline=None)
    @given(
        lanes=st.lists(
            st.tuples(
                st.integers(0, 4),
                st.sampled_from([0.0, 0.5, 1.0, 2.5, float("inf")]),
                st.integers(0, 40),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_rank_by_cost_is_min_per_group(self, lanes):
        group, costs, ids = (np.array(column) for column in zip(*lanes))
        best = kernels.rank_by_cost(ids, costs, group)
        expected = [
            min((c, i) for g, c, i in lanes if g == label)
            for label in sorted(set(group.tolist()))
        ]
        assert list(zip(costs[best].tolist(), ids[best].tolist())) == expected


# ----------------------------------------------------------------------
# full-merger trace determinism, batched screens vs scalar reference
# ----------------------------------------------------------------------


class TotalSplitLengthCost(PairCost):
    """Test-only split-dependent cost: the committed wirelength."""

    def batch(self, merger, lanes):
        _, length = lanes.edges
        n = lanes.distance.size
        return length[:n] + length[n:]


total_split_length_cost = TotalSplitLengthCost()


def _total_split_length_reference(plan, merger):
    return plan.split.total_length


def make_sinks(n, seed=0, span=200.0, cap_spread=1.0):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0, span, n)
    ys = rng.uniform(0, span, n)
    loads = rng.uniform(1.0, 1.0 + cap_spread, n)
    return [
        Sink(
            name="s%d" % i,
            location=Point(x, y),
            load_cap=load,
            module=i % NUM_MODULES,
        )
        for i, (x, y, load) in enumerate(zip(xs, ys, loads))
    ]


@pytest.fixture(scope="module")
def oracle():
    isa = paper_example_isa()
    stream = InstructionStream(ids=np.array(paper_example_stream()))
    return ActivityOracle(ActivityTables.from_stream(isa, stream))


def run_config(sinks, batched, **kwargs):
    """Route with the library's batched screens, or with the scalar
    reference path when ``batched`` is False."""
    if batched:
        merger = BottomUpMerger(sinks, unit_technology(), **kwargs)
    else:
        if kwargs.get("cost") is total_split_length_cost:
            kwargs["reference_cost"] = _total_split_length_reference
        merger = ScalarReferenceMerger(sinks, unit_technology(), **kwargs)
    tree = merger.run()
    return merger, merger.merge_trace, tree.total_wirelength()


class TestVectorizeTraceParity:
    """The batched screens never change a greedy decision, in any mode."""

    @pytest.mark.parametrize("limit", [None, 4])
    def test_nn_exact_screen(self, limit):
        sinks = make_sinks(48, seed=31)
        vec, trace_v, wl_v = run_config(
            sinks, True, cost=nearest_neighbor_cost, candidate_limit=limit
        )
        _, trace_s, wl_s = run_config(
            sinks, False, cost=nearest_neighbor_cost, candidate_limit=limit
        )
        assert vec.stats.plans_computed == len(trace_v)  # commits only
        assert trace_v == trace_s
        assert wl_v == wl_s

    def test_nn_buffered_policy(self):
        sinks = make_sinks(40, seed=32)
        _, trace_v, wl_v = run_config(
            sinks, True, cost=nearest_neighbor_cost,
            cell_policy=BufferEveryEdgePolicy(),
        )
        _, trace_s, wl_s = run_config(
            sinks, False, cost=nearest_neighbor_cost,
            cell_policy=BufferEveryEdgePolicy(),
        )
        assert trace_v == trace_s and wl_v == wl_s

    @pytest.mark.parametrize("limit", [None, 6])
    def test_eq3_exact_screen(self, oracle, limit):
        sinks = make_sinks(36, seed=33)
        common = dict(
            cost=switched_capacitance_cost,
            cell_policy=GateEveryEdgePolicy(),
            oracle=oracle,
            controller_point=Point(0.0, 0.0),
            candidate_limit=limit,
        )
        vec, trace_v, wl_v = run_config(sinks, True, **common)
        _, trace_s, wl_s = run_config(sinks, False, **common)
        assert vec.stats.kernel_batches > 0
        assert trace_v == trace_s and wl_v == wl_s

    @pytest.mark.parametrize("limit", [None, 6])
    def test_incremental_exact_screen(self, oracle, limit):
        # The count-once cost batches its merged probabilities through
        # activation signatures.
        sinks = make_sinks(30, seed=34)
        common = dict(
            cost=incremental_switched_capacitance_cost,
            cell_policy=GateEveryEdgePolicy(),
            oracle=oracle,
            controller_point=Point(0.0, 0.0),
            candidate_limit=limit,
        )
        vec, trace_v, wl_v = run_config(sinks, True, **common)
        _, trace_s, wl_s = run_config(sinks, False, **common)
        assert vec.stats.kernel_batches > 0
        assert trace_v == trace_s and wl_v == wl_s

    def test_eq3_data_dependent_policy_exact_screen(self, oracle):
        from repro.core.gate_reduction import GateReductionPolicy

        sinks = make_sinks(30, seed=35)
        policy = GateReductionPolicy.from_knob(0.5, unit_technology())
        common = dict(
            cost=switched_capacitance_cost,
            cell_policy=policy,
            oracle=oracle,
            controller_point=Point(0.0, 0.0),
        )
        vec, trace_v, wl_v = run_config(sinks, True, **common)
        _, trace_s, wl_s = run_config(sinks, False, **common)
        # Per-lane gate decisions: the merge-time section 4.3 rules run
        # on the same screen, lane by lane.
        assert vec.stats.plans_computed < len(sinks) * (len(sinks) - 1) // 2
        assert trace_v == trace_s and wl_v == wl_s

    @pytest.mark.parametrize("limit", [None, 5])
    def test_split_dependent_cost_with_snakes(self, limit, snaked_lanes):
        # Wildly uneven sink loads force snaked splits: the screen prices
        # those lanes in-kernel and must still match the scalar plans.
        sinks = make_sinks(36, seed=37, cap_spread=400.0)
        vec, trace_v, wl_v = run_config(
            sinks, True, cost=total_split_length_cost, candidate_limit=limit
        )
        _, trace_s, wl_s = run_config(
            sinks, False, cost=total_split_length_cost, candidate_limit=limit
        )
        assert sum(snaked_lanes) > 0
        assert vec.stats.plans_computed == len(trace_v)
        assert trace_v == trace_s
        assert wl_v == wl_s

    def test_embedded_locations_identical(self):
        sinks = make_sinks(24, seed=38)
        m_v, _, _ = run_config(sinks, True, cost=nearest_neighbor_cost)
        m_s, _, _ = run_config(sinks, False, cost=nearest_neighbor_cost)
        for nid in range(len(m_v.tree)):
            lv = m_v.tree.node(nid).location
            ls = m_s.tree.node(nid).location
            assert (lv.x, lv.y) == (ls.x, ls.y)


class TestKernelAccounting:
    def test_kernel_counters_advance(self):
        merger, trace, _ = run_config(
            make_sinks(32, seed=40), True, cost=nearest_neighbor_cost
        )
        s = merger.stats
        assert s.kernel_batches > 0
        assert s.kernel_candidates >= s.kernel_batches
        assert s.plans_computed == len(trace)
        snap = s.snapshot()
        for key in ("kernel_batches", "kernel_candidates", "plans_computed"):
            assert snap[key] == getattr(s, key)

    def test_kernel_counters_published(self):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            run_config(make_sinks(24, seed=42), True, cost=nearest_neighbor_cost)
        finally:
            set_registry(previous)
        assert registry.counter("dme.kernel_batches").value > 0
        assert registry.counter("dme.kernel_candidates").value > 0
        assert registry.counter("dme.plans_computed").value > 0

    def test_index_kernels_published(self, oracle):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            run_config(
                make_sinks(64, seed=43),
                True,
                cost=switched_capacitance_cost,
                cell_policy=GateEveryEdgePolicy(),
                oracle=oracle,
                controller_point=Point(0.0, 0.0),
                candidate_limit=6,
            )
        finally:
            set_registry(previous)
        # With a candidate limit the index measures every candidate
        # distance (the screens reuse them), so its kernels are the
        # ones counted: at least one per k-nearest query.
        queries = registry.counter("dme.index_queries").value
        assert queries > 0
        assert registry.counter("dme.kernel_batches").value >= queries


class TestNodeArraysTransport:
    """NodeArrays must survive pickling and SharedMemory transport
    bit-exactly -- the sharded worker pool ships per-shard state
    between processes and any dtype/layout drift would silently break
    the kernels' exact-parity contract."""

    def _routed_arrays(self):
        merger, _, _ = run_config(
            make_sinks(24, seed=9),
            True,
            cost=nearest_neighbor_cost,
            candidate_limit=4,
        )
        assert merger.node_arrays is not None
        return merger.node_arrays

    def test_pickle_round_trip_is_bit_exact(self):
        import pickle

        na = self._routed_arrays()
        clone = pickle.loads(pickle.dumps(na))
        for name in kernels.NodeArrays._FIELDS:
            src = getattr(na, name)
            dst = getattr(clone, name)
            assert dst.dtype == np.float64
            assert dst.shape == src.shape
            assert src.tobytes() == dst.tobytes()
        assert clone.sig.dtype == np.int64
        assert na.sig.tobytes() == clone.sig.tobytes()

    def test_pickle_protocol_layout_is_stable(self):
        # The pickled payload is exactly the slots dict: a layout
        # change (field rename/reorder/dtype) must be a deliberate,
        # test-visible decision, not an accident.
        na = self._routed_arrays()
        state = na.__reduce_ex__(2)
        assert kernels.NodeArrays._FIELDS == (
            "ulo", "uhi", "vlo", "vhi", "cap", "delay", "enable_p", "enable_ptr", "star",
        )
        assert set(kernels.NodeArrays.__slots__) == set(
            kernels.NodeArrays._FIELDS + ("sig",)
        )
        assert state is not None

    def test_shared_memory_round_trip_is_bit_exact(self):
        from multiprocessing import shared_memory

        na = self._routed_arrays()
        fields = kernels.NodeArrays._FIELDS + ("sig",)
        blocks = []
        try:
            for name in fields:
                src = getattr(na, name)
                shm = shared_memory.SharedMemory(create=True, size=src.nbytes)
                blocks.append(shm)
                view = np.ndarray(src.shape, dtype=src.dtype, buffer=shm.buf)
                view[:] = src
                back = np.ndarray(src.shape, dtype=src.dtype, buffer=shm.buf)
                assert back.dtype == src.dtype
                assert back.tobytes() == src.tobytes()
        finally:
            for shm in blocks:
                shm.close()
                shm.unlink()
