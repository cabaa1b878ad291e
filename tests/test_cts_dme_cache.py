"""Determinism and accounting tests for the merger's caching layer.

The batched candidate screens and the spatial candidate index are pure
accelerations: every greedy decision -- and therefore the
``merge_trace`` and the embedded tree -- must be *byte-identical* to
the scalar reference path of ``tests/scalar_reference.py`` (every lane
priced by a scalar plan and cost) and to a full-sort candidate scan.
These tests pin that invariant, plus the ``MergerStats`` accounting.
"""

import numpy as np
import pytest

from repro.activity import ActivityOracle, ActivityTables, InstructionStream
from repro.activity.isa import paper_example_isa, paper_example_stream
from repro.bench.suite import load_benchmark
from repro.core.cost import (
    incremental_switched_capacitance_cost,
    switched_capacitance_cost,
)
from repro.cts import BottomUpMerger, Sink
from repro.cts.dme import GateEveryEdgePolicy, nearest_neighbor_cost
from repro.geometry import Point
from repro.tech import date98_technology, unit_technology
from tests.scalar_reference import ScalarReferenceMerger

NUM_MODULES = 6  # paper_example_isa()


def make_sinks(n, seed=0, span=200.0):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0, span, n)
    ys = rng.uniform(0, span, n)
    return [
        Sink(name="s%d" % i, location=Point(x, y), load_cap=1.0, module=i % NUM_MODULES)
        for i, (x, y) in enumerate(zip(xs, ys))
    ]


@pytest.fixture(scope="module")
def oracle():
    isa = paper_example_isa()
    stream = InstructionStream(ids=np.array(paper_example_stream()))
    return ActivityOracle(ActivityTables.from_stream(isa, stream))


def build(sinks, oracle=None, cost=None, candidate_limit=None, merger_class=BottomUpMerger):
    kwargs = dict(candidate_limit=candidate_limit)
    if cost is not None:
        kwargs["cost"] = cost
    if oracle is not None:
        kwargs["oracle"] = oracle
        kwargs["cell_policy"] = GateEveryEdgePolicy()
        kwargs["controller_point"] = Point(0.0, 0.0)
    return merger_class(sinks, unit_technology(), **kwargs)


def unoriented(trace):
    """A merge trace with each pair's orientation dropped."""
    return [(min(a, b), max(a, b), merged) for a, b, merged in trace]


def run_config(sinks, **kwargs):
    merger = build(sinks, **kwargs)
    tree = merger.run()
    return merger, merger.merge_trace, tree.total_wirelength()


class FullSortMerger(BottomUpMerger):
    """Candidate retrieval by a full ``(distance, id)`` sort, no index."""

    def _candidates(self, nids):
        sizes, ids = [], []
        for nid in nids:
            ms = self.tree.node(nid).merging_segment
            ranked = sorted(
                self._active_ids.others(nid).tolist(),
                key=lambda o: (ms.distance_to(self.tree.node(o).merging_segment), o),
            )
            ranked = ranked[: self.candidate_limit]
            sizes.append(len(ranked))
            ids.extend(ranked)
        return np.array(sizes, dtype=np.int64), np.array(ids, dtype=np.int64), None


class TestDeterminism:
    """Traces and wirelength are bit-identical to the reference paths."""

    @pytest.mark.parametrize("limit", [None, 4])
    def test_eq3_cost_trace_identical(self, oracle, limit):
        sinks = make_sinks(36, seed=12)
        common = dict(oracle=oracle, cost=switched_capacitance_cost, candidate_limit=limit)
        _, base_trace, base_wl = run_config(
            sinks, merger_class=ScalarReferenceMerger, **common
        )
        _, trace, wl = run_config(sinks, **common)
        assert trace == base_trace
        assert wl == base_wl

    @pytest.mark.parametrize("limit", [None, 4])
    def test_nn_cost_trace_identical(self, limit):
        sinks = make_sinks(48, seed=13)
        common = dict(cost=nearest_neighbor_cost, candidate_limit=limit)
        _, base_trace, base_wl = run_config(
            sinks, merger_class=ScalarReferenceMerger, **common
        )
        _, trace, wl = run_config(sinks, **common)
        assert trace == base_trace
        assert wl == base_wl

    def test_index_path_matches_full_sort(self, oracle):
        # candidate_limit set: index-backed candidate retrieval vs a
        # full sort must pick identical candidates everywhere.
        sinks = make_sinks(44, seed=14)
        common = dict(
            oracle=oracle,
            cost=incremental_switched_capacitance_cost,
            candidate_limit=6,
        )
        _, trace_sorted, wl_sorted = run_config(
            sinks, merger_class=FullSortMerger, **common
        )
        _, trace_index, wl_index = run_config(sinks, **common)
        assert trace_index == trace_sorted
        assert wl_index == wl_sorted


class TestStatsAccounting:
    def test_screen_and_cache_cut_plan_evaluations(self, oracle):
        sinks = make_sinks(48, seed=21)
        common = dict(oracle=oracle, cost=incremental_switched_capacitance_cost)
        plain, _, _ = run_config(sinks, merger_class=ScalarReferenceMerger, **common)
        fast, _, _ = run_config(sinks, **common)
        # Batched lanes need no plan; only commits and fallbacks do.
        assert fast.stats.plans_computed < plain.stats.plans_computed
        assert fast.stats.plans_computed == len(sinks) - 1
        # Identical greedy decisions mean identical pop behaviour.
        assert fast.stats.heap_pops == plain.stats.heap_pops
        assert fast.stats.stale_entries == plain.stats.stale_entries

    def test_index_queries_counted(self, oracle):
        merger, _, _ = run_config(
            make_sinks(40, seed=22),
            oracle=oracle,
            cost=incremental_switched_capacitance_cost,
            candidate_limit=6,
        )
        assert merger.stats.index_queries > 0

    def test_heap_pops_cover_merges(self):
        n = 30
        merger, trace, _ = run_config(make_sinks(n, seed=23))
        assert len(trace) == n - 1
        assert merger.stats.heap_pops >= n - 1

    def test_snapshot_round_trip(self, oracle):
        merger, _, _ = run_config(
            make_sinks(16, seed=24),
            oracle=oracle,
            cost=incremental_switched_capacitance_cost,
        )
        d = merger.stats.snapshot()
        assert d["plans_computed"] == merger.stats.plans_computed
        assert set(d) >= {
            "plans_computed",
            "heap_pops",
            "stale_entries",
            "index_queries",
        }


class TestOracleMemo:
    def test_cache_info_counts_hits(self, oracle):
        # Fresh oracle so the module-scoped fixture's history can't leak.
        isa = paper_example_isa()
        stream = InstructionStream(ids=np.array(paper_example_stream()))
        fresh = ActivityOracle(ActivityTables.from_stream(isa, stream))
        first = fresh.signal_probability(0b101)
        second = fresh.signal_probability(0b101)
        assert first == second
        info = fresh.cache_info()["signal"]
        assert info.hits >= 1 and info.misses >= 1

    def test_memoized_matches_uncached(self, oracle):
        # A one-entry memo recomputes nearly every query; the default
        # one answers the repeats from its memo.  Both must agree
        # bit for bit.
        tiny = ActivityOracle(oracle.tables, cache_size=1)
        for mask in list(range(1, 1 << NUM_MODULES, 5)) * 2:
            assert tiny.signal_probability(mask) == oracle.signal_probability(mask)
            assert tiny.transition_probability(mask) == oracle.transition_probability(mask)


class TestRepairStrategies:
    """Lazy (pop-time) and eager (per-merge) re-pairing merge the same
    pairs in the same order; only the accounting of where recomputes
    happen moves.  They may orient a merge differently -- which node of
    the pair pops first -- so traces are compared without orientation:
    on r1 at scale 0.5 (134 sinks, gate on every edge, exact greedy),
    merges 70 and 72 come out flipped."""

    def test_lazy_is_default_without_candidate_limit(self, oracle):
        merger = build(
            make_sinks(8), oracle=oracle, cost=incremental_switched_capacitance_cost
        )
        assert not merger._eager_repair

    def test_candidate_limit_forces_eager(self, oracle):
        merger = build(
            make_sinks(8),
            oracle=oracle,
            cost=incremental_switched_capacitance_cost,
            candidate_limit=4,
        )
        assert merger._eager_repair

    @staticmethod
    def _lazy_and_eager(make):
        lazy, eager = make(), make()
        eager._eager_repair = True  # force the per-merge orphan loop
        lazy_tree, eager_tree = lazy.run(), eager.run()
        assert unoriented(eager.merge_trace) == unoriented(lazy.merge_trace)
        assert eager_tree.total_wirelength() == lazy_tree.total_wirelength()
        # The work moved, it did not change the decisions.
        assert lazy.stats.orphan_recomputes == 0
        assert lazy.stats.repair_recomputes > 0
        assert eager.stats.orphan_recomputes > 0
        assert eager.stats.repair_recomputes == 0

    @pytest.mark.parametrize(
        "cost", [incremental_switched_capacitance_cost, nearest_neighbor_cost],
        ids=["incremental", "nn"],
    )
    def test_lazy_and_eager_traces_identical(self, oracle, cost):
        sinks = make_sinks(40, seed=25)
        use_oracle = oracle if cost is incremental_switched_capacitance_cost else None
        self._lazy_and_eager(lambda: build(sinks, oracle=use_oracle, cost=cost))

    def test_lazy_and_eager_traces_identical_on_r1(self):
        tech = date98_technology()
        case = load_benchmark("r1", scale=0.5)
        self._lazy_and_eager(
            lambda: BottomUpMerger(
                case.sinks,
                tech,
                cost=incremental_switched_capacitance_cost,
                cell_policy=GateEveryEdgePolicy(),
                oracle=case.oracle,
                controller_point=case.die.center,
            )
        )

    def test_repair_counters_in_snapshot(self, oracle):
        merger, _, _ = run_config(
            make_sinks(20, seed=26),
            oracle=oracle,
            cost=incremental_switched_capacitance_cost,
        )
        snapshot = merger.stats.snapshot()
        assert "repair_recomputes" in snapshot
        assert "orphan_recomputes" in snapshot
