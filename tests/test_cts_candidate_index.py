"""Unit and property tests for the block candidate index."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cts import candidate_index
from repro.cts.candidate_index import SegmentBlockIndex
from repro.cts.kernels import NodeArrays, batch_segment_distance
from repro.geometry.point import Point
from repro.geometry.trr import Trr


def brute_force_nearest(segments, query, k, exclude=None):
    """The first ``k`` of a full ``(Trr.distance_to, id)`` sort."""
    ranked = sorted(
        (query.distance_to(seg), iid)
        for iid, seg in segments.items()
        if iid != exclude
    )
    return ranked[:k]


def nearest(index, nid, k):
    """One query's ``(ids, distances)``: a one-query batch."""
    ids, distances, _ = index.nearest_many((nid,), k)
    return ids, distances


def ranked(result):
    """An index result as ``(distance, id)`` pairs in sort order."""
    ids, distances = result
    return sorted(zip(distances.tolist(), ids.tolist()))


def arrays_of(segments, capacity=None):
    """A :class:`NodeArrays` whose row ``id`` holds ``segments[id]``."""
    arrays = NodeArrays(capacity or max(segments, default=0) + 1)
    for iid, seg in segments.items():
        write_row(arrays, iid, seg)
    return arrays


def write_row(arrays, iid, seg):
    arrays.ulo[iid], arrays.uhi[iid], arrays.vlo[iid], arrays.vhi[iid] = seg.bounds_uv


def random_segments(rng, n, span=100.0, max_arc=15.0):
    """id -> Trr map of random points and Manhattan arcs."""
    segments = {}
    for iid in range(n):
        p = Point(rng.uniform(0, span), rng.uniform(0, span))
        if rng.random() < 0.5:
            segments[iid] = Trr.from_point(p)
        else:
            length = rng.uniform(0.0, max_arc)
            if rng.random() < 0.5:
                seg = Trr(p.u, p.u + length, p.v, p.v)
            else:
                seg = Trr(p.u, p.u, p.v, p.v + length)
            segments[iid] = seg
    return segments


def indexed(segments, ids=None, capacity=None, measure=batch_segment_distance):
    arrays = arrays_of(segments, capacity)
    ids = segments if ids is None else ids
    return arrays, SegmentBlockIndex(arrays, ids, measure=measure)


class TestMaintenance:
    def test_insert_remove_contains(self):
        _, index = indexed({3: Trr.from_point(Point(1, 2))}, ids=())
        index.insert(3)
        assert 3 in index and len(index) == 1
        index.remove(3)
        assert 3 not in index and len(index) == 0

    def test_duplicate_insert_rejected(self):
        _, index = indexed({1: Trr.from_point(Point(0, 0))})
        with pytest.raises(ValueError):
            index.insert(1)

    def test_remove_missing_rejected(self):
        _, index = indexed({})
        with pytest.raises(KeyError):
            index.remove(7)

    def test_bad_k_rejected(self):
        _, index = indexed({0: Trr.from_point(Point(0, 0))})
        with pytest.raises(ValueError):
            nearest(index, 0, 0)

    def test_empty_query(self):
        _, index = indexed({0: Trr.from_point(Point(0, 0))}, ids=())
        ids, distances = nearest(index, 0, 3)
        assert ids.size == 0 and distances.size == 0

    def test_query_counters_advance(self):
        """Every member distance goes through the ``measure`` kernel."""
        lanes = []

        def measure(*extents):
            distances = batch_segment_distance(*extents)
            lanes.append(distances.size)
            return distances

        _, index = indexed(
            {i: Trr.from_point(Point(i, 0)) for i in range(5)}, measure=measure
        )
        nearest(index, 0, 2)
        assert len(lanes) == 1 and lanes[0] >= 4


class TestExactness:
    @pytest.mark.parametrize("max_arc", [0.5, 3.0, 17.0, 200.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force(self, max_arc, seed):
        # Well above one block, so queries take the multi-block path.
        rng = np.random.default_rng(seed)
        n = 5 * candidate_index._BLOCK
        segments = random_segments(rng, n, span=1000.0, max_arc=max_arc)
        queries = random_segments(rng, 30, span=1200.0, max_arc=max_arc)
        rows = dict(segments)
        rows.update({n + i: q for i, q in queries.items()})
        arrays, index = indexed(rows, ids=segments)
        for i, query in queries.items():
            k = int(rng.integers(1, 24))
            assert ranked(nearest(index, n + i, k)) == brute_force_nearest(
                segments, query, k
            )

    def test_exclude_matches_brute_force(self):
        rng = np.random.default_rng(3)
        segments = random_segments(rng, 40)
        _, index = indexed(segments)
        for iid in (0, 7, 39):
            got = ranked(nearest(index, iid, 5))
            assert got == brute_force_nearest(segments, segments[iid], 5, exclude=iid)

    def test_k_larger_than_population(self):
        segments = {i: Trr.from_point(Point(i, i)) for i in range(5)}
        _, index = indexed(segments, ids=range(4))
        ids, distances = nearest(index, 4, 10)
        assert sorted(ids.tolist()) == [0, 1, 2, 3]
        assert sorted(distances.tolist()) == [2.0, 4.0, 6.0, 8.0]

    def test_distance_ties_break_by_id(self):
        # Four points at identical distance from the origin query.
        points = [(5, 0), (-5, 0), (0, 5), (0, -5), (0, 0)]
        segments = {iid: Trr.from_point(Point(x, y)) for iid, (x, y) in enumerate(points)}
        _, index = indexed(segments, ids=range(4))
        assert ranked(nearest(index, 4, 2)) == [(5.0, 0), (5.0, 1)]

    def test_dynamic_updates_stay_exact(self):
        rng = np.random.default_rng(4)
        segments = random_segments(rng, 51)
        query = segments.pop(50)
        arrays, index = indexed(segments, capacity=51)
        write_row(arrays, 50, query)
        alive = dict(segments)
        for iid in range(0, 50, 3):
            index.remove(iid)
            del alive[iid]
        assert ranked(nearest(index, 50, 8)) == brute_force_nearest(alive, query, 8)


class TestRadiusHighWater:
    """The blocks' high-water boxes -- the reach of a query's search --
    re-tighten when the live population halves."""

    @staticmethod
    def _mixed_population(big_radius=40.0):
        """99 unit arcs plus one giant; the giant is id 0."""
        segments = {0: Trr(0.0, 2 * big_radius, 0.0, 0.0)}
        rng = np.random.default_rng(9)
        for iid in range(1, 100):
            p = Point(rng.uniform(0, 100), rng.uniform(0, 100))
            segments[iid] = Trr(p.u, p.u + 1.0, p.v, p.v)
        return segments

    @staticmethod
    def _covers_giant(index):
        """Does some block box still span the giant's ``u`` range?"""
        box = index._box
        return bool(np.any((box[0] <= 0.0) & (box[1] >= 80.0)))

    def test_recompute_fires_when_population_halves(self, monkeypatch):
        monkeypatch.setattr(candidate_index, "_BLOCK", 8)
        _, index = indexed(self._mixed_population())
        assert self._covers_giant(index)
        index.remove(0)  # the giant retires early: its box stays...
        assert self._covers_giant(index)
        for iid in range(1, 50):  # ...until the population halves
            index.remove(iid)
        assert not self._covers_giant(index)

    def test_tightened_bound_scans_fewer_cells(self, monkeypatch):
        """The rebuild pays off: late queries measure fewer lanes."""
        monkeypatch.setattr(candidate_index, "_BLOCK", 8)
        segments = self._mixed_population()

        class FrozenIndex(SegmentBlockIndex):
            def remove(self, nid):
                # Suppress the rebuild: boxes and dead slots persist.
                peak, self._peak = self._peak, 0
                try:
                    super().remove(nid)
                finally:
                    self._peak = peak

        lanes = {}
        for cls in (SegmentBlockIndex, FrozenIndex):
            measured = []

            def measure(*extents):
                distances = batch_segment_distance(*extents)
                measured.append(distances.size)
                return distances

            index = cls(arrays_of(segments), segments, measure=measure)
            for iid in range(0, 80):
                index.remove(iid)
            del measured[:]
            results = [ranked(nearest(index, iid, 4)) for iid in range(80, 100)]
            lanes[cls.__name__] = (sum(measured), results)
        assert lanes["SegmentBlockIndex"][0] < lanes["FrozenIndex"][0]
        assert lanes["SegmentBlockIndex"][1] == lanes["FrozenIndex"][1]

    def test_dynamic_updates_with_recompute_stay_exact(self, monkeypatch):
        monkeypatch.setattr(candidate_index, "_BLOCK", 6)
        rng = np.random.default_rng(11)
        segments = random_segments(rng, 81, max_arc=30.0)
        probe = 80
        del segments[probe]
        arrays, index = indexed(segments, capacity=81)
        alive = dict(segments)
        removal_order = list(rng.permutation(80))
        for step, iid in enumerate(removal_order[:70]):
            index.remove(int(iid))
            del alive[int(iid)]
            if step % 7 == 0 and alive:
                q = Trr.from_point(Point(rng.uniform(0, 100), rng.uniform(0, 100)))
                write_row(arrays, probe, q)
                assert ranked(nearest(index, probe, 5)) == brute_force_nearest(alive, q, 5)


def _segment(rng, side, grid, arc_share, giant=False):
    """A point or arc on an integer lattice of pitch ``grid`` (many
    exact distance ties and co-located centers)."""
    u, v = rng.integers(-side, side + 1, size=2) * grid
    if giant:
        return Trr(u - 4 * side * grid, u + 4 * side * grid, v, v)
    if rng.random() >= arc_share:
        return Trr(u, u, v, v)
    length = int(rng.integers(0, 4)) * grid
    return Trr(u, u + length, v, v) if rng.random() < 0.5 else Trr(u, u, v, v + length)


def _split(result):
    """A :meth:`SegmentBlockIndex.nearest_many` result as one ranked
    ``(distance, id)`` list per query."""
    ids, distances, sizes = result
    assert sizes.sum() == ids.size == distances.size
    ends = np.cumsum(sizes)
    return [
        ranked((ids[end - size : end], distances[end - size : end]))
        for size, end in zip(sizes.tolist(), ends.tolist())
    ]


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=300),
    block=st.sampled_from([2, 5, 16, candidate_index._BLOCK]),
    grid=st.sampled_from([1.0, 7.0, 40.0]),
    arc_share=st.sampled_from([0.0, 0.5, 1.0]),
    giant=st.booleans(),
    bulk=st.booleans(),
    k=st.integers(min_value=1, max_value=24),
    rounds=st.integers(min_value=1, max_value=6),
    group=st.sampled_from([1, 3, candidate_index._GRID_QUERIES]),
)
def test_property_matches_brute_force(
    seed, n, block, grid, arc_share, giant, bulk, k, rounds, group
):
    """Insert/remove sequences across several rebuilds stay exact.

    Each round's queries -- indexed ones and one from outside -- go in
    one :meth:`~SegmentBlockIndex.nearest_many` batch, on one block
    and on many, in groups of several sizes; every answer equals a
    one-query batch and a full ``(distance, id)`` sort, ties at the k-th distance (a
    lattice) and k beyond the population included."""
    rng = np.random.default_rng(seed)
    side = int(np.sqrt(n)) + 1
    capacity = n + 3 + rounds * (n // 2 + 2)
    arrays = NodeArrays(capacity)
    alive = {}

    def new_segment(iid, segment=None):
        if segment is None:
            segment = _segment(rng, side, grid, arc_share)
        write_row(arrays, iid, segment)
        alive[iid] = segment

    for iid in range(n):
        new_segment(iid)
    if giant:
        new_segment(n, _segment(rng, side, grid, arc_share, giant=True))
    next_id = len(alive)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(candidate_index, "_BLOCK", block)
        patch.setattr(candidate_index, "_GRID_QUERIES", group)
        index = SegmentBlockIndex(arrays, list(alive) if bulk else ())
        if not bulk:
            for iid in alive:
                index.insert(iid)
        probe = capacity - 1  # never indexed: a query from outside
        for _ in range(rounds):
            live = list(alive)
            for iid in rng.permutation(live)[: int(len(live) * rng.uniform(0.3, 0.7))]:
                index.remove(int(iid))
                del alive[int(iid)]
            for _ in range(int(rng.integers(0, n // 2 + 2))):
                twin = list(alive)[int(rng.integers(len(alive)))] if alive else None
                copy = alive[twin] if twin is not None and rng.random() < 0.3 else None
                new_segment(next_id, copy)
                index.insert(next_id)
                next_id += 1
            queries = [int(q) for q in rng.permutation(list(alive))[:6]]
            write_row(arrays, probe, _segment(rng, side, grid, arc_share))
            batch = queries[:3] + [probe] + queries[3:]
            for qid, got in zip(batch, _split(index.nearest_many(batch, k))):
                query = Trr(arrays.ulo[qid], arrays.uhi[qid], arrays.vlo[qid], arrays.vhi[qid])
                assert got == ranked(nearest(index, qid, k))
                assert got == brute_force_nearest(alive, query, k, exclude=qid)


def test_nearest_many_one_kernel_per_small_batch():
    """A batch over a one-block population is one kernel."""
    lanes = []

    def measure(*extents):
        distances = batch_segment_distance(*extents)
        lanes.append(distances.shape)
        return distances

    segments = {i: Trr.from_point(Point(i, 2 * i)) for i in range(40)}
    _, index = indexed(segments, measure=measure)
    ids, distances, sizes = index.nearest_many([3, 17, 29, 30], 5)
    assert len(lanes) == 1 and lanes[0][0] == 4
    assert sizes.tolist() == [5, 5, 5, 5]
    assert _split((ids, distances, sizes))[0] == brute_force_nearest(
        segments, segments[3], 5, exclude=3
    )


def test_nearest_many_without_candidates():
    """Queries with nothing to find get empty answers in place."""
    _, index = indexed({0: Trr.from_point(Point(0, 0)), 1: Trr.from_point(Point(3, 0))}, ids=[0])
    ids, distances, sizes = index.nearest_many([0, 1, 0], 4)
    assert sizes.tolist() == [0, 1, 0]
    assert ids.tolist() == [0] and distances.tolist() == [3.0]


def test_nearest_many_measures_only_the_blocks_each_query_reaches(monkeypatch):
    """Queries of one batch that straddle block borders are answered
    exactly, and each measures only its own block (for a query from
    outside, the block of least bound) and the blocks whose bound is
    within the k-th distance found there -- not the union of the
    blocks its batch reaches."""
    monkeypatch.setattr(candidate_index, "_BLOCK", 12)
    # A lattice: many exact distance ties, several blocks.
    segments = {
        i: Trr.from_point(Point(float(i % 12), float(i // 12))) for i in range(96)
    }
    probe = 96  # written, never indexed: a query from outside
    arrays = arrays_of(segments, capacity=97)
    write_row(arrays, probe, Trr.from_point(Point(5.5, 3.5)))
    rows = []

    def measure(*extents):
        distances = batch_segment_distance(*extents)
        for r, query in enumerate(zip(*(np.ravel(e) for e in extents[:4]))):
            rows.append((query, distances.shape[1] if distances.ndim == 2 else distances.size))
        return distances

    index = SegmentBlockIndex(arrays, segments, measure=measure)
    assert len(index._ids) >= 3
    k = 5
    # Corner and edge sinks of different blocks, plus the probe.
    queries = [0, 11, 47, 48, 95, probe]
    ids, distances, sizes = index.nearest_many(queries, k)
    extents = {
        nid: (arrays.ulo[nid], arrays.uhi[nid], arrays.vlo[nid], arrays.vhi[nid])
        for nid in queries
    }
    width = index._ids.shape[1]
    reached_all = set()
    for nid, got in zip(queries, _split((ids, distances, sizes))):
        query = Trr(*extents[nid])
        assert got == brute_force_nearest(segments, query, k, exclude=nid)
        bound = index._bounds(np.array(extents[nid]))[0]
        if nid in index:
            first = index._slot[nid][0]
        else:
            first = int(bound.argmin())
        own = [
            query.distance_to(segments[m])
            for m in index._ids[first].tolist()
            if m >= 0 and m != nid
        ]
        kth = sorted(own)[k - 1] if len(own) >= k else np.inf
        reached = {first} | set(np.flatnonzero(bound <= kth).tolist())
        reached_all |= reached
        lanes = sum(n for q, n in rows if q == extents[nid])
        assert lanes <= width * len(reached)
    # The batch reaches more blocks than any one query measures.
    assert len(reached_all) > max(
        sum(n for q, n in rows if q == extents[nid]) // width for nid in queries
    )
