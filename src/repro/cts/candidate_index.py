"""Block index for the greedy merger's k-nearest candidate queries.

During bottom-up merging every active subtree root carries a merging
segment (a Manhattan arc), mirrored as one ``(ulo, uhi, vlo, vhi)`` row
of the merger's :class:`~repro.cts.kernels.NodeArrays`.  With a
``candidate_limit`` the greedy engine repeatedly needs, for a few
nodes at once (a merge step's merged node and its orphans), their
``k`` nearest live segments.

:class:`SegmentBlockIndex` splits the live ids into spatial blocks of
about :data:`_BLOCK` ids (sort-tile-recursive over segment centers in
the rotated ``(u, v)`` coordinates, where Manhattan distance is the
Chebyshev distance).  Each block stores its members' extents in a
fixed-width slot row and keeps a high-water ``(u, v)`` bounding box of
them.  Every segment lies inside its block's box, so the segment
distance from a query to the box is a lower bound for every member.
:meth:`~SegmentBlockIndex.nearest_many` answers a batch of queries
in at most two kernels, and each query measures only the blocks it
reaches.  Pass 1 measures every query against its first block -- its
own, or for a query from outside the one of least bound -- in one
query x slot grid; pass 2 measures, per query, every other block whose
bound is ``<=`` that query's k-th distance so far, as one ragged
gather of (query, block) pairs.  A one-block population is one kernel.
The stop rule is strict -- a block whose bound *equals* the k-th
distance is still measured -- so distance ties are broken by id
exactly as a full ``(distance, id)`` sort breaks them.

Removals leave a dead slot (infinitely far from any query) and never
shrink a box; the blocks are re-derived from the live population
whenever it halves, which re-tightens the boxes and compacts the slots.
An insert takes a free slot in the nearest block that has one and
widens that block's box (the blocks are re-derived when every block
is full).

Results are the ``(Trr.distance_to, id)`` top-k *set*, measured by the
bit-exact :func:`~repro.cts.kernels.batch_segment_distance`, and come
back with their distances so the merger need not measure them again.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.check.errors import ContractError
from repro.cts import kernels

_BLOCK = 256
"""Target ids per block after a rebuild."""

_GRID_QUERIES = 64
"""Queries per group of :meth:`SegmentBlockIndex.nearest_many` (bounds
its temporaries)."""

_DEAD = (np.inf, -np.inf, np.inf, -np.inf)
"""Extents of an empty slot or box: infinitely far from every segment."""


class SegmentBlockIndex:
    """k-nearest queries over ``NodeArrays`` rows, by bounding-box blocks.

    Parameters
    ----------
    arrays:
        The :class:`~repro.cts.kernels.NodeArrays` whose rows hold the
        segment extents; a row must be written before its id is
        inserted and must not change while it is indexed.
    ids:
        The initially live ids.
    measure:
        The segment-distance kernel for member distances, with the
        signature of :func:`~repro.cts.kernels.batch_segment_distance`
        (the merger passes a counting wrapper of it).
    """

    def __init__(
        self,
        arrays: kernels.NodeArrays,
        ids: Iterable[int] = (),
        measure=kernels.batch_segment_distance,
    ):
        self._arrays = arrays
        self._measure = measure
        self._slot: Dict[int, Tuple[int, int]] = {}
        self._rebuild(list(ids))

    def __len__(self) -> int:
        return len(self._slot)

    def __contains__(self, nid: int) -> bool:
        return nid in self._slot

    def _extents(self, nid) -> np.ndarray:
        a = self._arrays
        return np.array((a.ulo[nid], a.uhi[nid], a.vlo[nid], a.vhi[nid]))

    def _rebuild(self, ids: List[int]) -> None:
        """Re-derive the blocks from the live ``ids``."""
        live = np.array(ids, dtype=np.int64)
        ulo, uhi, vlo, vhi = ext = self._extents(live).reshape(4, -1)
        # Sort-tile-recursive: about sqrt(n / _BLOCK) slabs along u,
        # each cut along v into blocks of at most _BLOCK ids.
        slabs = math.isqrt(max(0, -(-live.size // _BLOCK) - 1)) + 1
        blocks = []
        for slab in np.array_split(np.argsort(ulo + uhi, kind="stable"), slabs):
            slab = slab[np.argsort(vlo[slab] + vhi[slab], kind="stable")]
            blocks.extend(np.array_split(slab, max(1, -(-slab.size // _BLOCK))))
        # Spare slots let inserts (a merge's new node lands near the
        # two it replaces) find room without a rebuild.
        width = max(b.size for b in blocks)
        width += width // 4 + 1
        self._ext = np.empty((4, len(blocks), width))
        self._ext[:] = np.array(_DEAD)[:, None, None]
        self._ids = np.full((len(blocks), width), -1, dtype=np.int64)
        self._box = np.empty((4, len(blocks)))
        self._box[:] = np.array(_DEAD)[:, None]
        self._count = np.array([b.size for b in blocks], dtype=np.int64)
        self._free = [list(range(width - 1, b.size - 1, -1)) for b in blocks]
        self._slot = {}
        for j, members in enumerate(blocks):
            self._ext[:, j, : members.size] = ext[:, members]
            self._ids[j, : members.size] = live[members]
            if members.size:
                self._box[0::2, j] = ext[0::2, members].min(axis=1)
                self._box[1::2, j] = ext[1::2, members].max(axis=1)
            self._slot.update((nid, (j, s)) for s, nid in enumerate(live[members].tolist()))
        self._peak = live.size

    def insert(self, nid: int) -> None:
        """Index node ``nid`` (its ``NodeArrays`` row is its segment)."""
        if nid in self._slot:
            raise ContractError("id %d is already indexed" % nid)
        ext = self._extents(nid)
        bound = self._bounds(ext)[0]
        bound[self._count >= self._ids.shape[1]] = np.inf
        j = int(bound.argmin())
        if not self._free[j]:  # every block is full
            self._rebuild(list(self._slot) + [nid])
            return
        s = self._free[j].pop()
        self._slot[nid] = (j, s)
        self._ext[:, j, s] = ext
        self._ids[j, s] = nid
        self._count[j] += 1
        box = self._box[:, j]
        box[0::2] = np.minimum(box[0::2], ext[0::2])
        box[1::2] = np.maximum(box[1::2], ext[1::2])
        self._peak = max(self._peak, len(self._slot))

    def remove(self, nid: int) -> None:
        """Drop node ``nid``; raises ``KeyError`` if it is not indexed."""
        j, s = self._slot.pop(nid)
        self._ext[:, j, s] = _DEAD
        self._ids[j, s] = -1
        self._count[j] -= 1
        self._free[j].append(s)
        if 2 * len(self._slot) <= self._peak:
            self._rebuild(list(self._slot))

    def _bounds(self, ext: np.ndarray) -> np.ndarray:
        """Per query and block, a lower bound (possibly negative) of the
        distance from the query segment to every member of the block.

        ``ext`` holds one query's extents or a ``(4, q)`` array of them;
        the result has one row per query."""
        ext = ext.reshape(4, -1, 1)
        box = self._box[:, None, :]
        gap = np.maximum(box[0::2] - ext[1::2], ext[0::2] - box[1::2])
        return np.maximum(gap[0], gap[1])

    def _gather(self, query: np.ndarray, reach: np.ndarray):
        """``(ids, distances)`` of each query ``i`` against the slots of
        the blocks ``reach[i]`` marks, as two ``(q, r * width)`` grids
        with ``r`` the most blocks a query reaches; a query reaching
        fewer has its grid padded with unmeasured infinite distances.
        """
        row, block = reach.nonzero()
        counts = reach.sum(axis=1)
        real = np.arange(counts.max()) < counts[:, None]
        blocks = np.zeros(real.shape, dtype=np.intp)
        blocks[real] = block
        ids = self._ids[blocks]
        d = np.full(ids.shape, np.inf)
        d[real] = self._measure(*query[:, row, None], *self._ext[:, block])
        return ids.reshape(len(reach), -1), d.reshape(len(reach), -1)

    def nearest_many(
        self, nids: Sequence[int], k: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``k`` live ids nearest to each node of ``nids``.

        Returns ``(ids, distances, sizes)``: the answers of the queries
        concatenated in ``nids`` order, ``sizes[i]`` entries for
        ``nids[i]``.  Each answer is the first ``k`` live ids other than
        the query by ``(distance, id)`` -- exactly the set a full sort
        would pick -- in no particular order.  A query id may be
        indexed (it is then excluded from its own answer) or not (its
        row must still be written).

        Queries are answered in groups of at most :data:`_GRID_QUERIES`.
        Pass 1 measures, in one kernel, each query's first block (its
        own, else the one of least bound), and pass 2, in at most one
        more, each further block whose bound is ``<=`` that query's k-th
        distance after pass 1; a query measures no block it does not
        reach.  A slot left unmeasured for a query is therefore strictly
        farther than its k-th distance, and ties at it are broken by id.
        """
        if k < 1:
            raise ContractError("k must be positive")
        slots = [self._slot.get(nid) for nid in nids]
        live = len(self._slot)
        rows = [i for i, own in enumerate(slots) if live > (own is not None)]
        if len(rows) == len(slots) <= _GRID_QUERIES:
            return self._answer(nids, slots, k)
        sizes = np.zeros(len(slots), dtype=np.int64)
        if not rows:
            return np.empty(0, dtype=np.int64), np.empty(0), sizes
        ids, d = [], []
        for start in range(0, len(rows), _GRID_QUERIES):
            group = rows[start : start + _GRID_QUERIES]
            group_ids, group_d, sizes[group] = self._answer(
                [nids[i] for i in group], [slots[i] for i in group], k
            )
            ids.append(group_ids)
            d.append(group_d)
        return np.concatenate(ids), np.concatenate(d), sizes

    def _answer(self, nids, slots, k):
        """:meth:`nearest_many` of one group of queries, each with at
        least one live id to find."""
        live = len(self._slot)
        want = np.array([min(k, live - (own is not None)) for own in slots])
        indexed = [i for i, own in enumerate(slots) if own is not None]
        if len(indexed) == len(slots):
            block, slot = np.array(slots).T
            query = self._ext[:, block, slot]
        else:
            query = self._extents(np.array(nids, dtype=np.int64)).reshape(4, -1)
            block, slot = np.array([slots[i] for i in indexed], dtype=np.int64).reshape(-1, 2).T
        n = len(self._ids)
        # Pass 1 measures each query's first block: its own, else the
        # one of least bound.  The own slot is then at column ``slot``.
        if n == 1:
            first = np.zeros(len(slots), dtype=np.intp)
        else:
            bound = self._bounds(query)
            bound[indexed, block] = -np.inf
            first = bound.argmin(axis=1)
        d = self._measure(*query[:, :, None], *self._ext[:, first])
        ids = self._ids[first]
        d[indexed, slot] = np.inf
        kth = self._kth(d, want)
        if n > 1:
            # Pass 2, per query: every other block whose bound is <= its
            # k-th distance so far.
            reach = bound <= kth[:, None]
            reach[np.arange(len(slots)), first] = False
            if reach.any():
                more_ids, more_d = self._gather(query, reach)
                ids = np.concatenate((ids, more_ids), axis=1)
                d = np.concatenate((d, more_d), axis=1)
                kth = self._kth(d, want)
        pick = d <= kth[:, None]
        rows, cols = pick.nonzero()
        if rows.size > want.sum():
            counts = pick.sum(axis=1)
            for i in np.flatnonzero(counts > want).tolist():
                # Ties at the k-th distance go to the smaller ids.
                tied = np.flatnonzero(pick[i])
                pick[i] = False
                pick[i, tied[np.lexsort((ids[i, tied], d[i, tied]))[: want[i]]]] = True
            rows, cols = pick.nonzero()
        return ids[rows, cols], d[rows, cols], want

    @staticmethod
    def _kth(d: np.ndarray, want: np.ndarray) -> np.ndarray:
        """Each row's ``want[i]``-th smallest distance (infinite when the
        row is narrower than that)."""
        ranks = sorted(set(want.tolist()))
        if ranks[-1] > d.shape[1]:
            d = np.concatenate((d, np.full((len(d), ranks[-1] - d.shape[1]), np.inf)), axis=1)
        if len(ranks) == 1:
            return np.partition(d, ranks[0] - 1, axis=1)[:, ranks[0] - 1]
        part = np.partition(d, [r - 1 for r in ranks], axis=1)
        return part[np.arange(len(want)), want - 1]
