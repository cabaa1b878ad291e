"""Block index for the greedy merger's k-nearest candidate queries.

During bottom-up merging every active subtree root carries a merging
segment (a Manhattan arc), mirrored as one ``(ulo, uhi, vlo, vhi)`` row
of the merger's :class:`~repro.cts.kernels.NodeArrays`.  With a
``candidate_limit`` the greedy engine repeatedly needs, for one node,
its ``k`` nearest live segments.

:class:`SegmentBlockIndex` splits the live ids into spatial blocks of
about :data:`_BLOCK` ids (sort-tile-recursive over segment centers in
the rotated ``(u, v)`` coordinates, where Manhattan distance is the
Chebyshev distance).  Each block stores its members' extents in a
fixed-width slot row and keeps a high-water ``(u, v)`` bounding box of
them.  Every segment lies inside its block's box, so the segment
distance from a query to the box is a lower bound for every member.
A query bounds its distance to every box in one vectorized step,
takes blocks in bound order (its own block first) until they hold
``k`` ids, measures those members in one kernel, then adds every remaining block whose
bound is ``<=`` the k-th distance (at most one more kernel).  The
stop rule is strict -- a block whose bound *equals* the k-th distance
is still measured -- so distance ties are broken by id exactly as a
full ``(distance, id)`` sort breaks them.  With a population of one
block a query is a single kernel over that block.

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
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.check.errors import ContractError
from repro.cts import kernels

_BLOCK = 256
"""Target ids per block after a rebuild."""

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
        bound = self._bounds(ext)
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
        """Per block, a lower bound (possibly negative) of the distance
        from the segment with extents ``ext`` to every member."""
        ext = ext[:, None]
        gap = np.maximum(self._box[0::2] - ext[1::2], ext[0::2] - self._box[1::2])
        return np.maximum(gap[0], gap[1])

    def _members(self, query, blocks):
        """Ids and exact distances of every slot of ``blocks``."""
        ids = self._ids[blocks].ravel()
        return ids, self._measure(*query, *self._ext[:, blocks].reshape(4, -1))

    def nearest(self, nid: int, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """The ``k`` live ids nearest to node ``nid``'s segment.

        Returns ``(ids, distances)``: the first ``k`` live ids other
        than ``nid`` by ``(distance, id)`` -- exactly the set a full
        sort would pick -- in no particular order.
        """
        if k < 1:
            raise ContractError("k must be positive")
        own = self._slot.get(nid)
        k = min(k, len(self._slot) - (own is not None))
        if k <= 0:
            return np.empty(0, dtype=np.int64), np.empty(0)
        query = self._extents(nid)
        blocks = slice(0, 1)
        if self._count.size > 1:
            bound = self._bounds(query)
            if own is not None:
                bound[own[0]] = -np.inf  # the own block comes first
            order = np.argsort(bound)
            reach = 1
            if self._count[order[0]] <= k:
                reach += int(np.searchsorted(np.cumsum(self._count[order]), k + 1))
            blocks = order[:reach]
        ids, d = self._members(query, blocks)
        if own is not None:
            d[own[1]] = np.inf
        kth = np.partition(d, k - 1)[k - 1]
        if self._count.size > 1:
            more = int(np.searchsorted(bound[order], kth, side="right"))
            if more > reach:
                extra_ids, extra_d = self._members(query, order[reach:more])
                ids, d = np.concatenate((ids, extra_ids)), np.concatenate((d, extra_d))
                kth = np.partition(d, k - 1)[k - 1]
        pick = np.flatnonzero(d <= kth)
        if pick.size > k:  # ties at the k-th distance go to the smaller ids
            pick = pick[np.lexsort((ids[pick], d[pick]))[:k]]
        return ids[pick], d[pick]
