"""Vectorized NumPy kernels for the DME hot path.

The greedy merger screens whole candidate *batches* at once: the
segment distances and zero-skew splits of every candidate pair are a
handful of NumPy array expressions instead of one Python call chain per
pair.

Exact-parity contract
---------------------
Every kernel mirrors its scalar counterpart **operation for operation**
in IEEE-754 double precision: the same subtractions, the same
association order, the same ``max``/``min`` structure.  NumPy's
elementwise float64 arithmetic performs the identical rounding to
CPython's float arithmetic, so the batched results are bit-identical
to the scalar ones -- not merely close.  The merger relies on this to
take every greedy decision from batched costs; the property tests in
``tests/test_cts_kernels.py`` assert exact float equality.

What is batched:

* :func:`batch_segment_distance` -- ``Trr.distance_to`` over
  ``(ulo, uhi, vlo, vhi)`` arrays;
* :func:`rank_by_cost` -- each owner's best lane by ``(cost, id)``,
  for screens that span many owners;
* :func:`batch_zero_skew_split` -- the
  ``repro.cts.merge.zero_skew_split`` linear balance ``x = num / den``
  (plain wires or cells on either edge, per lane), with the
  degenerate-denominator and out-of-range classification masks, and
  the snaked length of every out-of-range lane (``_snake_length``'s
  positive quadratic root, computed over the snaking lanes only).
  Only lanes whose scalar split raises ``SkewBalanceError`` are left
  unmodelled (:func:`out_of_range_lanes`); the merger takes those from
  the scalar ``plan()``, which raises the same error.  The merger
  builds :class:`BatchSplit` directly from per-edge arrays (both
  sides' edges concatenated, as it gathers them); the function takes
  the two sides apart, each a scalar or per-lane.

:class:`NodeArrays` is the struct-of-arrays mirror of per-node merge
state the merger writes as nodes are created;
:class:`ActiveIds` maintains the active-id array with O(1)
swap-removal so candidate gathers are single fancy-index operations.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional

import numpy as np

from repro.cts.merge import DEGENERATE_DEN_EPS, DEGENERATE_SKEW_EPS, SNAKE_EPS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (dme -> kernels)
    from repro.cts.topology import ClockNode


def rank_by_cost(
    ids: np.ndarray, costs: np.ndarray, group: Optional[np.ndarray] = None
) -> np.ndarray:
    """Index of each group's first lane by ``(cost, id)`` ascending.

    This is the scalar greedy's exact comparison: cheapest cost first,
    float ties broken by the smaller node id.  ``group`` labels each
    lane with its owner (non-negative integers); ``None`` is one group.

    Scalar counterpart: builtins.min -- of ``(cost, id)`` over each
    owner's candidates, one owner at a time.
    """
    if group is None:
        return np.lexsort((ids, costs))[:1]
    order = np.lexsort((ids, costs, group))
    ranked = group[order]
    first = np.empty(order.size, dtype=bool)
    first[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    return order[first]


def batch_segment_distance(
    a_ulo,
    a_uhi,
    a_vlo,
    a_vhi,
    b_ulo: np.ndarray,
    b_uhi: np.ndarray,
    b_vlo: np.ndarray,
    b_vhi: np.ndarray,
) -> np.ndarray:
    """``Trr.distance_to`` of query segments against a batch.

    The ``a_*`` extents are one query segment (scalars) or one per lane
    (arrays, as a screen over many owners passes them).  Mirrors
    ``_interval_gap``: ``max(0, lo2 - hi1, lo1 - hi2)`` per axis, then
    the max of the two gaps.  ``max`` is rounding-free, so the result
    is bit-identical to the scalar call in either pair orientation (the
    gap arguments just swap).

    Scalar counterpart: repro.geometry.trr.Trr.distance_to
    """
    gu = np.maximum(0.0, np.maximum(b_ulo - a_uhi, a_ulo - b_uhi))
    gv = np.maximum(0.0, np.maximum(b_vlo - a_vhi, a_vlo - b_vhi))
    return np.maximum(gu, gv)


class BatchSplit:
    """Vectorized ``zero_skew_split`` outcome over a candidate batch.

    Per-edge arrays run over the ``2n`` new edges of ``n`` lanes: the
    ``a`` edges, then the ``b`` edges.  ``cap`` and ``delay`` are the
    children's, ``cells`` exposes the per-edge ``drive_resistance``,
    ``intrinsic_delay``, ``input_cap`` and ``celled`` of the cells on
    the new edges (a :class:`repro.cts.dme.EdgeCells`; plain wire
    carries zero terms and ``celled`` False).

    The balance point ``x``, the classification masks and the edge
    lengths (``length``; ``length_a`` and ``length_b`` are its halves)
    are computed up front; ``delay``, ``presented_a`` / ``presented_b``
    and ``merged_cap`` on first access (the merger's screens read only
    the lengths).  Snaking lanes (``snake_a`` / ``snake_b``) carry the
    snaked length of their fast side, solved over those edges alone, in
    one pass for both sides.  Per-lane values are valid where
    ``modelled`` is True: on every lane except those whose scalar split
    raises ``SkewBalanceError``, which carry zeros.
    """

    def __init__(self, length, cap, delay, cells, r, c):
        self._edge = cap, delay, cells
        self._rc = r, c
        n = length.size
        side_a, side_b = slice(None, n), slice(n, None)
        drive = cells.drive_resistance
        # Tap.unloaded_delay: t' = D + R * C + t, association preserved.
        unloaded = cells.intrinsic_delay + drive * cap + delay
        ra, rb, cap_b = drive[side_a], drive[side_b], cap[side_b]
        den = c * (ra + rb) + r * (cap[side_a] + cap_b) + r * c * length
        skew = unloaded[side_b] - unloaded[side_a]
        num = length * (rb * c + r * cap_b) + r * c * length * length / 2.0 + skew

        self.degenerate = den <= DEGENERATE_DEN_EPS
        if self.degenerate.any():
            x = num / np.where(self.degenerate, 1.0, den)
            # Scalar classification: equal subtrees split trivially, a
            # slower side forces the snaking path via an out-of-range x.
            deg_x = np.where(
                np.abs(skew) <= DEGENERATE_SKEW_EPS,
                length / 2.0,
                np.where(skew > 0, length + 1.0, -1.0),
            )
            x = np.where(self.degenerate, deg_x, x)
        else:
            x = num / den
        self.x = x
        self.snake_b = x < 0.0
        self.snake_a = x > length
        self.in_range = ~(self.snake_a | self.snake_b)
        self.modelled = self.in_range.copy()
        self.length = np.where(
            np.concatenate((self.in_range, self.in_range)),
            np.concatenate((x, length - x)),
            0.0,
        )
        self.length_a, self.length_b = self.length[side_a], self.length[side_b]
        # A snaking side keeps a zero edge on the other side and grows
        # its own wire until it is as slow (zero_skew_split's branches).
        (edges,) = np.concatenate((self.snake_a, self.snake_b)).nonzero()
        if edges.size:
            lanes = edges % n
            self.length[edges], self.modelled[lanes] = _snake_length(
                length[lanes],
                (cap[edges], drive[edges], unloaded[edges]),
                unloaded[(edges + n) % (2 * n)],
                r,
                c,
            )

    @cached_property
    def delay(self):
        """Common delay from the merge point down to every sink."""
        r, c = self._rc
        cap, delay, cells = self._edge
        edge = _edge_delay(
            self.length, cap, delay, cells.drive_resistance, cells.intrinsic_delay, r, c
        )
        return np.maximum(edge[: self.x.size], edge[self.x.size :])

    @cached_property
    def _presented(self):
        """``Tap.presented_cap`` of every edge: the cell's input pin,
        else the wire load."""
        cap, _, cells = self._edge
        return np.where(cells.celled, cells.input_cap, self._rc[1] * self.length + cap)

    @property
    def presented_a(self):
        return self._presented[: self.x.size]

    @property
    def presented_b(self):
        return self._presented[self.x.size :]

    @property
    def merged_cap(self):
        return self.presented_a + self.presented_b


def _edge_delay(e, cap, delay, drive, intrinsic, r, c):
    """``Tap.edge_delay``: delay from the edge top down to the sinks."""
    return intrinsic + drive * (c * e + cap) + r * e * (c * e / 2.0 + cap) + delay


def _snake_length(length, fast, target, r, c):
    """``(lengths, modelled)`` of snaking lanes' fast sides.

    ``fast`` is the fast side's ``(cap, drive, unloaded delay)`` and
    ``target`` the slow side's unloaded delay ``t'``.  Each lane solves
    ``merge._snake_length`` against that target, then takes
    ``max(e, length)``.  Lanes where the scalar call raises
    ``SkewBalanceError`` are unmodelled and carry 0.0.

    Scalar counterpart: repro.cts.merge._snake_length
    """
    cap, drive, unloaded = fast
    quad = r * c / 2.0
    lin = drive * c + r * cap
    const = unloaded - target
    flat = const >= -SNAKE_EPS  # already as slow: no snake
    modelled = ~(const > SNAKE_EPS)
    # Lanes that take another branch may divide by zero, overflow or
    # root a negative here; np.where discards them.
    with np.errstate(all="ignore"):
        if quad <= SNAKE_EPS:
            modelled &= flat | (lin > SNAKE_EPS)
            e = -const / lin
        else:
            disc = lin * lin - 4.0 * quad * const
            e = (-lin + np.sqrt(disc)) / (2.0 * quad)
    e = np.where(flat, 0.0, e)
    # max(e, length) as Python evaluates it: length only when larger.
    return np.where(modelled, np.where(length > e, length, e), 0.0), modelled


class _EdgeCellTerms(NamedTuple):
    """The per-edge cell terms :class:`BatchSplit` reads."""

    drive_resistance: np.ndarray
    intrinsic_delay: np.ndarray
    input_cap: np.ndarray
    celled: np.ndarray


def _cell_term(cell, name: str):
    """One side's ``name`` term: zero (``celled`` False) on plain wire,
    else the cell's (``celled`` True unless per-lane cells say)."""
    if cell is None:
        return False if name == "celled" else 0.0
    return getattr(cell, name, True)


def batch_zero_skew_split(
    length: np.ndarray,
    cap_a: float,
    delay_a: float,
    cap_b: np.ndarray,
    delay_b: np.ndarray,
    r: float,
    c: float,
    cell_a=None,
    cell_b=None,
) -> BatchSplit:
    """``zero_skew_split`` over a batch of candidates.

    Every argument is a per-lane array or a scalar broadcast over the
    lanes, and every expression below is elementwise, so each lane
    reproduces the scalar function's float chain in its own pair
    orientation.  ``cell_a`` / ``cell_b`` are the cells on the two new
    edges: ``None`` for plain wire, one cell model (exposing
    ``drive_resistance`` / ``intrinsic_delay`` / ``input_cap``) for
    every lane, or per-lane :class:`repro.cts.dme.EdgeCells` whose
    plain-wire lanes (``celled`` False) carry zero drive and intrinsic
    terms.  Those terms vanish exactly on plain wire
    (``0.0 * finite == 0.0`` and ``0.0 + x == x`` for the non-negative
    operands involved), so the in-range path is bit-identical to the
    scalar one with or without cells.

    Scalar counterpart: repro.cts.merge.zero_skew_split
    """
    length = np.asarray(length)

    def edges(a, b):
        return np.concatenate((np.broadcast_to(a, length.shape), np.broadcast_to(b, length.shape)))

    cells = _EdgeCellTerms(
        *(
            edges(_cell_term(cell_a, name), _cell_term(cell_b, name))
            for name in _EdgeCellTerms._fields
        )
    )
    return BatchSplit(length, edges(cap_a, cap_b), edges(delay_a, delay_b), cells, r, c)


def out_of_range_lanes(split: BatchSplit) -> list:
    """Lane indices the batch split could not model: those whose scalar
    split raises ``SkewBalanceError``.

    Scalar counterpart: none -- mask bookkeeping over
    :class:`BatchSplit`; a scalar ``zero_skew_split`` of these lanes
    raises the error.
    """
    return np.flatnonzero(~split.modelled).tolist()


class NodeArrays:
    """Struct-of-arrays mirror of the merger's per-node state.

    One float64 row per node id: merging-segment extents in rotated
    coordinates, presented subtree capacitance, zero-skew sink delay,
    and what the Eq. 3 cost terms read -- the enable probabilities and
    the enable-star length from the controller to the segment center.  ``sig``
    holds activation signatures
    (:meth:`repro.activity.probability.ActivityOracle.activation_signature`):
    an ``int64`` column, or Python ints in an object column when
    ``wide_signatures`` is set (ISAs wider than 63 instructions).
    Signatures of merged pairs are one bitwise OR away, which is what
    lets the costs batch the oracle lookups.  Rows are written once, as
    nodes are created, and never change afterwards, so candidate
    gathers are plain fancy indexing.  The arrays never grow:
    ``capacity`` must exceed every id written (the merger passes its
    ``2N - 1`` node ids).
    """

    _FIELDS = (
        "ulo",
        "uhi",
        "vlo",
        "vhi",
        "cap",
        "delay",
        "enable_p",
        "enable_ptr",
        "star",
    )

    __slots__ = _FIELDS + ("sig",)

    def __init__(self, capacity: int, wide_signatures: bool = False):
        capacity = max(1, int(capacity))
        for name in self._FIELDS:
            setattr(self, name, np.zeros(capacity, dtype=np.float64))
        self.sig = np.zeros(capacity, dtype=object if wide_signatures else np.int64)

    def set_row(
        self, nid: int, node: "ClockNode", sig: int = 0, star: float = 0.0
    ) -> None:
        """Mirror one node's merge state under its id."""
        seg = node.merging_segment
        self.ulo[nid], self.uhi[nid], self.vlo[nid], self.vhi[nid] = seg.bounds_uv
        self.cap[nid] = node.subtree_cap
        self.delay[nid] = node.sink_delay
        self.enable_p[nid] = node.enable_probability
        self.enable_ptr[nid] = node.enable_transition_probability
        self.star[nid] = star
        self.sig[nid] = sig


class ActiveIds:
    """Dense ``int64`` array of active node ids with O(1) add/remove.

    Removal swaps the last id into the vacated slot, so the live prefix
    stays contiguous and a candidate batch is one slice (order is
    arbitrary -- the kernels rank by ``(cost, id)``, which is
    order-independent).  ``capacity`` bounds the ids live at once; it
    never grows.
    """

    __slots__ = ("_ids", "_pos", "_count")

    def __init__(self, ids: Iterable[int], capacity: int):
        self._ids = np.empty(max(1, int(capacity)), dtype=np.int64)
        self._pos = {}
        self._count = 0
        for nid in ids:
            self.add(nid)

    def __len__(self) -> int:
        return self._count

    def add(self, nid: int) -> None:
        if nid in self._pos:
            return
        self._ids[self._count] = nid
        self._pos[nid] = self._count
        self._count += 1

    def discard(self, nid: int) -> None:
        pos = self._pos.pop(nid, None)
        if pos is None:
            return
        last = self._count - 1
        if pos != last:
            moved = int(self._ids[last])
            self._ids[pos] = moved
            self._pos[moved] = pos
        self._count = last

    def view(self) -> np.ndarray:
        """The live ids (a borrowed view; do not mutate)."""
        return self._ids[: self._count]

    def others(self, nid: int) -> np.ndarray:
        """The live ids except ``nid`` (a fresh array)."""
        view = self.view()
        return view[view != nid]
