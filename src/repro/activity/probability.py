"""Enable-signal probabilities from the activity tables.

``ActivityOracle`` answers, for an arbitrary module subset (bitmask):

* ``signal_probability`` -- ``P(EN) = P(M_a v M_b v ...)``: sum the IFT
  over instructions whose usage mask intersects the subset.  O(K) per
  query after O(K * L) setup, matching the paper's complexity claim.
* ``transition_probability`` -- ``P_tr(EN)``: sum the IMATT pair
  probabilities over instruction pairs whose OR-ed activation tags
  toggle the enable, i.e. pairs where exactly one of the two
  instructions activates the subset.  Vectorized to
  ``a^T P (1-a) + (1-a)^T P a`` with ``a`` the activation indicator --
  O(K^2) per query, the paper's O(K * N) with the tag lookups folded
  into bit operations.
* ``statistics`` -- both of the above in one :class:`EnableStatistics`.

``scan_stream_probabilities`` is the brute-force reference (rescan the
whole trace per query); the test suite asserts exact agreement, which
is the correctness claim of paper section 3.3.

Activation signatures
---------------------
Both probabilities depend on the module mask only through its
*activation signature*: the K-bit indicator (bit ``i`` set iff
instruction ``i``'s usage mask intersects the subset).  Signatures
compose under set union by bitwise OR -- the signature of
``mask_a | mask_b`` is ``sig_a | sig_b`` -- which is what makes the
merger's candidate screens vectorizable: it keeps one ``int64``
signature per node and forms whole batches of merged-pair signatures
with a single ``np.bitwise_or``.

The oracle therefore keeps exactly three memos: mask -> signature,
signature -> ``P(EN)`` and signature -> ``P_tr(EN)``.  Every query,
scalar or batched (:meth:`ActivityOracle.batch_probabilities`), reads
its probabilities from the two signature memos -- the mask entry points
map the mask to its signature and call the signature ones
(:meth:`ActivityOracle.signature_probability`,
:meth:`ActivityOracle.signature_statistics`) -- so each value has one
derivation and batched and scalar lookups are bit-identical by
construction.  A caller that already holds a signature (the merger ORs
its children's) prices it without touching the mask memo.  A batch
reads the ``P(EN)`` memo without a Python call per lane and derives
each distinct signature it misses once, decoding all of them with one
``unpackbits``; each miss is then the same 1-D ``row @ ift`` dot as a
scalar miss, so the two paths agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, NamedTuple, Tuple

import numpy as np

from repro.activity.isa import InstructionSet
from repro.quantity import Probability
from repro.activity.stream import InstructionStream
from repro.activity.tables import ActivityTables


@dataclass(frozen=True)
class EnableStatistics:
    """The two quantities the router needs for one enable signal."""

    signal_probability: Probability
    transition_probability: Probability


class MemoInfo(NamedTuple):
    """Hit/miss counts of the ``P(EN)`` memo, shaped like
    ``functools.lru_cache``'s ``cache_info()``."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


class ActivityOracle:
    """Table-driven ``P(EN)`` / ``P_tr(EN)`` computation.

    Results are memoized per activation signature (per instance): the
    greedy merger probes the same merged subsets over and over -- every
    candidate scan re-unions the same active masks -- so repeated
    probes should cost a dictionary hit, not a K^2 matvec.  The memos
    are exact (keyed on the mask or signature, values immutable) and
    each is bounded by ``cache_size`` entries.  The mask and ``P_tr``
    memos are LRU caches; the ``P(EN)`` memo is a plain dict, emptied
    when full, that batches read without a Python call per lane.
    """

    def __init__(self, tables: ActivityTables, cache_size: int = 1 << 16):
        self._tables = tables
        self._masks = tables.isa.masks
        self._ift = tables.ift
        self._pair = tables.pair_prob
        # Row/column marginals let the transition probability be
        # computed from one matvec:  P_tr = a^T P (1-a) + (1-a)^T P a
        #                                = a^T (row + col) - 2 a^T P a.
        self._row_plus_col = self._pair.sum(axis=1) + self._pair.sum(axis=0)
        self.activation_signature = lru_cache(maxsize=cache_size)(
            self._activation_signature
        )
        self._cache_size = cache_size
        self._signal_memo: Dict[int, Probability] = {}
        self._signal_hits = 0
        self._signal_misses = 0
        self._transition = lru_cache(maxsize=cache_size)(self._transition_uncached)

    @property
    def tables(self) -> ActivityTables:
        return self._tables

    @property
    def isa(self) -> InstructionSet:
        return self._tables.isa

    def cache_info(self) -> Dict[str, Tuple]:
        """Hit/miss counters of the three memos (for benches)."""
        return {
            "activation_signature": self.activation_signature.cache_info(),
            "signal": MemoInfo(
                self._signal_hits,
                self._signal_misses,
                self._cache_size,
                len(self._signal_memo),
            ),
            "transition": self._transition.cache_info(),
        }

    def activation_vector(self, module_mask: int) -> np.ndarray:
        """Indicator over instructions: does the instruction wake the set?"""
        return np.fromiter(
            ((m & module_mask) != 0 for m in self._masks),
            dtype=float,
            count=len(self._masks),
        )

    @property
    def signature_bits(self) -> int:
        """Width of an activation signature (= number of instructions).

        Signatures up to 63 bits fit an ``int64`` array column; wider
        ISAs still work through the scalar (Python int) path.
        """
        return len(self._masks)

    def _activation_signature(self, module_mask: int) -> int:
        """K-bit activation indicator of a module subset, as an int.

        Bit ``i`` is set iff instruction ``i`` activates the subset.
        The signature of a mask union is the OR of the signatures.
        """
        sig = 0
        for i, m in enumerate(self._masks):
            if m & module_mask:
                sig |= 1 << i
        return sig

    def _signature_vector(self, signature: int) -> np.ndarray:
        """The activation indicator vector encoded by a signature.

        Produces exactly the 0.0/1.0 floats of
        :meth:`activation_vector`, for every ISA width, so
        probabilities computed from a signature are bit-identical to
        the mask-level ones.
        """
        k = len(self._masks)
        raw = np.frombuffer(signature.to_bytes((k + 7) // 8, "little"), dtype=np.uint8)
        return np.unpackbits(raw, count=k, bitorder="little").astype(float)

    def _signal_uncached(self, signature: int) -> Probability:
        if signature == 0:
            return 0.0
        return self._signal_of(self._signature_vector(signature))

    def _signal_of(self, a: np.ndarray) -> Probability:
        """``P(EN)`` of one activation indicator vector."""
        # Clamp float summation noise: probabilities live in [0, 1].
        return min(max(float(a @ self._ift), 0.0), 1.0)

    def _remember(self, signature: int, value: Probability) -> None:
        """Store a ``P(EN)``, emptying the memo first when it is full."""
        memo = self._signal_memo
        if len(memo) >= self._cache_size:
            memo.clear()
        if self._cache_size > 0:
            memo[signature] = value

    def signature_probability(self, signature: int) -> Probability:
        """``P(EN)`` of an activation signature, through the memo."""
        value = self._signal_memo.get(signature)
        if value is None:
            self._signal_misses += 1
            value = self._signal_uncached(signature)
            self._remember(signature, value)
        else:
            self._signal_hits += 1
        return value

    def _transition_uncached(self, signature: int) -> Probability:
        if signature == 0:
            return 0.0
        a = self._signature_vector(signature)
        value = float(a @ self._row_plus_col - 2.0 * (a @ self._pair @ a))
        # Clamp float noise: a probability must lie in [0, 1].
        return min(max(value, 0.0), 1.0)

    def signature_statistics(self, signature: int) -> EnableStatistics:
        """Both probabilities of an activation signature, through the
        signature memos."""
        return EnableStatistics(
            self.signature_probability(signature), self._transition(signature)
        )

    def signal_probability(self, module_mask: int) -> Probability:
        """``P(EN)`` for the module subset."""
        return self.signature_probability(self.activation_signature(module_mask))

    def transition_probability(self, module_mask: int) -> Probability:
        """``P_tr(EN)`` for the module subset."""
        return self._transition(self.activation_signature(module_mask))

    def statistics(self, module_mask: int) -> EnableStatistics:
        """Both probabilities in one call."""
        return self.signature_statistics(self.activation_signature(module_mask))

    def batch_probabilities(self, signatures: Any) -> np.ndarray:
        """``P(EN)`` for a whole array of activation signatures.

        ``signatures`` is any array-like of signature ints (``int64``
        for ISAs up to 63 instructions, object dtype beyond).  The lanes
        read the memo the scalar path uses in one C-level pass; each
        distinct ``int64`` signature it lacks is derived once -- all of
        them decoded by one ``unpackbits`` over the column's
        little-endian bytes, each priced by the scalar path's own 1-D
        dot -- so every lane is bit-identical to the corresponding
        scalar ``signal_probability`` call.  The counts read as the
        scalar path's would: a repeated signature is one miss, then
        hits.  Wide (object) signatures take the scalar memo lane by
        lane.
        """
        sigs = np.asarray(signatures).ravel()
        keys = sigs.tolist()
        if sigs.dtype == object:
            return np.array(
                [self.signature_probability(sig) for sig in keys], dtype=np.float64
            )
        values = list(map(self._signal_memo.get, keys))
        fresh: Dict[int, Any] = {}
        if None in values:
            # Each distinct missing signature is derived once.
            fresh = dict.fromkeys(sig for sig, value in zip(keys, values) if value is None)
            missing = np.array(list(fresh), dtype="<i8").view(np.uint8).reshape(-1, 8)
            rows = np.unpackbits(missing, axis=1, count=len(self._masks), bitorder="little")
            for sig, row in zip(list(fresh), rows.astype(float)):
                fresh[sig] = value = self._signal_of(row) if sig else 0.0
                self._remember(sig, value)
            values = list(map(fresh.get, keys, values))
        self._signal_hits += len(keys) - len(fresh)
        self._signal_misses += len(fresh)
        return np.array(values, dtype=np.float64)


def scan_stream_probabilities(
    isa: InstructionSet, stream: InstructionStream, module_mask: int
) -> Tuple[Probability, Probability]:
    """Brute-force reference: rescan the trace for one module subset.

    Returns ``(P(EN), P_tr(EN))`` computed directly from cycle-by-cycle
    activity, the method the paper calls "very expensive" and replaces
    with the tables.  Used as the testing oracle.
    """
    if module_mask == 0:
        return 0.0, 0.0
    masks = np.asarray(isa.masks, dtype=object)
    active = np.fromiter(
        ((masks[i] & module_mask) != 0 for i in stream.ids),
        dtype=bool,
        count=len(stream),
    )
    p = float(active.mean())
    if len(stream) < 2:
        return p, 0.0
    toggles = int(np.count_nonzero(active[1:] != active[:-1]))
    return p, toggles / (len(stream) - 1)
