"""Gate sizing to balance skew without wire snaking.

The paper notes that the masking gates "also serve as buffers and can
be sized to adjust the phase delay of the clock signal" but leaves the
mechanism unexplored.  This module implements it: when the zero-skew
split of a merge would need *snaking* (detour wire on the fast side),
try resizing the cells on the two new edges instead -- a larger gate
drives its subtree faster, a smaller one slower -- and keep the
assignment that balances the delays with the least total wirelength.

Sizing only engages on merges whose unit-size split snakes, so the
extra split evaluations cost almost nothing on balanced merges; the
gate-sizing bench measures the wirelength it saves on reduced-gate
trees (where gated/ungated sibling imbalance is the snaking source).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.cts import kernels
from repro.cts.dme import CellDecision, EdgeCells
from repro.cts.merge import SkewBalanceError, SplitResult, Tap, zero_skew_split
from repro.obs import get_registry
from repro.tech.parameters import Technology

#: Discrete drive strengths, relative to the technology's unit cell.
SIZES = (0.5, 1.0, 2.0, 4.0)
_UNIT = SIZES.index(1.0)


def _sized(decision: CellDecision, size: float) -> CellDecision:
    """``decision`` with its cell at drive ``size`` (plain wire stays)."""
    if decision.cell is None or size == 1.0:
        return decision
    return CellDecision(cell=decision.cell.scaled(size), maskable=decision.maskable)


@dataclass(frozen=True)
class GateSizingPolicy:
    """Chooses cell sizes for the two edges of one merge."""

    @staticmethod
    def _options(decision: CellDecision):
        if decision.cell is None:
            yield None, decision
            return
        for size in SIZES:
            yield size, _sized(decision, size)

    @staticmethod
    def sized(decisions: Sequence[CellDecision]) -> Tuple[CellDecision, ...]:
        """Every decision at every drive size, the merger's cell table
        under a sizer: entry ``d * len(SIZES) + s`` is ``decisions[d]``
        at ``SIZES[s]``."""
        return tuple(_sized(d, size) for d in decisions for size in SIZES)

    @staticmethod
    def unit_codes(codes: np.ndarray) -> np.ndarray:
        """The :meth:`sized` codes of the decisions ``codes`` at unit size."""
        return codes * len(SIZES) + _UNIT

    def resolve(
        self,
        distance: float,
        cap_a: float,
        delay_a: float,
        decision_a: CellDecision,
        cap_b: float,
        delay_b: float,
        decision_b: CellDecision,
        tech: Technology,
        base_split: SplitResult,
    ) -> Tuple[CellDecision, CellDecision, SplitResult]:
        """Pick the sizing with the shortest balanced wiring.

        ``base_split`` is the unit-size split; it is returned unchanged
        when it does not snake (sizing cannot shorten an exact split:
        the edges already sum to the merging distance).
        """
        if base_split.snaked is None:
            return decision_a, decision_b, base_split

        # Sizing only engages on snaked merges; count how often.
        get_registry().counter("sizing.engaged").inc()
        best = (decision_a, decision_b, base_split)
        best_key = self._key(base_split, decision_a, decision_b)
        for size_a, option_a in self._options(decision_a):
            for size_b, option_b in self._options(decision_b):
                if size_a in (None, 1.0) and size_b in (None, 1.0):
                    continue  # that is base_split
                try:
                    split = zero_skew_split(
                        distance,
                        Tap(cap=cap_a, delay=delay_a, cell=option_a.cell),
                        Tap(cap=cap_b, delay=delay_b, cell=option_b.cell),
                        tech,
                    )
                except SkewBalanceError:
                    continue
                key = self._key(split, option_a, option_b)
                if key < best_key:
                    best_key = key
                    best = (option_a, option_b, split)
        if best[2] is not base_split:
            get_registry().counter("sizing.resized").inc()
        return best

    @staticmethod
    def _key(split: SplitResult, a: CellDecision, b: CellDecision):
        """Rank candidate sizings: least wire, then least cell area."""
        area = (a.cell.area if a.cell else 0.0) + (b.cell.area if b.cell else 0.0)
        return (split.total_length, area)

    @staticmethod
    def resolve_lanes(
        table: EdgeCells, codes_a: np.ndarray, codes_b: np.ndarray, lanes, tech: Technology
    ):
        """Batched twin of :meth:`resolve` over snaked lanes: the chosen
        ``(codes_a, codes_b, length_a, length_b)``.

        ``table`` holds the :meth:`sized` decisions, ``codes_*`` are the
        lanes' unit-size codes into it and ``lanes`` their ``(distance,
        cap_a, delay_a, cap_b, delay_b)`` arrays.  One batch splits
        every option of every lane; a lane keeps its first option in
        :meth:`resolve`'s order with the least ``(wire, cell area)`` key
        among those that balance.
        """
        count = len(SIZES)
        lane = np.repeat(np.arange(codes_a.size), count * count)
        order = np.tile(np.arange(count * count), codes_a.size)
        # Size offsets from the unit size, in resolve's loop order.
        size_a, size_b = order // count - _UNIT, order % count - _UNIT
        code_a, code_b = codes_a[lane] + size_a, codes_b[lane] + size_b
        # A plain-wire side has one option; the unit sizing goes first.
        keep = (table.celled[code_a] | (size_a == 0)) & (table.celled[code_b] | (size_b == 0))
        order[(size_a == 0) & (size_b == 0)] = -1
        lane, order, code_a, code_b = (v[keep] for v in (lane, order, code_a, code_b))
        split = kernels.batch_zero_skew_split(
            *(v[lane] for v in lanes),
            tech.unit_wire_resistance,
            tech.unit_wire_capacitance,
            cell_a=table.take(code_a),
            cell_b=table.take(code_b),
        )
        wire = split.length_a + split.length_b
        area = table.area[code_a] + table.area[code_b]
        # Unbalanced options sort after every balanced one of their lane;
        # the unit sizing always balances (an unbalanced merge raised).
        ranked = np.lexsort((order, area, wire, ~split.modelled, lane))
        pick = ranked[np.unique(lane[ranked], return_index=True)[1]]
        return code_a[pick], code_b[pick], split.length_a[pick], split.length_b[pick]
