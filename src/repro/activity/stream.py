"""Instruction streams and the probabilistic CPU model behind them.

The paper derives its activity statistics from instruction-level
simulation of a processor running benchmark programs, "generated
according to a probabilistic model of the CPU".  We model the executed
instruction sequence as a first-order Markov chain: a *locality* knob
interpolates between i.i.d. draws (locality 0, maximal enable
switching) and long bursts of the same instruction (locality near 1,
few enable transitions).

Sampling is an exact pure-Python walk: one uniform per cycle, drawn all
at once, is looked up with ``bisect.bisect_right`` in the predecessor's
cumulative transition row.  Over a list of the same float64 values that
is comparison for comparison ``np.searchsorted(row, u, side="right")``,
so the streams equal a per-cycle NumPy walk's bit for bit, at a small
fraction of its per-cycle call overhead.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from repro.check.errors import InputError


@dataclass(frozen=True)
class InstructionStream:
    """An executed instruction trace: an array of instruction ids."""

    ids: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=np.int64)
        if ids.ndim != 1 or ids.size == 0:
            raise InputError("stream must be a non-empty 1-D sequence")
        if ids.min() < 0:
            raise InputError("instruction ids must be non-negative")
        object.__setattr__(self, "ids", ids)

    def __len__(self) -> int:
        return int(self.ids.size)

    def counts(self, num_instructions: int) -> np.ndarray:
        """Occurrences of each instruction id."""
        if self.ids.max() >= num_instructions:
            raise InputError("stream references instruction >= K")
        return np.bincount(self.ids, minlength=num_instructions)

    def pair_counts(self, num_instructions: int) -> np.ndarray:
        """K x K matrix of consecutive-pair occurrences."""
        if len(self) < 2:
            return np.zeros((num_instructions, num_instructions), dtype=np.int64)
        a, b = self.ids[:-1], self.ids[1:]
        flat = np.bincount(
            a * num_instructions + b, minlength=num_instructions * num_instructions
        )
        return flat.reshape(num_instructions, num_instructions)


class MarkovStreamModel:
    """First-order Markov chain over instructions.

    Parameters
    ----------
    transition:
        Row-stochastic K x K matrix; ``transition[i, j]`` is the
        probability that instruction ``j`` follows instruction ``i``.
    initial:
        Distribution of the first instruction; defaults to the chain's
        stationary distribution.
    """

    def __init__(self, transition: np.ndarray, initial: Optional[np.ndarray] = None):
        t = np.asarray(transition, dtype=float)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise InputError("transition matrix must be square")
        if not np.all(np.isfinite(t)):
            raise InputError("transition probabilities must be finite")
        if np.any(t < -1e-12):
            raise InputError("transition probabilities must be non-negative")
        rows = t.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > 1e-6):
            raise InputError("transition matrix rows must sum to 1")
        self.transition = np.clip(t, 0.0, None)
        self.transition /= self.transition.sum(axis=1, keepdims=True)
        if initial is None:
            initial = self.stationary_distribution()
        initial = np.asarray(initial, dtype=float)
        if (
            initial.shape != (t.shape[0],)
            or not np.all(initial >= 0.0)
            or not abs(initial.sum() - 1.0) <= 1e-6
        ):
            raise InputError("initial distribution malformed")
        self.initial = initial / initial.sum()

    @property
    def num_instructions(self) -> int:
        return self.transition.shape[0]

    def stationary_distribution(self) -> np.ndarray:
        """The stationary distribution ``pi`` with ``pi @ T = pi``.

        Solved as a linear system (more robust than power iteration for
        the small K used here).
        """
        k = self.transition.shape[0]
        a = np.vstack([self.transition.T - np.eye(k), np.ones((1, k))])
        b = np.zeros(k + 1)
        b[-1] = 1.0
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
        pi = np.clip(pi, 0.0, None)
        total = pi.sum()
        if total <= 0:
            raise InputError("chain has no valid stationary distribution")
        return pi / total

    def pair_distribution(self) -> np.ndarray:
        """Stationary joint distribution of consecutive instructions.

        ``P[i, j] = pi_i * T[i, j]`` -- the analytic counterpart of the
        IMATT pair probabilities.
        """
        pi = self.stationary_distribution()
        return pi[:, None] * self.transition

    def generate(self, length: int, rng: np.random.Generator) -> InstructionStream:
        """Sample a stream of the given length.

        The first id is ``rng.choice(k, p=initial)``; every later id is
        found by inverse-CDF lookup of one uniform from a single
        ``rng.random(length - 1)`` draw in the cumulative transition
        row of its predecessor (last column pinned to 1.0).  The lookup
        is ``bisect.bisect_right`` over the row as a Python list of the
        same float64 values, which makes exactly the comparisons of
        ``np.searchsorted(row, u, side="right")``: the ids, and the
        generator's state afterwards, equal a per-cycle NumPy walk's.
        """
        if length < 1:
            raise InputError("length must be positive")
        k = self.num_instructions
        first = int(rng.choice(k, p=self.initial))
        cum = np.cumsum(self.transition, axis=1)
        cum[:, -1] = 1.0
        rows = cum.tolist()
        ids = [first]
        append = ids.append
        prev = first
        # memoryview yields the uniforms as Python floats one at a time.
        for u in memoryview(rng.random(length - 1)):
            prev = bisect_right(rows[prev], u)
            append(prev)
        return InstructionStream(ids=np.array(ids, dtype=np.int64))

    @staticmethod
    def from_locality(
        popularity: Sequence[float], locality: float, rng: Optional[np.random.Generator] = None
    ) -> "MarkovStreamModel":
        """Build a chain with a given self-transition bias.

        ``T = locality * I + (1 - locality) * (1 pi^T)`` where ``pi`` is
        the normalized ``popularity``.  The stationary distribution is
        exactly ``pi`` for any locality, while the enable transition
        probabilities shrink as locality grows -- the knob used for the
        controller-power studies.  ``rng`` is accepted for symmetry with
        other factories but unused (the construction is deterministic).
        """
        if not 0.0 <= locality < 1.0:
            raise InputError("locality must be in [0, 1)")
        pi = np.asarray(popularity, dtype=float)
        if np.any(pi < 0) or pi.sum() <= 0:
            raise InputError("popularity must be non-negative, non-zero")
        pi = pi / pi.sum()
        k = pi.size
        t = locality * np.eye(k) + (1.0 - locality) * np.tile(pi, (k, 1))
        return MarkovStreamModel(transition=t, initial=pi)
