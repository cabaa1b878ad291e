"""Probabilistic CPU workload model.

Section 5 of the paper: "The instruction stream and the used modules
for each instruction are generated according to a probabilistic model
of the CPU when it executes typical programs" with two reported
properties: the average number of used modules per instruction is
about 40% of the modules, and the streams are tens of thousands of
cycles long.

``CpuModel`` reproduces that setup:

* an ISA of ``K`` instructions whose usage bitmasks are drawn so the
  popularity-weighted average usage fraction hits ``target_activity``
  (modules get heterogeneous "popularity" so some are hot and some are
  nearly idle -- that heterogeneity is what gated clocking exploits);
* a Zipf-like instruction popularity (some instructions are rare, the
  paper's argument for table-driven statistics over brute force);
* a first-order Markov chain with a ``locality`` knob controlling how
  bursty execution is (burstier -> fewer enable transitions -> cheaper
  controller tree).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.activity.isa import InstructionSet
from repro.activity.probability import ActivityOracle
from repro.activity.stream import InstructionStream, MarkovStreamModel
from repro.activity.tables import ActivityTables
from repro.check.errors import ContractError


@dataclass(frozen=True)
class CpuModelConfig:
    """Knobs of the synthetic CPU."""

    num_modules: int
    num_instructions: int = 24
    target_activity: float = 0.4
    """Average fraction of modules used per executed instruction
    (paper Table 4's Ave(M(I)) is about 0.4)."""

    locality: float = 0.55
    """Self-transition bias of the instruction Markov chain, [0, 1)."""

    zipf_exponent: float = 1.0
    """Skew of instruction popularity (0 = uniform)."""

    appeal_alpha: float = 0.35
    appeal_beta: float = 0.5
    """Beta-distribution shape of per-cluster appeal.  The defaults are
    u-shaped: a real processor has hot always-clocked units and cold
    rarely-used ones, and that heterogeneity is precisely what clock
    gating exploits.  (alpha=beta=large would make every unit equally
    lukewarm and gating pointless.)"""

    num_clusters: int = 0
    """Number of functional clusters the modules are grouped into;
    0 picks ``max(8, num_modules // 24)``.  Modules of one cluster
    (an ALU, a register file, a decoder...) are activated *together*
    by the instructions that use the unit -- the activity correlation
    a real RTL usage table exhibits and that activity-driven clock
    gating exploits.  ``num_clusters == num_modules`` makes every
    module independent (the ablation case)."""

    cluster_coherence: float = 0.85
    """Probability that a module of an active cluster is exercised by
    the instruction (1.0 = perfectly coherent clusters)."""

    background_usage: float = 0.02
    """Probability that an instruction uses a module outside its
    active clusters (control/debug sprinkle)."""

    seed: int = 0

    def __post_init__(self):
        if self.num_modules < 1 or self.num_instructions < 2:
            raise ContractError("need >= 1 module and >= 2 instructions")
        if not 0.0 < self.target_activity < 1.0:
            raise ContractError("target_activity must lie in (0, 1)")
        if not 0.0 <= self.locality < 1.0:
            raise ContractError("locality must lie in [0, 1)")
        if self.num_clusters < 0 or self.num_clusters > self.num_modules:
            raise ContractError("num_clusters must lie in [0, num_modules]")
        if not 0.0 < self.cluster_coherence <= 1.0:
            raise ContractError("cluster_coherence must lie in (0, 1]")
        if not 0.0 <= self.background_usage < 1.0:
            raise ContractError("background_usage must lie in [0, 1)")

    @property
    def resolved_num_clusters(self) -> int:
        if self.num_clusters:
            return self.num_clusters
        return min(self.num_modules, max(8, self.num_modules // 24))


class CpuModel:
    """A drawn instance of the synthetic CPU: ISA + instruction chain."""

    def __init__(self, config: CpuModelConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.popularity = self._draw_popularity(rng)
        self.cluster_of = self._assign_clusters(rng)
        """Module index -> functional-cluster index."""
        self.isa = self._draw_isa(rng)
        self.markov = MarkovStreamModel.from_locality(
            popularity=self.popularity, locality=config.locality
        )

    # ------------------------------------------------------------------
    # construction details
    # ------------------------------------------------------------------
    def _draw_popularity(self, rng: np.random.Generator) -> np.ndarray:
        k = self.config.num_instructions
        ranks = np.arange(1, k + 1, dtype=float)
        weights = ranks ** (-self.config.zipf_exponent)
        rng.shuffle(weights)
        return weights / weights.sum()

    def _assign_clusters(self, rng: np.random.Generator) -> np.ndarray:
        """Near-balanced random grouping of modules into clusters."""
        n = self.config.num_modules
        num_clusters = self.config.resolved_num_clusters
        assignment = np.arange(n) % num_clusters
        rng.shuffle(assignment)
        return assignment

    def _draw_isa(self, rng: np.random.Generator) -> InstructionSet:
        """Draw the RTL usage table with cluster-correlated activity.

        Each instruction activates whole functional clusters (an
        activated cluster exercises each of its modules with
        ``cluster_coherence``), plus a small background sprinkle.
        Cluster appeals are beta-distributed (u-shaped by default:
        hot and cold units) and rescaled so the popularity-weighted
        mean fraction of used modules hits ``target_activity``.  Low
        targets scale the distribution down; high targets scale its
        idle side up (blending toward 1), so the achieved mean tracks
        the target over the whole (0, 1) range -- needed by the Fig. 4
        activity sweep.
        """
        cfg = self.config
        n, k = cfg.num_modules, cfg.num_instructions
        num_clusters = cfg.resolved_num_clusters
        appeal = rng.beta(cfg.appeal_alpha, cfg.appeal_beta, size=num_clusters)
        # Per-module usage probability given cluster appeal a:
        #   p = a * coherence + (1 - a * coherence) * background.
        # Solve for the mean cluster appeal that hits the target.
        span = cfg.cluster_coherence * (1.0 - cfg.background_usage)
        wanted = (cfg.target_activity - cfg.background_usage) / span
        wanted = min(max(wanted, 1e-3), 1.0 - 1e-3)
        mean = appeal.mean()
        if wanted <= mean:
            appeal *= wanted / mean
        else:
            appeal = 1.0 - (1.0 - appeal) * (1.0 - wanted) / (1.0 - mean)
        appeal = np.clip(appeal, 0.0, 1.0)

        cluster_active = rng.random((k, num_clusters)) < appeal[None, :]
        member_active = cluster_active[:, self.cluster_of]
        coherent = rng.random((k, n)) < cfg.cluster_coherence
        usage = member_active & coherent
        if cfg.background_usage > 0:
            usage |= rng.random((k, n)) < cfg.background_usage
        # No instruction may use zero modules (it must clock something).
        for row in range(k):
            if not usage[row].any():
                usage[row, rng.integers(0, n)] = True
        lists = [set(np.nonzero(usage[row])[0].tolist()) for row in range(k)]
        return InstructionSet.from_usage_lists(lists, num_modules=n)

    # ------------------------------------------------------------------
    # products
    # ------------------------------------------------------------------
    def stream(self, length: int, seed: Optional[int] = None) -> InstructionStream:
        """Sample an instruction trace of the given length."""
        rng = np.random.default_rng(self.config.seed + 7919 if seed is None else seed)
        return self.markov.generate(length, rng)

    def tables_from_stream(self, length: int = 10000, seed: Optional[int] = None) -> ActivityTables:
        """IFT/IMATT from a sampled trace (the paper's methodology)."""
        return ActivityTables.from_stream(self.isa, self.stream(length, seed))

    def tables_analytic(self) -> ActivityTables:
        """Exact stationary IFT/IMATT of the Markov chain (no sampling)."""
        return ActivityTables.from_markov(self.isa, self.markov)

    def oracle(self, stream_length: Optional[int] = 10000) -> ActivityOracle:
        """An activity oracle; ``stream_length=None`` uses analytic tables."""
        if stream_length is None:
            return ActivityOracle(self.tables_analytic())
        return ActivityOracle(self.tables_from_stream(stream_length))
