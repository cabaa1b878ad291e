"""Unit tests for the probabilistic CPU workload model."""

import numpy as np
import pytest

from repro.bench.cpu_model import CpuModel, CpuModelConfig


def model(**kwargs):
    defaults = dict(num_modules=48, num_instructions=12, seed=7)
    defaults.update(kwargs)
    return CpuModel(CpuModelConfig(**defaults))


class TestConfigValidation:
    def test_rejects_bad_activity(self):
        with pytest.raises(ValueError):
            CpuModelConfig(num_modules=4, target_activity=0.0)
        with pytest.raises(ValueError):
            CpuModelConfig(num_modules=4, target_activity=1.0)

    def test_rejects_bad_locality(self):
        with pytest.raises(ValueError):
            CpuModelConfig(num_modules=4, locality=1.0)

    def test_rejects_bad_clusters(self):
        with pytest.raises(ValueError):
            CpuModelConfig(num_modules=4, num_clusters=5)

    def test_rejects_bad_coherence(self):
        with pytest.raises(ValueError):
            CpuModelConfig(num_modules=4, cluster_coherence=0.0)

    def test_resolved_clusters_default(self):
        assert CpuModelConfig(num_modules=48).resolved_num_clusters == 8
        assert CpuModelConfig(num_modules=480).resolved_num_clusters == 20
        assert CpuModelConfig(num_modules=48, num_clusters=3).resolved_num_clusters == 3


class TestIsaGeneration:
    def test_every_instruction_uses_a_module(self):
        m = model()
        assert all(len(i.modules) >= 1 for i in m.isa.instructions)

    def test_deterministic_for_seed(self):
        a, b = model(seed=5), model(seed=5)
        assert a.isa.masks == b.isa.masks

    def test_target_activity_hit_roughly(self):
        for target in (0.1, 0.4, 0.8):
            m = model(target_activity=target, num_modules=200, seed=3)
            tables = m.tables_analytic()
            measured = tables.average_module_activity()
            assert measured == pytest.approx(target, abs=0.12)

    def test_cluster_members_correlate(self):
        # Modules of one cluster co-occur in instructions far more
        # often than modules of different clusters.
        m = model(num_modules=120, num_clusters=6, seed=2)
        usage = np.array(
            [
                [1 if (mask >> j) & 1 else 0 for j in range(120)]
                for mask in m.isa.masks
            ]
        )
        same, cross = [], []
        rng = np.random.default_rng(0)
        for _ in range(300):
            a, b = rng.integers(0, 120, 2)
            if a == b:
                continue
            corr = np.mean(usage[:, a] == usage[:, b])
            if m.cluster_of[a] == m.cluster_of[b]:
                same.append(corr)
            else:
                cross.append(corr)
        assert np.mean(same) > np.mean(cross) + 0.1

    def test_independent_mode_when_clusters_equal_modules(self):
        m = model(num_modules=30, num_clusters=30)
        assert m.cluster_of.max() == 29


class TestStreamsAndOracles:
    def test_stream_length(self):
        assert len(model().stream(500)) == 500

    def test_stream_deterministic(self):
        m = model()
        assert (m.stream(100).ids == m.stream(100).ids).all()

    def test_analytic_close_to_long_stream(self):
        m = model(num_modules=24, seed=11)
        analytic = m.tables_analytic()
        empirical = m.tables_from_stream(length=60000)
        assert empirical.ift == pytest.approx(analytic.ift, abs=0.02)

    def test_oracle_modes(self):
        m = model(num_modules=16)
        stream_oracle = m.oracle(stream_length=2000)
        analytic_oracle = m.oracle(stream_length=None)
        mask = 0b1011
        assert stream_oracle.signal_probability(mask) == pytest.approx(
            analytic_oracle.signal_probability(mask), abs=0.1
        )

    def test_locality_reduces_enable_transitions(self):
        # Same seed -> same ISA; only the chain's burstiness differs.
        bursty = model(locality=0.9, num_modules=24, seed=13).oracle(None)
        jumpy = model(locality=0.0, num_modules=24, seed=13).oracle(None)
        # Pick a module whose enable actually toggles (0 < P < 1).
        mask = next(
            1 << j
            for j in range(24)
            if 0.05 < jumpy.signal_probability(1 << j) < 0.95
        )
        assert bursty.transition_probability(mask) < jumpy.transition_probability(
            mask
        )
