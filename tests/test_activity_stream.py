"""Unit tests for instruction streams and the Markov model."""

import numpy as np
import pytest

from repro.activity import InstructionStream, MarkovStreamModel


class TestInstructionStream:
    def test_counts(self):
        s = InstructionStream(ids=np.array([0, 1, 1, 2, 0]))
        assert s.counts(3).tolist() == [2, 2, 1]

    def test_counts_rejects_small_k(self):
        s = InstructionStream(ids=np.array([0, 5]))
        with pytest.raises(ValueError):
            s.counts(3)

    def test_pair_counts(self):
        s = InstructionStream(ids=np.array([0, 1, 0, 1]))
        pairs = s.pair_counts(2)
        assert pairs[0, 1] == 2
        assert pairs[1, 0] == 1
        assert pairs.sum() == len(s) - 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            InstructionStream(ids=np.array([], dtype=np.int64))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            InstructionStream(ids=np.array([0, -1]))


class TestMarkovModel:
    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            MarkovStreamModel(np.array([[0.5, 0.2], [0.5, 0.5]]))

    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError):
            MarkovStreamModel(np.array([[1.5, -0.5], [0.5, 0.5]]))

    def test_stationary_of_symmetric_chain_is_uniform(self):
        t = np.array([[0.5, 0.5], [0.5, 0.5]])
        pi = MarkovStreamModel(t).stationary_distribution()
        assert pi == pytest.approx([0.5, 0.5])

    def test_stationary_solves_fixed_point(self):
        rng = np.random.default_rng(0)
        t = rng.random((5, 5))
        t /= t.sum(axis=1, keepdims=True)
        model = MarkovStreamModel(t)
        pi = model.stationary_distribution()
        assert pi @ t == pytest.approx(pi, abs=1e-9)
        assert pi.sum() == pytest.approx(1.0)

    def test_pair_distribution_marginals(self):
        rng = np.random.default_rng(1)
        t = rng.random((4, 4))
        t /= t.sum(axis=1, keepdims=True)
        model = MarkovStreamModel(t)
        pairs = model.pair_distribution()
        pi = model.stationary_distribution()
        assert pairs.sum(axis=1) == pytest.approx(pi, abs=1e-9)
        assert pairs.sum(axis=0) == pytest.approx(pi, abs=1e-9)

    def test_generate_respects_support(self):
        # A deterministic cycle 0 -> 1 -> 2 -> 0.
        t = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
        model = MarkovStreamModel(t, initial=np.array([1.0, 0.0, 0.0]))
        stream = model.generate(9, np.random.default_rng(0))
        assert stream.ids.tolist() == [0, 1, 2, 0, 1, 2, 0, 1, 2]

    def test_generate_empirical_frequencies(self):
        model = MarkovStreamModel.from_locality([0.7, 0.2, 0.1], locality=0.0)
        stream = model.generate(20000, np.random.default_rng(42))
        freqs = stream.counts(3) / len(stream)
        assert freqs == pytest.approx([0.7, 0.2, 0.1], abs=0.02)


class TestFromLocality:
    def test_stationary_is_popularity(self):
        pop = [0.5, 0.3, 0.2]
        for locality in (0.0, 0.4, 0.9):
            model = MarkovStreamModel.from_locality(pop, locality)
            assert model.stationary_distribution() == pytest.approx(pop, abs=1e-9)

    def test_locality_increases_self_transitions(self):
        low = MarkovStreamModel.from_locality([0.5, 0.5], 0.1)
        high = MarkovStreamModel.from_locality([0.5, 0.5], 0.8)
        assert high.transition[0, 0] > low.transition[0, 0]

    def test_locality_reduces_transition_rate(self):
        # Burstier execution means fewer instruction changes per cycle.
        def change_rate(locality):
            model = MarkovStreamModel.from_locality([0.4, 0.3, 0.3], locality)
            pairs = model.pair_distribution()
            return 1.0 - np.trace(pairs)

        assert change_rate(0.8) < change_rate(0.3) < change_rate(0.0)

    def test_rejects_bad_locality(self):
        with pytest.raises(ValueError):
            MarkovStreamModel.from_locality([1.0], 1.0)

    def test_rejects_bad_popularity(self):
        with pytest.raises(ValueError):
            MarkovStreamModel.from_locality([0.0, 0.0], 0.5)
