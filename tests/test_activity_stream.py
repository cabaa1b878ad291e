"""Unit tests for instruction streams and the Markov model.

The sampler is pinned two ways: a hypothesis property against the
per-cycle ``np.searchsorted`` walk it replaced (ids and the
generator's state afterwards), and sha256 digests of the streams and
files every benchmark input is built from.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.activity import InstructionStream, MarkovStreamModel
from repro.bench.suite import load_benchmark
from repro.bench.synthetic import generate_synthetic_case
from repro.cli import main


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_transition(self, bad):
        with pytest.raises(ValueError):
            MarkovStreamModel(np.array([[bad, 0.5], [0.5, 0.5]]), initial=[0.5, 0.5])

    @pytest.mark.parametrize(
        "initial", [[np.nan, 1.0], [1.5, -0.5], [0.5, 0.4]], ids=["nan", "negative", "sum"]
    )
    def test_rejects_malformed_initial(self, initial):
        with pytest.raises(ValueError):
            MarkovStreamModel(np.full((2, 2), 0.5), initial=np.array(initial))

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


def searchsorted_walk(model, length, rng):
    """The reference sampler: one ``np.searchsorted`` per cycle over the
    same cumulative rows and the same draws as ``generate``."""
    k = model.num_instructions
    ids = np.empty(length, dtype=np.int64)
    ids[0] = rng.choice(k, p=model.initial)
    cum = np.cumsum(model.transition, axis=1)
    cum[:, -1] = 1.0
    uniforms = rng.random(length - 1)
    for n in range(1, length):
        ids[n] = np.searchsorted(cum[ids[n - 1]], uniforms[n - 1], side="right")
    return ids


def _chain(kind, k, rng):
    """A row-stochastic chain of one of the shapes the sampler must
    walk exactly: dense, sparse rows (zero entries anywhere, also
    leading and trailing), a deterministic cycle, exact 1.0 self-loops
    mixed with dense rows, and ``from_locality``."""
    initial = rng.random(k) * (rng.random(k) < 0.7)
    initial[rng.integers(k)] += 1.0
    initial /= initial.sum()
    if kind == "locality":
        return MarkovStreamModel.from_locality(initial, float(rng.uniform(0.0, 0.99)))
    if kind == "cycle":
        t = np.eye(k)[rng.permutation(k)]
    else:
        t = rng.random((k, k))
        if kind == "sparse":
            t *= rng.random((k, k)) < 0.3
            empty = t.sum(axis=1) == 0
            t[empty, rng.integers(k, size=int(empty.sum()))] = 1.0
        elif kind == "self-loop":
            loops = rng.random(k) < 0.5
            t[loops] = np.eye(k)[loops]
        t /= t.sum(axis=1, keepdims=True)
    return MarkovStreamModel(t, initial=initial)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["dense", "sparse", "cycle", "self-loop", "locality"]),
    k=st.one_of(st.sampled_from([1, 2, 32, 70]), st.integers(1, 70)),
    length=st.one_of(st.sampled_from([1, 2]), st.integers(1, 3000)),
    chain_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**63 - 1),
)
def test_generate_equals_the_searchsorted_walk(kind, k, length, chain_seed, seed):
    model = _chain(kind, k, np.random.default_rng(chain_seed))
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    stream = model.generate(length, rng)
    expected = searchsorted_walk(model, length, reference_rng)
    assert stream.ids.dtype == np.int64
    assert np.array_equal(stream.ids, expected)
    # Same draws in the same order: later draws from a shared
    # generator cannot move.
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_generate_breaks_ties_to_the_right():
    # A uniform equal to a cumulative entry must step past it, as
    # searchsorted(side="right") does.  Every row is [u, 1 - u] for a
    # uniform u >= 0.5 the walk will draw, so its cumulative row is
    # exactly [u, 1.0].
    seed, length = 3, 64
    probe = np.random.default_rng(seed)
    initial = np.array([1.0, 0.0])
    probe.choice(2, p=initial)
    uniforms = probe.random(length - 1)
    step = int(np.argmax(uniforms >= 0.5))
    u = float(uniforms[step])
    model = MarkovStreamModel(np.array([[u, 1.0 - u]] * 2), initial=initial)
    assert np.cumsum(model.transition, axis=1)[0, 0] == u
    ids = model.generate(length, np.random.default_rng(seed)).ids
    assert ids[step + 1] == 1
    assert np.array_equal(ids, searchsorted_walk(model, length, np.random.default_rng(seed)))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stream_digest(stream) -> str:
    return _sha256(stream.ids.astype("<i8").tobytes())


# Recorded with the per-cycle searchsorted sampler; the bisect walk
# must reproduce every input byte for byte.
BENCHMARK_STREAM_DIGESTS = {
    "r1": "db1cd643e9a5543995b294b3486d85ec3f91dafb1e183237f9edfa3efe6bce5e",
    "r2": "957f7ad46f3de1be7fcf3abafa43ad9dd6cbb07a8e079ea01475bc74b0039e67",
    "r3": "02fcacf16616dea2862dbcc77dbfbcc2c7b7b432d25a407a33a001e5ab5482ed",
    "r4": "238c5af3f909f70fd4c7e0440747ecba891e7ff9dfb8ef227c1ab3bd059bb57e",
    "r5": "d232bce5d7921165cfb290a0cb284e89c0beb2990258211f26e2b6431318eb59",
}
SYNTH1K_STREAM_DIGEST = "7f4c97e69e19260e4899dad9b98199e96c0088dda0897a825b785f9b319f89e8"
GEN_400_SEED_7_DIGESTS = {
    "synth400_s7.sinks": "930f23d40cefcaae82550533518651fb2289838f75ea15072cc04d96b41a416d",
    "synth400_s7.isa.json": "2aa94834195c018de3835a62ab43c073e8d05138191a4c93efaf6087fcd629ff",
    "synth400_s7.trace": "ca196944b861265c8cd7639b75dd8fa131272d4f1386fa2ca7e2d7628399f4cf",
}


class TestInputDigests:
    @pytest.mark.parametrize("name", sorted(BENCHMARK_STREAM_DIGESTS))
    def test_benchmark_stream(self, name):
        stream = load_benchmark(name).stream
        assert _stream_digest(stream) == BENCHMARK_STREAM_DIGESTS[name]

    def test_synth1k_stream(self):
        # The input of perfbench's synth1k-sharded-inline workload.
        stream = generate_synthetic_case(1000, seed=2).stream
        assert _stream_digest(stream) == SYNTH1K_STREAM_DIGEST

    def test_gen_files(self, tmp_path, capsys):
        argv = ["gen", "--sinks", "400", "--seed", "7", "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        written = {p.name: _sha256(p.read_bytes()) for p in tmp_path.iterdir()}
        assert written == GEN_400_SEED_7_DIGESTS
