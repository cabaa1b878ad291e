"""Unit tests for the table-driven probability oracle (paper section 3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.activity import ActivityOracle, ActivityTables, InstructionStream
from repro.activity.isa import InstructionSet, paper_example_isa, paper_example_stream
from repro.activity.probability import scan_stream_probabilities


def paper_oracle():
    isa = paper_example_isa()
    stream = InstructionStream(ids=np.array(paper_example_stream()))
    return ActivityOracle(ActivityTables.from_stream(isa, stream)), isa, stream


class TestSignalProbability:
    def test_paper_m1(self):
        oracle, _, _ = paper_oracle()
        assert oracle.signal_probability(1 << 0) == pytest.approx(0.75)

    def test_paper_m5_or_m6(self):
        # The paper's P(EN) example: P(M5 v M6) = 0.55.
        oracle, _, _ = paper_oracle()
        mask = (1 << 4) | (1 << 5)
        assert oracle.signal_probability(mask) == pytest.approx(0.55)

    def test_empty_set_is_zero(self):
        oracle, _, _ = paper_oracle()
        assert oracle.signal_probability(0) == 0.0

    def test_all_modules_is_one(self):
        # Every instruction clocks something, so the union of all
        # modules is active every cycle.
        oracle, isa, _ = paper_oracle()
        assert oracle.signal_probability((1 << isa.num_modules) - 1) == pytest.approx(1.0)

    def test_monotone_in_module_set(self):
        oracle, _, _ = paper_oracle()
        single = oracle.signal_probability(1 << 4)
        union = oracle.signal_probability((1 << 4) | (1 << 5))
        assert union >= single

    def test_union_bound(self):
        oracle, _, _ = paper_oracle()
        p5 = oracle.signal_probability(1 << 4)
        p6 = oracle.signal_probability(1 << 5)
        both = oracle.signal_probability((1 << 4) | (1 << 5))
        assert both <= p5 + p6 + 1e-12
        assert both >= max(p5, p6) - 1e-12


class TestTransitionProbability:
    def test_paper_m5_or_m6_transitions(self):
        # 9 transitions over 19 pairs.
        oracle, _, _ = paper_oracle()
        mask = (1 << 4) | (1 << 5)
        assert oracle.transition_probability(mask) == pytest.approx(9 / 19)

    def test_empty_set_is_zero(self):
        oracle, _, _ = paper_oracle()
        assert oracle.transition_probability(0) == 0.0

    def test_always_on_set_never_toggles(self):
        oracle, isa, _ = paper_oracle()
        assert oracle.transition_probability((1 << isa.num_modules) - 1) == pytest.approx(0.0)

    def test_bounded_by_twice_min_probability(self):
        # Each 0->1 transition needs a 0 cycle and a 1 cycle, so the
        # toggle count is at most 2*min(#0s, #1s); over B-1 pairs that
        # gives P_tr <= 2*min(P, 1-P) * B/(B-1).
        oracle, isa, stream = paper_oracle()
        slack = len(stream) / (len(stream) - 1)
        for mask in (1 << 2, (1 << 1) | (1 << 3), (1 << 0) | (1 << 5)):
            p = oracle.signal_probability(mask)
            ptr = oracle.transition_probability(mask)
            assert ptr <= 2 * min(p, 1 - p) * slack + 1e-9


class TestAgainstBruteForce:
    def test_matches_scan_for_every_single_module(self):
        oracle, isa, stream = paper_oracle()
        for j in range(isa.num_modules):
            mask = 1 << j
            p_scan, ptr_scan = scan_stream_probabilities(isa, stream, mask)
            assert oracle.signal_probability(mask) == pytest.approx(p_scan)
            assert oracle.transition_probability(mask) == pytest.approx(ptr_scan)

    def test_matches_scan_for_pairs(self):
        oracle, isa, stream = paper_oracle()
        n = isa.num_modules
        for a in range(n):
            for b in range(a + 1, n):
                mask = (1 << a) | (1 << b)
                p_scan, ptr_scan = scan_stream_probabilities(isa, stream, mask)
                stats = oracle.statistics(mask)
                assert stats.signal_probability == pytest.approx(p_scan)
                assert stats.transition_probability == pytest.approx(ptr_scan)

    def test_statistics_equals_individual_queries(self):
        oracle, _, _ = paper_oracle()
        mask = (1 << 1) | (1 << 2)
        stats = oracle.statistics(mask)
        assert stats.signal_probability == pytest.approx(
            oracle.signal_probability(mask)
        )
        assert stats.transition_probability == pytest.approx(
            oracle.transition_probability(mask)
        )


class TestActivationSignatures:
    """Signature encoding and the batched probability lookups."""

    def test_signature_of_union_is_or_of_signatures(self):
        oracle, isa, _ = paper_oracle()
        full = (1 << isa.num_modules) - 1
        for a in range(1, 20):
            for b in range(1, 20):
                sig_union = oracle.activation_signature((a | b) & full)
                assert sig_union == (
                    oracle.activation_signature(a & full)
                    | oracle.activation_signature(b & full)
                )

    def test_signature_bits_counts_instructions(self):
        oracle, isa, _ = paper_oracle()
        assert oracle.signature_bits == len(isa.masks)
        assert oracle.activation_signature(0) == 0
        # Every instruction clocks something, so the all-modules
        # signature has every bit set.
        full_mask = (1 << isa.num_modules) - 1
        assert oracle.activation_signature(full_mask) == (
            1 << oracle.signature_bits
        ) - 1

    def test_batch_probabilities_bit_identical_to_scalar(self):
        oracle, isa, _ = paper_oracle()
        masks = list(range(1 << isa.num_modules))
        sigs = np.array([oracle.activation_signature(m) for m in masks])
        batch_p = oracle.batch_probabilities(sigs)
        for j, mask in enumerate(masks):
            assert batch_p[j] == oracle.signal_probability(mask)  # exact

    def test_batch_deduplicates_repeats(self):
        # Repeated signatures must come back lane-for-lane, and the
        # memo sees each unique signature once.
        oracle, _, _ = paper_oracle()
        sig = oracle.activation_signature(0b101)
        out = oracle.batch_probabilities(np.array([sig, sig, sig, 0]))
        assert out[0] == out[1] == out[2] == oracle.signal_probability(0b101)
        assert out[3] == 0.0
        info = oracle.cache_info()["signal"]
        assert info.misses <= 2  # one per unique signature

    def test_empty_batch(self):
        oracle, _, _ = paper_oracle()
        assert oracle.batch_probabilities(np.array([], dtype=np.int64)).shape == (0,)


def _random_oracle(rng, num_instructions, num_modules):
    usage = [
        set(rng.choice(num_modules, size=int(rng.integers(1, 4)), replace=False).tolist())
        for _ in range(num_instructions)
    ]
    isa = InstructionSet.from_usage_lists(usage, num_modules)
    stream = InstructionStream(ids=rng.integers(0, num_instructions, size=200))
    return ActivityOracle(ActivityTables.from_stream(isa, stream))


@pytest.mark.parametrize("num_instructions", [1, 5, 32, 63, 64, 70])
def test_signature_vector_equals_activation_vector(num_instructions):
    # One byte-unpacking decoder serves every ISA width, on both sides
    # of the int64 column limit; it must give activation_vector's floats.
    rng = np.random.default_rng(num_instructions)
    num_modules = 12
    oracle = _random_oracle(rng, num_instructions, num_modules)
    full = (1 << num_modules) - 1
    masks = [0, full] + rng.integers(1, full, size=40).tolist()
    for mask in masks:
        expected = oracle.activation_vector(mask)
        got = oracle._signature_vector(oracle.activation_signature(mask))
        assert got.dtype == expected.dtype == np.float64
        assert np.array_equal(got, expected)
        if mask:
            assert oracle.signal_probability(mask) == min(
                max(float(expected @ oracle.tables.ift), 0.0), 1.0
            )


@pytest.mark.parametrize("wide", [False, True], ids=["paper-isa", "80-instructions"])
def test_statistics_is_the_scalar_pair_from_one_memo_each(wide):
    # statistics reads the same two signature memos as the scalar
    # queries, so it is their pair bit for bit, and a signature the
    # batch path already priced costs no second P(EN) derivation.
    if wide:
        oracle = _random_oracle(np.random.default_rng(80), 80, 12)
        masks = range(1, 1 << 12, 37)
    else:
        oracle, isa, _ = paper_oracle()
        masks = range(1 << isa.num_modules)
    for mask in masks:
        stats = oracle.statistics(mask)
        assert (stats.signal_probability, stats.transition_probability) == (
            oracle.signal_probability(mask),
            oracle.transition_probability(mask),
        )

    fresh = ActivityOracle(oracle.tables)
    mask = max(masks)
    sig = fresh.activation_signature(mask)
    assert sig != 0
    batch_p = fresh.batch_probabilities(np.array([sig], dtype=object if wide else np.int64))
    stats = fresh.statistics(mask)
    assert stats.signal_probability == batch_p[0]
    info = fresh.cache_info()["signal"]
    assert (info.misses, info.hits) == (1, 1)


@settings(max_examples=120, deadline=None)
@given(
    num_instructions=st.one_of(st.sampled_from([1, 63, 64, 70]), st.integers(1, 70)),
    seed=st.integers(0, 2**16),
    lanes=st.integers(0, 40),
    cache_size=st.sampled_from([1, 3, 1 << 16]),
    as_objects=st.booleans(),
)
def test_batched_and_scalar_oracles_agree_bit_for_bit(
    num_instructions, seed, lanes, cache_size, as_objects
):
    # Two fresh oracles per case, one answering only batches and one
    # only scalar queries, so neither can read a value the other
    # derived: the batched decode must reproduce the scalar bits.
    rng = np.random.default_rng(seed)
    tables = _random_oracle(rng, num_instructions, 12).tables
    batched = ActivityOracle(tables, cache_size=cache_size)
    scalar = ActivityOracle(tables, cache_size=cache_size)
    full = (1 << 12) - 1
    masks = [0, full] + rng.integers(0, full + 1, size=lanes).tolist()
    masks += masks[: lanes // 2]  # repeated lanes within one batch
    sigs = [batched.activation_signature(m) for m in masks]
    wide = batched.signature_bits > 63
    dtype = object if wide or as_objects else np.int64
    assert batched.batch_probabilities(np.array([], dtype=dtype)).shape == (0,)
    for _ in range(2):  # cold, then whatever the bounded memo kept
        got = batched.batch_probabilities(np.array(sigs, dtype=dtype))
        assert got.dtype == np.float64 and got.shape == (len(masks),)
        for value, mask in zip(got.tolist(), masks):
            expected = scalar.signal_probability(mask)
            assert np.float64(value).tobytes() == np.float64(expected).tobytes()
        info = batched.cache_info()["signal"]
        assert info.currsize <= cache_size
        assert scalar.cache_info()["signal"].currsize <= cache_size


@settings(max_examples=80, deadline=None)
@given(
    num_instructions=st.one_of(st.sampled_from([1, 63, 64, 70]), st.integers(1, 70)),
    seed=st.integers(0, 2**16),
    pairs=st.integers(1, 30),
)
def test_union_signature_statistics_equal_the_mask_statistics(num_instructions, seed, pairs):
    # The merger prices a merged node from sig_a | sig_b; a fresh oracle
    # pricing mask_a | mask_b must give the same bits for P(EN) and
    # P_tr(EN), on both sides of the int64 signature limit.
    rng = np.random.default_rng(seed)
    tables = _random_oracle(rng, num_instructions, 12).tables
    by_signature = ActivityOracle(tables)
    by_mask = ActivityOracle(tables)
    full = (1 << 12) - 1
    for _ in range(pairs):
        mask_a, mask_b = (int(m) for m in rng.integers(0, full + 1, size=2))
        union = by_signature.activation_signature(mask_a) | by_signature.activation_signature(
            mask_b
        )
        got = by_signature.signature_statistics(union)
        expected = by_mask.statistics(mask_a | mask_b)
        for value, reference in zip(
            (got.signal_probability, got.transition_probability),
            (expected.signal_probability, expected.transition_probability),
        ):
            assert np.float64(value).tobytes() == np.float64(reference).tobytes()
        assert by_signature.signature_probability(union) == expected.signal_probability
