"""Fingerprint matrix F and fixed vector F' tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    DEFAULT_FP_PACKETS,
    FIXED_VECTOR_DIM,
    NUM_FEATURES,
    Fingerprint,
    dedupe_consecutive,
    fixed_vector,
)


def vec(seed: float) -> np.ndarray:
    v = np.zeros(NUM_FEATURES)
    v[18] = seed  # packet size slot
    return v


class TestDedup:
    def test_consecutive_duplicates_removed(self):
        out = dedupe_consecutive([vec(1), vec(1), vec(2), vec(2), vec(1)])
        assert [v[18] for v in out] == [1, 2, 1]

    def test_non_consecutive_duplicates_kept(self):
        out = dedupe_consecutive([vec(1), vec(2), vec(1)])
        assert len(out) == 3

    def test_empty(self):
        assert dedupe_consecutive([]) == []


class TestFixedVector:
    def test_length_is_12_times_23(self):
        assert fixed_vector([vec(1)]).shape == (FIXED_VECTOR_DIM,)
        assert FIXED_VECTOR_DIM == DEFAULT_FP_PACKETS * NUM_FEATURES
        assert FIXED_VECTOR_DIM == 276

    def test_padding_with_zeros(self):
        out = fixed_vector([vec(5)])
        assert out[18] == 5
        assert not out[NUM_FEATURES:].any()

    def test_unique_packets_only(self):
        # First 12 *unique* vectors: duplicates anywhere are skipped.
        out = fixed_vector([vec(1), vec(2), vec(1), vec(3)])
        sizes = [out[i * NUM_FEATURES + 18] for i in range(4)]
        assert sizes == [1, 2, 3, 0]

    def test_truncation_at_length(self):
        vectors = [vec(i + 1) for i in range(20)]
        out = fixed_vector(vectors)
        assert out[(DEFAULT_FP_PACKETS - 1) * NUM_FEATURES + 18] == 12

    def test_custom_length(self):
        out = fixed_vector([vec(i + 1) for i in range(20)], length=4)
        assert out.shape == (4 * NUM_FEATURES,)

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            fixed_vector([vec(1)], length=0)

    @given(st.lists(st.integers(min_value=1, max_value=5), max_size=30))
    def test_fixed_vector_shape_invariant(self, seeds):
        out = fixed_vector([vec(s) for s in seeds])
        assert out.shape == (FIXED_VECTOR_DIM,)


class TestFingerprint:
    def test_from_vectors_applies_dedup(self):
        fp = Fingerprint.from_vectors([vec(1), vec(1), vec(2)])
        assert len(fp) == 2

    def test_matrix_orientation(self):
        fp = Fingerprint.from_vectors([vec(1), vec(2), vec(3)])
        assert fp.matrix.shape == (NUM_FEATURES, 3)  # paper's 23 x n
        assert fp.rows.shape == (3, NUM_FEATURES)
        assert np.array_equal(fp.matrix.T, fp.rows)

    def test_empty_fingerprint(self):
        fp = Fingerprint.from_vectors([])
        assert len(fp) == 0
        assert fp.matrix.shape == (NUM_FEATURES, 0)
        assert fp.fixed().shape == (FIXED_VECTOR_DIM,)
        assert not fp.fixed().any()

    def test_wrong_vector_length_rejected(self):
        with pytest.raises(ValueError):
            Fingerprint.from_vectors([np.zeros(5)])

    def test_malformed_duplicate_rejected(self):
        # Validation must run before consecutive-dedup: a bad vector that
        # equals its predecessor used to be silently dropped.
        with pytest.raises(ValueError):
            Fingerprint.from_vectors([np.zeros(5), np.zeros(5)])

    def test_malformed_vector_after_valid_duplicate_rejected(self):
        with pytest.raises(ValueError):
            Fingerprint.from_vectors([vec(1), vec(1), np.zeros(4)])

    def test_symbols_are_hashable(self):
        fp = Fingerprint.from_vectors([vec(1), vec(2)])
        assert len({fp.symbols()[0], fp.symbols()[1]}) == 2

    def test_metadata_preserved(self):
        fp = Fingerprint.from_vectors([vec(1)], device_mac="aa:bb:cc:dd:ee:ff", label="Aria")
        assert fp.device_mac == "aa:bb:cc:dd:ee:ff"
        assert fp.label == "Aria"

    def test_fixed_equals_module_function(self):
        vectors = [vec(i) for i in (3, 1, 4, 1, 5)]
        fp = Fingerprint.from_vectors(vectors)
        assert np.array_equal(fp.fixed(), fixed_vector(dedupe_consecutive(vectors)))

    def test_from_matrix_matches_from_vectors(self):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 3, size=(20, NUM_FEATURES)).astype(float)
        rows[5] = rows[4]  # consecutive duplicates
        rows[6] = rows[4]
        a = Fingerprint.from_vectors(list(rows), device_mac="aa:bb:cc:dd:ee:01")
        b = Fingerprint.from_matrix(rows, device_mac="aa:bb:cc:dd:ee:01")
        assert a == b
        # Oracle: the per-vector dedup loop of the paper's definition.
        assert b.packets == tuple(tuple(v.tolist()) for v in dedupe_consecutive(list(rows)))
        rows[8:10] = np.nan  # NaN never equals its predecessor
        kept = dedupe_consecutive(list(rows))
        assert len(Fingerprint.from_vectors(list(rows)).packets) == len(kept)
        assert len(Fingerprint.from_matrix(rows).packets) == len(kept)
        assert Fingerprint.from_matrix(np.zeros((0, NUM_FEATURES))).packets == ()
        with pytest.raises(ValueError):
            Fingerprint.from_matrix(np.zeros((2, NUM_FEATURES - 1)))


class TestMemoization:
    def test_fixed_is_cached_per_length(self):
        fp = Fingerprint.from_vectors([vec(1), vec(2)])
        assert fp.fixed() is fp.fixed()
        assert fp.fixed(4) is fp.fixed(4)
        assert fp.fixed(4) is not fp.fixed(6)
        assert fp.fixed(4).shape != fp.fixed(6).shape

    def test_fixed_cache_is_read_only(self):
        fp = Fingerprint.from_vectors([vec(1)])
        with pytest.raises(ValueError):
            fp.fixed()[0] = 99.0

    def test_symbols_cached(self):
        fp = Fingerprint.from_vectors([vec(1), vec(2)])
        assert fp.symbols() is fp.symbols()

    def test_cache_excluded_from_equality_and_hash(self):
        a = Fingerprint.from_vectors([vec(1)])
        b = Fingerprint.from_vectors([vec(1)])
        a.fixed()  # warm one cache only
        a.symbols()
        assert a == b
        assert hash(a) == hash(b)


class TestSymbolInterning:
    def test_equal_packets_share_symbol_across_instances(self):
        a = Fingerprint.from_vectors([vec(1), vec(2)])
        b = Fingerprint.from_vectors([vec(2), vec(1)])
        assert a.symbols()[0] == b.symbols()[1]
        assert a.symbols()[1] == b.symbols()[0]

    def test_distinct_packets_get_distinct_symbols(self):
        fp = Fingerprint.from_vectors([vec(i + 1) for i in range(6)])
        assert len(set(fp.symbols())) == 6

    def test_symbol_count_matches_packet_count(self):
        fp = Fingerprint.from_vectors([vec(1), vec(2), vec(1)])
        assert len(fp.symbols()) == len(fp)
