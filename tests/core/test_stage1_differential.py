"""Stage 1's fast paths against the plain reference computations.

``Fingerprint.fixed`` builds ``F'`` straight from the packet tuples and
must equal ``fixed_vector(fp.rows, n)`` byte for byte, NaN rows included.
``DeviceIdentifier.classify_batch`` reads every candidate list off one
``np.nonzero`` over the accepted (fingerprint, type) matrix and must give
the lists, label order included, that a per-forest ``flatnonzero`` loop
gives on the lab corpus.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NUM_FEATURES, DeviceIdentifier, Fingerprint, fixed_vector
from repro.devices import DEVICE_PROFILES, collect_dataset

SHARED_NAN = float("nan")

entries = st.one_of(
    st.integers(min_value=-2, max_value=3),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, float("inf")]),
    st.just(SHARED_NAN),
    st.builds(lambda: float("nan")),
)


@st.composite
def packet_sequences(draw):
    """Packets drawn from a small pool, so repeats of every kind occur.

    Pool rows vary in three feature slots; the sequence revisits them in
    any order (consecutive and non-consecutive repeats), sometimes as a
    list, sometimes as a fresh tuple holding the same entry objects.
    """
    pool = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        row = [0.0] * NUM_FEATURES
        for slot in (0, 5, 18):
            row[slot] = draw(entries)
        pool.append(tuple(row))
    indices = draw(st.lists(st.integers(min_value=0, max_value=len(pool) - 1), max_size=30))
    packets = []
    for i in indices:
        form = draw(st.sampled_from(["same", "copy", "list"]))
        row = pool[i]
        packets.append(row if form == "same" else tuple(list(row)) if form == "copy" else list(row))
    return tuple(packets)


def assert_fixed_matches_reference(packets, length):
    fp = Fingerprint(packets=packets)
    fast = fp.fixed(length)
    assert fast.dtype == np.float64
    assert fast.tobytes() == fixed_vector(fp.rows, length).tobytes()


class TestFixedMatchesFixedVector:
    @settings(max_examples=300, deadline=None)
    @given(packet_sequences(), st.integers(min_value=1, max_value=8))
    def test_random_packet_sequences(self, packets, length):
        assert_fixed_matches_reference(packets, length)

    def test_non_consecutive_repeats(self):
        a, b, c = ((float(v),) * NUM_FEATURES for v in (1, 2, 3))
        assert_fixed_matches_reference((a, b, a, c, b, a), 3)

    @pytest.mark.parametrize("length", [1, 2, 4, 12])
    def test_fewer_and_more_unique_rows_than_length(self, length):
        packets = tuple((float(v),) * NUM_FEATURES for v in (1, 2, 1, 3, 2))
        assert_fixed_matches_reference(packets, length)

    def test_int_and_float_entries_compare_equal(self):
        ints = (1,) * NUM_FEATURES
        floats = (1.0,) * NUM_FEATURES
        assert_fixed_matches_reference((ints, (2.0,) * NUM_FEATURES, floats), 3)

    def test_list_packets(self):
        row = [1.0] * NUM_FEATURES
        assert_fixed_matches_reference((row, [2] * NUM_FEATURES, list(row)), 3)

    def test_nan_row_never_matches_an_earlier_one(self):
        fresh = (float("nan"),) + (1.0,) * (NUM_FEATURES - 1)
        other = (float("nan"),) + (1.0,) * (NUM_FEATURES - 1)
        assert_fixed_matches_reference((fresh, other, fresh), 4)

    def test_shared_nan_object_in_two_packets(self):
        # One NaN object in two packets: tuple equality's identity shortcut
        # would call them equal; fixed_vector's float round trip does not.
        first = (SHARED_NAN,) + (1.0,) * (NUM_FEATURES - 1)
        second = (SHARED_NAN,) + (1.0,) * (NUM_FEATURES - 1)
        fp = Fingerprint(packets=(first, second, first))
        assert np.isnan(fp.fixed(3).reshape(3, NUM_FEATURES)[:, 0]).all()
        assert_fixed_matches_reference((first, second, first), 3)

    def test_empty_fingerprint(self):
        assert_fixed_matches_reference((), 2)


# --- classify_batch ----------------------------------------------------------


@pytest.fixture(scope="module")
def lab():
    corpus = collect_dataset(DEVICE_PROFILES, runs_per_device=10, seed=2017)
    identifier = DeviceIdentifier(random_state=5).fit(corpus)
    probes = [fp for label in corpus.labels for fp in corpus.fingerprints(label)]
    return identifier, probes


def reference_candidates(identifier, fingerprints):
    """One ``flatnonzero`` per forest over ``fixed_vector`` rows."""
    stacked = np.vstack([fixed_vector(fp.rows, identifier.fp_length) for fp in fingerprints])
    bank = identifier._compiled_bank()
    positive = bank.positive_proba(stacked)
    candidates = [[] for _ in fingerprints]
    for j, label in enumerate(bank.labels):
        for row in np.flatnonzero(positive[:, j] >= identifier.accept_threshold):
            candidates[int(row)].append(label)
    return candidates


def test_classify_batch_matches_per_forest_loop(lab):
    identifier, probes = lab
    expected = reference_candidates(identifier, probes)
    assert sum(len(c) > 1 for c in expected) >= 20, "the corpus should yield multi-candidate rows"
    assert identifier.classify_batch(probes) == expected
    for start in range(0, 64, 4):
        batch = [Fingerprint(packets=fp.packets) for fp in probes[start : start + 4]]
        assert identifier.classify_batch(batch) == expected[start : start + 4]


def test_interpreted_path_gives_the_same_lists(lab):
    identifier, probes = lab
    identifier.compiled = False
    try:
        assert identifier.classify_batch(probes) == reference_candidates(identifier, probes)
    finally:
        identifier.compiled = True
