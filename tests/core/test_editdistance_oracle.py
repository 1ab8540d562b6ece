"""The bit-parallel OSA kernel against a textbook dynamic-programming oracle.

``osa_distances`` computes the restricted Damerau (optimal string
alignment) distance to many patterns at once with Hyyrö's bit-vector
algorithm, the patterns packed side by side into one int with guard bits;
``damerau_levenshtein`` is its one-pattern use.  The oracle below is
the plain O(n·m) table, kept here and nowhere else so that the kernel is
always judged against an independent reading of the definition.  The
identifier-level case checks that stage-2 discrimination on the 27-type lab
corpus returns exactly what oracle-driven scoring returns, and that
``identify_batch`` labels every lab fingerprint as the oracle pipeline
does: per-forest stage 1, then oracle scores with the lexicographic
tie-break.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import UNKNOWN_DEVICE, DeviceIdentifier, damerau_levenshtein
from repro.core.editdistance import osa_distances
from repro.devices import DEVICE_PROFILES, collect_dataset
from tests.oracles import interpreted_candidates, record_forests


def oracle_osa(a, b) -> int:
    """Textbook OSA distance: insert, delete, substitute, adjacent swap."""
    n, m = len(a), len(b)
    d = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        d[i][0] = i
    for j in range(m + 1):
        d[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
            if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
                d[i][j] = min(d[i][j], d[i - 2][j - 2] + 1)
    return d[n][m]


def assert_matches_oracle(a, b) -> None:
    assert damerau_levenshtein(a, b) == oracle_osa(a, b)
    assert damerau_levenshtein(b, a) == oracle_osa(b, a)


def edited(draw, sequence, symbols, max_edits=8):
    """A copy of ``sequence`` after a few random substitutions, indels and swaps."""
    b = list(sequence)
    for _ in range(draw(st.integers(min_value=0, max_value=max_edits))):
        op = draw(st.sampled_from(["sub", "ins", "del", "swap"]))
        if op == "ins":
            b.insert(draw(st.integers(min_value=0, max_value=len(b))), draw(symbols))
        elif not b:
            continue
        elif op == "sub":
            b[draw(st.integers(min_value=0, max_value=len(b) - 1))] = draw(symbols)
        elif op == "del":
            del b[draw(st.integers(min_value=0, max_value=len(b) - 1))]
        elif len(b) > 1:
            i = draw(st.integers(min_value=0, max_value=len(b) - 2))
            b[i], b[i + 1] = b[i + 1], b[i]
    return b


@st.composite
def related_pairs(draw, symbols, min_size=0, max_size=200):
    """A sequence and a copy of it after a few random edits.

    Unrelated random sequences sit near the length bound; small edit
    scripts, adjacent swaps included, reach the transposition diagonal.
    """
    a = draw(st.lists(symbols, min_size=min_size, max_size=max_size))
    return a, edited(draw, a, symbols)


ints = st.integers(min_value=0, max_value=4)
chars = st.sampled_from("abcd")
tuples = st.tuples(st.integers(min_value=0, max_value=2), st.sampled_from([1.0, 2.5]))


class TestKernelMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(ints, max_size=200), st.lists(ints, max_size=200))
    def test_int_symbols(self, a, b):
        assert_matches_oracle(a, b)

    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet="abcd", max_size=200), st.text(alphabet="abcd", max_size=200))
    def test_str_symbols(self, a, b):
        assert_matches_oracle(a, b)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(tuples, max_size=200), st.lists(tuples, max_size=200))
    def test_tuple_symbols(self, a, b):
        assert_matches_oracle(a, b)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(related_pairs(ints), related_pairs(chars), related_pairs(tuples)))
    def test_edited_copies(self, pair):
        assert_matches_oracle(*pair)

    @settings(max_examples=60, deadline=None)
    @given(related_pairs(ints, min_size=72))
    def test_masks_wider_than_a_machine_word(self, pair):
        assert_matches_oracle(*pair)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(ints, max_size=40),
        st.lists(ints, max_size=40),
        st.integers(min_value=1, max_value=50),
    )
    def test_cutoff_contract(self, a, b, cutoff):
        true = oracle_osa(a, b)
        got = damerau_levenshtein(a, b, cutoff=cutoff)
        if true < cutoff:
            assert got == true
        else:
            assert cutoff <= got <= true

    @pytest.mark.parametrize(
        "a,b,expected",
        [("ca", "abc", 3), ("abcd", "acbd", 1), ("kitten", "sitting", 3), ("", "xyz", 3)],
    )
    def test_oracle_known_values(self, a, b, expected):
        assert oracle_osa(a, b) == expected


def assert_packed_matches_oracle(a, patterns) -> None:
    patterns = tuple(tuple(pattern) for pattern in patterns)
    assert osa_distances(a, patterns) == [oracle_osa(a, pattern) for pattern in patterns]


@st.composite
def pattern_sets(draw, symbols, max_patterns=15, max_len=80):
    """A query and 1–15 patterns, some edited copies of it, some repeated."""
    a = draw(st.lists(symbols, max_size=max_len))
    patterns = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_patterns))):
        kind = draw(st.sampled_from(["random", "edited", "empty", "repeat"]))
        if kind == "random":
            patterns.append(draw(st.lists(symbols, max_size=max_len)))
        elif kind == "edited":
            patterns.append(edited(draw, a, symbols, max_edits=6))
        elif kind == "empty":
            patterns.append([])
        elif patterns:
            patterns.append(list(draw(st.sampled_from(patterns))))
    return a, patterns or [[]]


class TestPackedKernelMatchesOracle:
    """Many patterns in one wide int must each get their own exact distance."""

    @settings(max_examples=150, deadline=None)
    @given(pattern_sets(ints))
    def test_int_symbols(self, case):
        assert_packed_matches_oracle(*case)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(pattern_sets(chars), pattern_sets(tuples)))
    def test_str_and_tuple_symbols(self, case):
        assert_packed_matches_oracle(*case)

    @settings(max_examples=40, deadline=None)
    @given(pattern_sets(ints, max_len=140))
    def test_blocks_wider_than_a_machine_word(self, case):
        assert_packed_matches_oracle(*case)

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(ints, max_size=60),
        st.lists(st.lists(ints, min_size=84, max_size=100), min_size=12, max_size=15),
    )
    def test_total_width_past_a_thousand_bits(self, a, patterns):
        assert sum(len(p) + 1 for p in patterns) > 1000
        assert_packed_matches_oracle(a, patterns)

    @pytest.mark.parametrize(
        "a,patterns",
        [
            ("", ["", "x", "xyz"]),
            ("abc", ["", "", "abc"]),
            ("ca", ["abc", "abc", "ac", "ca"]),
            ("kitten", ["sitting", "", "kitten", "ktiten"]),
        ],
    )
    def test_empty_and_duplicate_patterns(self, a, patterns):
        assert_packed_matches_oracle(a, patterns)

    def test_guard_bit_stops_a_full_carry(self):
        # A query that matches the lower block everywhere drives a carry
        # through all of its bits; the block above must not see it.
        a = "a" * 70
        assert_packed_matches_oracle(a, ["a" * 70, "b" * 70, "a" * 69, "ab" * 35])


# --- identifier level ---------------------------------------------------------


@pytest.fixture(scope="module")
def lab_identifier():
    corpus = collect_dataset(DEVICE_PROFILES, runs_per_device=20, seed=2017)
    with record_forests() as forests:
        identifier = DeviceIdentifier(random_state=5).fit(corpus)
    return corpus, identifier, forests


def oracle_scores(identifier, fingerprint, candidates):
    """Unbounded dissimilarity sums with the oracle, in discriminate's order."""
    symbols = fingerprint.symbols()
    scores = {}
    for label in sorted(candidates):
        total = 0.0
        for reference, count in identifier.snapshot.models[label].grouped_references:
            longest = max(len(symbols), len(reference))
            total += count * (oracle_osa(symbols, reference) / longest if longest else 0.0)
        scores[label] = total
    return scores


def test_discriminate_matches_oracle_on_lab_corpus(lab_identifier):
    corpus, identifier, forests = lab_identifier
    tolerance = DeviceIdentifier.TIE_TOLERANCE
    probes = [fp for label in corpus.labels for fp in corpus.fingerprints(label)]
    candidate_lists = interpreted_candidates(identifier, probes, forests)
    assert sum(len(c) > 1 for c in candidate_lists) >= 50, (
        "the lab corpus should exercise stage 2 often"
    )
    labels = []
    for fp, candidates in zip(probes, candidate_lists):
        if len(candidates) <= 1:
            labels.append(candidates[0] if candidates else UNKNOWN_DEVICE)
            continue
        winner, scores = identifier.discriminate(fp, candidates)
        expected = oracle_scores(identifier, fp, candidates)
        best = min(expected.values())
        tied = sorted(label for label, score in expected.items() if score <= best + tolerance)
        assert winner == tied[0]
        assert sorted(label for label, score in scores.items() if score <= best + tolerance) == tied
        # Every score is exact, a hopeless candidate's included.
        assert scores == expected
        labels.append(tied[0])
    # End to end: identify_batch labels all 540 fingerprints as the
    # per-forest stage 1 plus oracle stage 2 does.
    assert len(probes) == 540
    assert [result.label for result in identifier.identify_batch(probes)] == labels
