"""Damerau–Levenshtein edit distance tests (the discrimination metric)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    damerau_levenshtein,
    damerau_levenshtein_unrestricted,
    dissimilarity_score,
    normalized_distance,
)
from repro.core.editdistance import dissimilarity_score_grouped

seqs = st.lists(st.integers(min_value=0, max_value=5), max_size=12)
long_seqs = st.lists(st.integers(min_value=0, max_value=3), min_size=30, max_size=60)


class TestUnrestrictedVariant:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("", "", 0),
            ("abc", "abc", 0),
            ("abc", "", 3),
            ("ab", "ba", 1),
            ("ca", "abc", 2),  # the classic case where OSA says 3
            ("a cat", "an act", 2),
            ("kitten", "sitting", 3),
        ],
    )
    def test_known_values(self, a, b, expected):
        assert damerau_levenshtein_unrestricted(list(a), list(b)) == expected

    @given(seqs, seqs)
    def test_never_exceeds_osa(self, a, b):
        assert damerau_levenshtein_unrestricted(a, b) <= damerau_levenshtein(a, b)

    @given(seqs, seqs)
    def test_symmetry(self, a, b):
        assert damerau_levenshtein_unrestricted(a, b) == damerau_levenshtein_unrestricted(b, a)

    @given(seqs)
    def test_identity(self, a):
        assert damerau_levenshtein_unrestricted(a, a) == 0

    @given(seqs, seqs)
    def test_length_lower_bound(self, a, b):
        assert damerau_levenshtein_unrestricted(a, b) >= abs(len(a) - len(b))

    @given(seqs, seqs, seqs)
    def test_triangle_inequality(self, a, b, c):
        # Unlike OSA, the unrestricted distance is a true metric.
        ab = damerau_levenshtein_unrestricted(a, b)
        bc = damerau_levenshtein_unrestricted(b, c)
        ac = damerau_levenshtein_unrestricted(a, c)
        assert ac <= ab + bc


class TestKnownDistances:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("", "", 0),
            ("abc", "abc", 0),
            ("abc", "", 3),
            ("", "xy", 2),
            ("abc", "abd", 1),  # substitution
            ("abc", "abcd", 1),  # insertion
            ("abcd", "abc", 1),  # deletion
            ("ab", "ba", 1),  # immediate transposition
            ("abcd", "acbd", 1),  # interior transposition
            ("ca", "abc", 3),  # OSA classic (true DL would be 2)
            ("kitten", "sitting", 3),
        ],
    )
    def test_strings(self, a, b, expected):
        assert damerau_levenshtein(list(a), list(b)) == expected

    def test_packet_symbols(self):
        # Symbols are tuples (packet columns); equality is all-features.
        p1, p2, p3 = (1.0, 2.0), (1.0, 3.0), (9.0, 9.0)
        assert damerau_levenshtein([p1, p2], [p1, p2]) == 0
        assert damerau_levenshtein([p1, p2], [p1, p3]) == 1
        assert damerau_levenshtein([p1, p2], [p2, p1]) == 1


class TestNormalized:
    def test_bounds(self):
        assert normalized_distance("abc", "xyz") == 1.0
        assert normalized_distance("abc", "abc") == 0.0
        assert normalized_distance([], []) == 0.0

    def test_divides_by_longer(self):
        assert normalized_distance("ab", "abcd") == pytest.approx(2 / 4)

    @given(seqs, seqs)
    def test_always_in_unit_interval(self, a, b):
        assert 0.0 <= normalized_distance(a, b) <= 1.0

    @given(seqs, seqs)
    def test_symmetry(self, a, b):
        assert damerau_levenshtein(a, b) == damerau_levenshtein(b, a)

    @given(seqs)
    def test_identity(self, a):
        assert damerau_levenshtein(a, a) == 0

    @given(seqs, seqs)
    def test_length_difference_lower_bound(self, a, b):
        assert damerau_levenshtein(a, b) >= abs(len(a) - len(b))


class TestCutoff:
    """The early-abandon variant must be indistinguishable below the bound."""

    @given(seqs, seqs, st.integers(min_value=1, max_value=15))
    def test_exact_below_cutoff(self, a, b, cutoff):
        true = damerau_levenshtein(a, b)
        got = damerau_levenshtein(a, b, cutoff=cutoff)
        if true < cutoff:
            assert got == true
        else:
            assert cutoff <= got <= true

    @given(long_seqs, long_seqs)
    def test_long_sequence_exactness(self, a, b):
        # Long sequences must come out exact without a cutoff, agreeing
        # with a run whose cutoff lies beyond any possible distance.
        assert damerau_levenshtein(a, b) == damerau_levenshtein(
            a, b, cutoff=len(a) + len(b) + 1
        )

    @given(seqs, seqs, st.integers(min_value=1, max_value=15))
    def test_cutoff_symmetry_below_bound(self, a, b, cutoff):
        # Above the bound either direction may abandon at a different row
        # and return a different value in [cutoff, true]; symmetry is only
        # part of the contract when the true distance is below the cutoff.
        true = damerau_levenshtein(a, b)
        ab = damerau_levenshtein(a, b, cutoff=cutoff)
        ba = damerau_levenshtein(b, a, cutoff=cutoff)
        if true < cutoff:
            assert ab == ba == true
        else:
            assert cutoff <= ab <= true
            assert cutoff <= ba <= true

    def test_invalid_cutoff_rejected(self):
        with pytest.raises(ValueError):
            damerau_levenshtein("ab", "cd", cutoff=0)

    @pytest.mark.parametrize("cutoff", [-0.5, -1.0, -0.001, -3.0])
    def test_negative_normalized_cutoff_is_a_valid_bound(self, cutoff):
        # Every normalized distance exceeds a negative bound, so the
        # result only has to lie in (cutoff, true]; it must not raise.
        got = normalized_distance("abc", "abd", cutoff=cutoff)
        assert cutoff < got <= normalized_distance("abc", "abd")
        assert normalized_distance("abc", "abc", cutoff=cutoff) == 0.0

    @given(seqs, seqs, st.floats(min_value=-5.0, max_value=0.0, exclude_max=True))
    def test_negative_normalized_cutoff_contract(self, a, b, cutoff):
        true = normalized_distance(a, b)
        got = normalized_distance(a, b, cutoff=cutoff)
        assert cutoff < got <= true

    @given(seqs, seqs)
    def test_osa_upper_bounds_unrestricted(self, a, b):
        # The pipeline's OSA distance never undercuts the true DL metric.
        assert damerau_levenshtein(a, b) >= damerau_levenshtein_unrestricted(a, b)

    @given(
        seqs,
        seqs,
        st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    )
    def test_normalized_cutoff_exact_below_bound(self, a, b, cutoff):
        true = normalized_distance(a, b)
        got = normalized_distance(a, b, cutoff=cutoff)
        if true <= cutoff:
            assert got == pytest.approx(true)
        else:
            assert cutoff < got <= true


class TestDissimilarityScore:
    def test_sums_over_references(self):
        score = dissimilarity_score("abc", ["abc", "abd", "xyz"])
        assert score == pytest.approx(0 + 1 / 3 + 1.0)

    def test_score_bounded_by_reference_count(self):
        refs = ["zzz"] * 5
        assert dissimilarity_score("abc", refs) == pytest.approx(5.0)

    def test_empty_references(self):
        assert dissimilarity_score("abc", []) == 0.0

    @pytest.mark.parametrize("bound", [-1.0, -0.25, -1e-12])
    def test_negative_bound_is_exceeded_not_raised(self, bound):
        refs = ["abc", "abd", "xyz"]
        got = dissimilarity_score("abc", refs, bound=bound)
        assert bound < got <= dissimilarity_score("abc", refs)
        assert dissimilarity_score("abc", ["abc"], bound=bound) == 0.0

    @given(seqs, st.lists(seqs, max_size=5), st.floats(min_value=-5.0, max_value=0.0, exclude_max=True))
    def test_negative_bound_contract(self, candidate, references, bound):
        got = dissimilarity_score(candidate, references, bound=bound)
        assert bound < got <= dissimilarity_score(candidate, references) + 1e-12

    @given(
        seqs,
        st.lists(seqs, max_size=5),
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    )
    def test_bound_exact_when_true_score_within(self, candidate, references, bound):
        true = dissimilarity_score(candidate, references)
        got = dissimilarity_score(candidate, references, bound=bound)
        if true <= bound:
            assert got == pytest.approx(true, abs=1e-12)
        else:
            assert bound < got <= true + 1e-12

    @given(seqs, st.lists(seqs, max_size=4))
    def test_grouped_matches_flat(self, candidate, references):
        from collections import Counter

        repeated = references * 2  # force multiplicities
        groups = list(Counter(tuple(r) for r in repeated).items())
        assert dissimilarity_score_grouped(candidate, groups) == pytest.approx(
            dissimilarity_score(candidate, repeated)
        )
