from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permpat.enumeration import count_avoiders, enumerate_avoiders
from permpat.lifting import is_redundant, lift, lift_power, pattern_words, superpatterns
from permpat.perms import all_permutations, contains, parse_pattern_set

from conftest import brute_contains


def test_pattern_words_example():
    expected = frozenset({(1, 3, 2), (1, 4, 2), (1, 4, 3), (2, 4, 3)})
    assert pattern_words((1, 3, 2), 4) == expected


def test_pattern_words_degenerate_and_counts():
    for k in range(1, 5):
        for tau in all_permutations(k):
            assert pattern_words(tau, k) == frozenset({tau})
            for m in range(k, 9):
                assert len(pattern_words(tau, m)) == comb(m, k)
    assert len(pattern_words((2, 1, 3), 5)) == 10


def test_pattern_words_requires_large_alphabet():
    with pytest.raises(ValueError):
        pattern_words((1, 2, 3), 2)


def test_superpatterns_example():
    expected = parse_pattern_set("1324;1342;1432;4132;1423;3142;1243;2143;2431;2413")
    assert superpatterns((1, 3, 2), 4) == expected
    for tau in all_permutations(3):
        assert len(superpatterns(tau, 4)) == 10


def test_superpatterns_complement_avoiders():
    for k, taus in ((3, list(all_permutations(3))), (4, [(2, 1, 4, 3), (3, 4, 1, 2)])):
        for tau in taus:
            for m in range(k, 7):
                sup = superpatterns(tau, m)
                avoid = set(enumerate_avoiders(m, [tau]))
                assert not (sup & avoid)
                assert len(sup) + len(avoid) == len(list(all_permutations(m))) and \
                    sup | avoid == set(all_permutations(m))


def test_lift_basics():
    assert len(lift([(1, 3, 2)]).image) == 10
    assert lift([]).image == frozenset()
    # overlap computed exhaustively: no S_4 permutation contains both 123 and 321
    both = [p for p in all_permutations(4) if brute_contains(p, (1, 2, 3)) and brute_contains(p, (3, 2, 1))]
    image = lift([(1, 2, 3), (3, 2, 1)]).image
    assert len(image) == 20 and not both


def test_lift_rejects_mixed_lengths():
    with pytest.raises(ValueError):
        lift([(1, 2, 3), (1, 2, 3, 4)])


def test_lift_power():
    assert lift_power([(1, 3, 2)], 1) == lift([(1, 3, 2)]).image
    closure = frozenset(p for p in all_permutations(5) if brute_contains(p, (1, 2, 3)))
    assert lift_power([(1, 2, 3)], 2) == closure
    assert len(closure) == 120 - 42
    with pytest.raises(ValueError):
        lift_power([(1, 2, 3)], 0)


def test_pattern_words_and_lift_reject_malformed_patterns():
    with pytest.raises(ValueError):
        pattern_words((2, 4, 3), 5)
    with pytest.raises(ValueError):
        lift({(2, 4, 3)})
    with pytest.raises(ValueError):
        lift_power({(1, 3, 3)}, 2)
    with pytest.raises(ValueError, match="smaller than the pattern length"):
        superpatterns((1, 3, 2), 2)
    # tau is read as a permutation, as pattern_words reads it, not standardized
    for tau in ((True, 2), (5, 9)):
        with pytest.raises(ValueError):
            superpatterns(tau, 3)


@settings(deadline=None, max_examples=30)
@given(st.sets(st.sampled_from(sorted(all_permutations(3))), min_size=1), st.integers(4, 7))
def test_lift_identity_random_subsets(t, n):
    # every occurrence of a length-3 pattern extends to one of a length-4
    # superpattern once n >= 4, so T and lift(T) have the same avoiders
    assert enumerate_avoiders(n, t) == enumerate_avoiders(n, lift(t).image)


def test_lift_preserves_avoiders_small():
    for tau in all_permutations(3):
        image = lift([tau]).image
        for n in (5, 6):
            assert enumerate_avoiders(n, [tau]) == enumerate_avoiders(n, image)


def test_is_redundant():
    assert is_redundant((1, 2, 3), (1, 2, 3, 4))
    assert not is_redundant((1, 3, 2), (4, 3, 2, 1))
    for alpha, tau in [((1, 2, 3), (1, 3, 2)), ((5, 9), (1, 2, 3)), ((1, 2), (9, 7, 8))]:
        with pytest.raises(ValueError):
            is_redundant(alpha, tau)
    for alpha in all_permutations(3):
        for tau in all_permutations(4):
            assert is_redundant(alpha, tau) == contains(tau, alpha)


def test_redundant_pairs_count_catalan():
    catalan = [comb(2 * n, n) // (n + 1) for n in range(8)]
    for alpha, tau in [((1, 2, 3), (1, 2, 3, 4)), ((1, 3, 2), (4, 1, 3, 2))]:
        assert is_redundant(alpha, tau)
        for n in range(1, 8):
            assert count_avoiders(n, [alpha, tau]) == catalan[n]


def test_witness_for_non_redundant():
    # adding a non-containing longer pattern changes some count by n <= 9;
    # the first divergence shows up already at the pattern's own length
    for alpha, tau in [((1, 2, 3), (4, 3, 2, 1)), ((1, 3, 2), (3, 2, 1, 4))]:
        assert not is_redundant(alpha, tau)
        diffs = [
            n
            for n in range(10)
            if count_avoiders(n, [alpha, tau]) != count_avoiders(n, [alpha])
        ]
        assert diffs and diffs[0] == 4
