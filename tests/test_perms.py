import itertools
import random

import pytest

from permpat.perms import (
    PatternSyntaxError,
    all_permutations,
    avoids_all,
    check_permutation,
    contains,
    find_occurrence,
    format_pattern_set,
    format_permutation,
    is_order_isomorphic,
    parse_pattern_set,
    parse_permutation,
    standardize,
)

from conftest import brute_contains, naive_avoiders, std


def test_standardize_examples():
    assert standardize((50, 20, 70)) == (2, 1, 3)
    assert standardize(tuple(range(1, 8))) == tuple(range(1, 8))
    # expected value recomputed with the sort-and-rank oracle
    assert std((6, 1, 9, 4)) == (3, 1, 4, 2)
    assert standardize((6, 1, 9, 4)) == (3, 1, 4, 2)
    assert standardize(()) == ()


def test_standardize_rejects_duplicates():
    with pytest.raises(ValueError):
        standardize((3, 1, 3))


def test_standardize_idempotent():
    rng = random.Random(11)
    for _ in range(200):
        word = tuple(rng.sample(range(-50, 50), rng.randint(0, 8)))
        once = standardize(word)
        assert standardize(once) == once
        assert once == std(word)


def test_order_isomorphism():
    assert is_order_isomorphic((1, 3, 2), (1, 4, 2))
    assert not is_order_isomorphic((1, 3, 2), (2, 3, 1))
    assert not is_order_isomorphic((1, 2), (1, 2, 3))
    # (1,4,2) is one of the words on 1..4 order-isomorphic to 132
    assert is_order_isomorphic((1, 4, 2), (1, 3, 2))


def test_contains_basics():
    assert contains((1, 2, 3, 4), (1, 2, 3))
    for n in range(1, 8):
        assert not contains(tuple(range(n, 0, -1)), (1, 2))
    assert contains((2, 4, 1, 3), ())
    assert contains((), ())
    assert not contains((), (1,))


def test_contains_matches_subsequence_scan():
    pats = [p for k in (1, 2, 3) for p in all_permutations(k)] + [
        (2, 1, 4, 3), (3, 4, 1, 2), (1, 3, 2, 4),
    ]
    for n in range(0, 6):
        for perm in all_permutations(n):
            for pat in pats:
                assert contains(perm, pat) == brute_contains(perm, pat)


def test_each_s3_pattern_in_ten_s4_permutations():
    for tau in all_permutations(3):
        hits = sum(1 for p in all_permutations(4) if contains(p, tau))
        assert hits == 10


def test_containment_count_depends_only_on_standardization():
    # contains compares relative order, so any word with the same
    # standardization selects the same permutations
    rng = random.Random(5)
    for m in (4, 5):
        for tau in [(1, 3, 2), (2, 1, 3), (3, 1, 2)]:
            letters = sorted(rng.sample(range(10, 99), 3))
            word = tuple(letters[i - 1] for i in tau)
            assert std(word) == tau
            direct = sum(1 for p in all_permutations(m) if contains(p, tau))
            via_word = sum(1 for p in all_permutations(m) if contains(p, word))
            assert direct == via_word


def test_find_occurrence_examples():
    assert find_occurrence((2, 4, 1, 3), (1, 2)) == (1, 2)
    assert find_occurrence((3, 2, 1), (1, 2)) is None
    assert find_occurrence((1, 4, 2, 3), (1, 3, 2)) == (1, 2, 3)
    assert find_occurrence((5, 1, 2), ()) == ()


def test_find_occurrence_is_lex_least():
    rng = random.Random(23)

    def oracle(perm, pattern):
        k = len(pattern)
        for idxs in itertools.combinations(range(len(perm)), k):
            if std([perm[i] for i in idxs]) == tuple(pattern):
                return tuple(i + 1 for i in idxs)
        return None

    pats = [(1, 2), (2, 1), (1, 3, 2), (2, 1, 3), (3, 1, 2), (2, 1, 4, 3), (1, 3, 2, 4)]
    for _ in range(150):
        n = rng.randint(0, 7)
        perm = tuple(rng.sample(range(1, n + 1), n))
        for pat in pats:
            assert find_occurrence(perm, pat) == oracle(perm, pat)


def test_avoids_all():
    assert avoids_all((2, 1, 3), [(1, 2, 3)])
    assert not avoids_all((1, 2, 3), [(1, 2, 3), (3, 2, 1)])
    catalan_4 = sum(1 for p in all_permutations(4) if avoids_all(p, [(1, 3, 2)]))
    assert catalan_4 == 14


def test_containment_monotone_under_extension():
    rng = random.Random(3)
    pats = [(1, 3, 2), (2, 1, 3), (3, 2, 1), (2, 1, 4, 3)]
    for _ in range(100):
        n = rng.randint(2, 7)
        perm = tuple(rng.sample(range(1, n + 1), n))
        for m in range(1, n):
            prefix = standardize(perm[:m])
            for pat in pats:
                if contains(prefix, pat):
                    assert contains(perm, pat)


def test_relabeling_invariance():
    # counting avoiders among the permutations of any alphabet matches the
    # count over S_n for the standardized pattern set
    rng = random.Random(17)
    t_sets = [
        [(1, 3, 2)],
        [(1, 2, 3), (3, 2, 1)],
        [(2, 1, 3), (2, 3, 1)],
    ]
    for n in range(1, 6):
        alphabet = sorted(rng.sample(range(100, 999), n))
        for t in t_sets:
            words = itertools.permutations(alphabet)
            count = sum(1 for w in words if not any(brute_contains(w, pat) for pat in t))
            assert count == len(naive_avoiders(n, t))


def test_check_permutation():
    assert check_permutation((2, 1, 3)) == (2, 1, 3)
    with pytest.raises(ValueError):
        check_permutation((1, 3))
    with pytest.raises(ValueError):
        check_permutation((0, 1))


def test_literal_round_trip():
    sets = [
        frozenset({(1, 2, 3)}),
        frozenset({(1, 2, 3), (3, 4, 1, 2)}),
        frozenset({(2, 1, 3), (1, 3, 2), (4, 3, 2, 1)}),
        frozenset({tuple(range(1, 11))}),
    ]
    for s in sets:
        assert parse_pattern_set(format_pattern_set(s)) == s
    assert parse_permutation("3 1 2") == (3, 1, 2)
    assert parse_permutation("3,1,2") == (3, 1, 2)
    assert parse_permutation("3412") == (3, 4, 1, 2)
    assert format_permutation(()) == ""


def test_parse_errors_carry_position():
    # positions count from the start of the whole literal, leading blanks too
    for parse, literal, position, message in (
        (parse_pattern_set, "123;14x2", 6, "unexpected character 'x'"),
        (parse_permutation, " 3x", 2, "unexpected character 'x'"),
        (parse_pattern_set, "123; 1x", 6, "unexpected character 'x'"),
        # a comma literal is tokenized once, so the bad token itself is named
        (parse_pattern_set, "1,2,x", 4, "not an integer: 'x'"),
    ):
        with pytest.raises(PatternSyntaxError) as err:
            parse(literal)
        assert err.value.position == position
        assert message in str(err.value)
    with pytest.raises(PatternSyntaxError):
        parse_permutation("")
    with pytest.raises(PatternSyntaxError):
        parse_pattern_set("123;122")
