import itertools
import random
import time
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permpat.enumeration import (
    _TABLE_CACHE,
    count_avoiders,
    count_table,
    count_tables,
    enumerate_avoiders,
)
from permpat.lifting import superpatterns
from permpat.perms import all_permutations, avoids_all, contains, find_occurrence, parse_pattern_set
from permpat.symmetry import orbit

from conftest import PATTERN_SETS, naive_avoiders

S3 = list(all_permutations(3))
S4 = list(all_permutations(4))


def test_enumerate_examples():
    assert enumerate_avoiders(3, S3) == []
    assert len(enumerate_avoiders(5, [(1, 3, 2)])) == 42
    four = enumerate_avoiders(4, parse_pattern_set("123;132;213;3421"))
    assert set(four) == {(3, 4, 1, 2), (4, 2, 3, 1), (4, 3, 1, 2), (4, 3, 2, 1)}


def test_enumerate_lexicographic_and_deterministic():
    t = parse_pattern_set("132;3214")
    out = enumerate_avoiders(6, t)
    assert out == sorted(out)
    assert out == enumerate_avoiders(6, t)


def test_count_examples():
    assert count_avoiders(6, parse_pattern_set("123;321")) == 0
    assert count_avoiders(4, parse_pattern_set("123;132;3412")) == 7
    assert count_avoiders(5, parse_pattern_set("132;213;2341")) == 12


def test_count_table_examples():
    ct = count_table(parse_pattern_set("123;132;3241"), 5)
    assert ct.counts[4] == 7 and ct.counts[5] == 12
    assert count_table(parse_pattern_set("123;312;1432"), 3).counts[3] == 4
    assert count_table(frozenset(), 4).counts == (1, 1, 2, 6, 24)


def test_count_table_bounds():
    for t in (parse_pattern_set("132"), parse_pattern_set("123;3412"), frozenset()):
        ct = count_table(t, 6)
        assert ct.counts[0] == 1
        assert all(ct.counts[n] <= factorial(n) for n in range(7))


def test_degenerate_patterns():
    assert enumerate_avoiders(0, [()]) == []
    assert count_table([()], 3).counts == (0, 0, 0, 0)
    assert enumerate_avoiders(0, [(1,)]) == [()]
    assert count_table([(1,)], 3).counts == (1, 0, 0, 0)
    assert count_table([(1, 2)], 5).counts == (1, 1, 1, 1, 1, 1)
    assert count_table([(1, 2), (2, 1)], 4).counts == (1, 1, 0, 0, 0)


def test_oracle_soundness_and_completeness():
    for r in range(1, 7):
        for t in itertools.combinations(S3, r):
            for n in range(6):
                got = enumerate_avoiders(n, t)
                assert all(avoids_all(p, t) for p in got)
                assert got == naive_avoiders(n, t)


def test_random_mixed_sets_match_naive():
    rng = random.Random(41)
    for _ in range(15):
        t = rng.sample(S3, rng.randint(0, 2)) + rng.sample(S4, rng.randint(1, 2))
        for n in range(6):
            assert enumerate_avoiders(n, t) == naive_avoiders(n, t)


@settings(deadline=None, max_examples=60)
@given(PATTERN_SETS)
def test_random_sets_match_naive(t):
    table = count_table(t, 6).counts
    for n in range(7):
        naive = naive_avoiders(n, t)
        assert enumerate_avoiders(n, t) == naive
        assert table[n] == len(naive)


@settings(deadline=None, max_examples=10)
@given(st.lists(PATTERN_SETS, min_size=1, max_size=4))
def test_count_tables_pool_matches_serial_from_cold_cache(sets):
    _TABLE_CACHE.clear()
    pooled = count_tables(sets, 6, jobs=2)
    _TABLE_CACHE.clear()
    serial = count_tables(sets, 6, jobs=1)
    assert [ct.counts for ct in pooled] == [ct.counts for ct in serial]


def test_malformed_patterns_rejected():
    # the oracle reads pattern entries as ranks, so a non-permutation must raise
    with pytest.raises(ValueError):
        count_table({(2, 4, 3), (1, 2, 3)}, 6)
    with pytest.raises(ValueError):
        count_table({(1, 3, 3, 5, 4)}, 6)
    with pytest.raises(ValueError):
        contains((1, 2, 3), (5, 5))
    with pytest.raises(ValueError):
        enumerate_avoiders(4, [(2, 4, 3)])
    with pytest.raises(ValueError):
        find_occurrence((1, 2, 3), (5, 5))
    with pytest.raises(ValueError):
        avoids_all((1, 2, 3), [(5, 5)])
    with pytest.raises(ValueError):
        superpatterns((5, 5), 3)
    # a repeated letter in the permutation searched is rejected too
    with pytest.raises(ValueError):
        contains((1, 1), (1, 2))
    with pytest.raises(ValueError):
        contains((1, 2, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        find_occurrence((2, 2, 1), (1, 2))
    with pytest.raises(ValueError):
        avoids_all((1, 1), [(1, 2)])


def test_table_matches_direct_enumeration_per_n():
    # the one-pass table reads every length off the depths of one search at
    # n_max; check each length against the naive oracle
    for lit in ("132", "123;3412", "132;213;2341", "2143;1234"):
        t = parse_pattern_set(lit)
        ct = count_table(t, 7)
        for n in range(8):
            assert ct.counts[n] == len(naive_avoiders(n, t))


def test_long_patterns():
    # a pattern of length k places k-3 slots by position before its free
    # slot: length 5 nests two scans, length 6 three
    for n in (5, 6):
        assert enumerate_avoiders(n, [(1, 2, 3, 4, 5)]) == naive_avoiders(n, [(1, 2, 3, 4, 5)])
        assert enumerate_avoiders(n, [(2, 1, 4, 3, 5)]) == naive_avoiders(n, [(2, 1, 4, 3, 5)])
    assert enumerate_avoiders(7, [(2, 5, 1, 6, 3, 4)]) == naive_avoiders(7, [(2, 5, 1, 6, 3, 4)])


def test_double_lift_avoiders_at_threshold():
    # the two-step lift of a single length-3 pattern consists of length-5
    # patterns and has the same avoiders from n = 6 on
    from permpat.lifting import lift_power

    lifted = lift_power([(1, 2, 3)], 2)
    assert all(len(p) == 5 for p in lifted)
    assert enumerate_avoiders(6, lifted) == enumerate_avoiders(6, [(1, 2, 3)])


def test_count_monotone_in_pattern_set():
    t1 = parse_pattern_set("132")
    t2 = parse_pattern_set("132;2143")
    t3 = parse_pattern_set("132;2143;321")
    for n in range(8):
        a, b, c = (count_avoiders(n, t) for t in (t1, t2, t3))
        assert a >= b >= c


def test_counts_equal_across_orbit():
    o = orbit(parse_pattern_set("123;132;3214"))
    tables = {m: count_table(m, 7).counts for m in o.members}
    assert len(set(tables.values())) == 1


def test_count_tables_batch_parallel():
    sets = [parse_pattern_set(lit) for lit in ("132", "123;321", "132;213;2341", "132")]
    serial = count_tables(sets, 6)
    parallel = count_tables(sets, 6, jobs=2)
    assert [ct.counts for ct in serial] == [ct.counts for ct in parallel]
    assert serial[0].counts == serial[3].counts


def test_insert_max_preserves_containment():
    patterns = S3 + S4
    for p in all_permutations(5):
        present = [tau for tau in patterns if contains(p, tau)]
        for j in range(6):
            # the new maximum 6 inserted before position j
            q = p[:j] + (6,) + p[j:]
            for tau in present:
                assert contains(q, tau)


def test_negative_n_rejected():
    with pytest.raises(ValueError):
        enumerate_avoiders(-1, [(1, 2)])
    with pytest.raises(ValueError):
        count_table([(1, 2)], -1)
    for jobs in (1, 2):
        with pytest.raises(ValueError):
            count_tables([{(1, 2)}], -1, jobs=jobs)


def test_dead_worker_raises(dying_worker):
    # a worker that dies must end the call with an error, not hang it, and
    # the memo must not gain a partial answer
    sets = [{(1, 3, 2)}, {(1, 2, 3)}, {(2, 1, 3)}]
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="worker process died"):
        count_tables(sets, 6, jobs=2)
    assert time.monotonic() - started < 5
    assert dying_worker == {}
