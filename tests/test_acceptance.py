"""Acceptance suite: one test per criterion, each printing a pass line.

Exact integer assertions throughout; the only tolerances are the two stated
wall-clock budgets (criterion 1: 5 s, criterion 4: 60 s with 4 workers).
"""

import itertools
import random
import time
from math import comb

import pytest

from permpat import catalog
from permpat.enumeration import (
    _TABLE_CACHE,
    count_avoiders,
    count_table,
    count_tables,
    enumerate_avoiders,
)
from permpat.formulas import gf_coefficients
from permpat.lifting import is_redundant, lift, pattern_words, superpatterns
from permpat.perms import all_permutations, contains, format_pattern_set, parse_pattern_set
from permpat.symmetry import orbit

from conftest import naive_avoiders

S3 = list(all_permutations(3))
S4 = list(all_permutations(4))


def _ok(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}", flush=True)


@pytest.fixture(scope="module")
def report9():
    return catalog.verify(9, jobs=4)


def test_criterion_1_catalan_baseline():
    _TABLE_CACHE.clear()  # honest cold-cache timing
    catalan = [comb(2 * n, n) // (n + 1) for n in range(11)]
    started = time.perf_counter()
    tables = count_tables([frozenset({tau}) for tau in S3], 10)
    elapsed = time.perf_counter() - started
    for tau, ct in zip(S3, tables):
        for n in range(1, 11):
            assert ct.counts[n] == catalan[n], (tau, n)
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    _ok(1, f"|S_n(t)| = Catalan(n) for all t in S_3, n = 1..10 ({elapsed:.2f} s)")


def test_criterion_2_lift_machinery():
    assert pattern_words((1, 3, 2), 4) == frozenset(
        {(1, 3, 2), (1, 4, 2), (1, 4, 3), (2, 4, 3)}
    )
    for tau in S3:
        assert len(superpatterns(tau, 4)) == 10
    for r in range(1, 7):
        for T in itertools.combinations(S3, r):
            image = lift(frozenset(T)).image
            for n in range(5, 9):
                assert frozenset(enumerate_avoiders(n, T)) == frozenset(
                    enumerate_avoiders(n, image)
                ), (T, n)
    _ok(2, "word sets exact, |superpattern sets| = 10, lift preserves avoiders "
           "for all 63 subsets at n = 5..8")


def test_criterion_3_redundancy_iff_containment(report9):
    for alpha in S3:
        base = count_table(frozenset({alpha}), 9).counts
        for tau in S4:
            redundant = is_redundant(alpha, tau)
            assert redundant == contains(tau, alpha)
            pair = count_table(frozenset({alpha, tau}), 9).counts
            if redundant:
                assert pair == base, (alpha, tau)
            else:
                assert any(pair[n] != base[n] for n in range(10)), (alpha, tau)
    _ok(3, "redundancy iff containment, with counting witnesses at n <= 9, "
           "for all 144 (alpha, tau) pairs")


def test_criterion_4_table_verification(report9):
    bad = [p.literal for p in report9.pairs.values() if p.verdict == "mismatch"]
    assert bad == [], bad

    def counts(lit):
        return count_table(parse_pattern_set(lit), 9).counts

    assert counts("123;132;3412")[4] == 7
    assert counts("123;132;3241")[4] == 7 and counts("123;132;3241")[5] == 12
    assert counts("132;213;2341")[5] == 12
    assert counts("123;132;3421")[4] == 3 * 4 - 5 == 7
    assert counts("123;312;1432")[5] == 2 * 5 - 2 == 8
    for tau in S4:
        assert count_avoiders(5, frozenset({(1, 2, 3), (3, 2, 1), tau})) == 0
    assert counts("123;132;231;4321")[6] == 0
    assert counts("123;132;4321")[7] == 0
    assert counts("123;4321")[7] == 0
    assert report9.elapsed_seconds < 60.0, f"verify took {report9.elapsed_seconds:.1f} s"
    _ok(4, f"verify(9) matches on every covered pair; spot anchors hold "
           f"({report9.elapsed_seconds:.1f} s with jobs=4)")


def test_criterion_5_class_size_audit(report9):
    for tid, total in ((1, 144), (2, 360), (3, 480)):
        audit = report9.table(tid)
        assert audit["coverage"]["covered"] == total == audit["coverage"]["universe"]
        assert sum(r["computed_size"] for r in audit["rows"]) == total

    t4 = report9.table(4)
    assert t4["coverage"]["universe"] == 528
    assert t4["coverage"]["claimed_total"] == 504
    assert t4["coverage"]["covered"] == 504
    expected_uncovered = {
        format_pattern_set(frozenset(S3) | {tau}) for tau in S4
    }
    assert {p["set"] for p in t4["coverage"]["uncovered"]} == expected_uncovered
    for pair in t4["coverage"]["uncovered"]:
        assert len(pair["counts"]) == 10  # oracle table n = 0..9
    _ok(5, "computed totals 144/360/480; table-4 coverage 504 of 528 with the "
           "24 uncovered pairs listed with oracle counts")


def test_criterion_6_explicit_families():
    nine = [
        "123;132;231;3214", "123;132;231;4312", "123;132;231;4213",
        "123;231;312;1432", "123;231;312;2143", "132;213;231;1234",
        "132;213;231;4123", "132;213;231;4312", "132;213;231;4321",
    ]
    two = ["123;132;213;3421", "123;132;213;4231"]
    singletons = ["123;132;213;231;4312", "123;132;231;312;3214", "132;213;231;312;1234"]
    for lit in nine + two + singletons:
        s = parse_pattern_set(lit)
        fam = catalog.EXPLICIT_FAMILIES[s]
        for n in range(5, 9):
            assert frozenset(enumerate_avoiders(n, s)) == fam.build(n), (lit, n)
    for lit in singletons:
        fam = catalog.EXPLICIT_FAMILIES[parse_pattern_set(lit)]
        for n in range(5, 9):
            assert fam.build(n) == frozenset({tuple(range(n, 0, -1))})
    _ok(6, "explicit avoider sets verified as set equality for n = 5..8 "
           "(nine 3-element, two 4-element, three singleton families)")


def test_criterion_7_symmetry_invariance():
    rng = random.Random(20260808)
    seen = set()
    while len(seen) < 50:
        t = frozenset(
            rng.sample(S3, rng.randint(1, 2)) + rng.sample(S4, rng.randint(1, 2))
        )
        seen.add(t)
    for t in sorted(seen, key=lambda s: sorted(s)):
        o = orbit(t)
        assert o.size in (1, 2, 4, 8)
        reference = [count_avoiders(n, o.representative) for n in range(8)]
        for member in o.members:
            assert [count_avoiders(n, member) for n in range(8)] == reference
    _ok(7, "counts agree across every orbit member for 50 sampled mixed sets, "
           "n <= 7; orbit sizes all in {1,2,4,8}")


def test_criterion_8_oracle_self_check():
    sets = [frozenset(c) for r in range(1, 7) for c in itertools.combinations(S3, r)]
    rng = random.Random(1729)
    while len(sets) < 63 + 20:
        extra = frozenset(
            rng.sample(S3, rng.randint(1, 2)) + rng.sample(S4, rng.randint(1, 2))
        )
        if extra not in sets:
            sets.append(extra)
    for t in sets:
        for n in range(7):
            assert enumerate_avoiders(n, t) == naive_avoiders(n, t), (t, n)
    _ok(8, "pruned enumeration equals the naive n!-filter for all 63 subsets "
           "plus 20 random mixed sets, n <= 6")


def test_criterion_9_fibonacci_calibration(report9):
    for row_id in ("1.fibonacci-even", "2.fibonacci", "3.fibonacci", "2.tribonacci"):
        audit = next(r for t in report9.tables for r in t["rows"] if r["row_id"] == row_id)
        assert audit["verdicts"]["mismatch"] == 0
        assert audit["computed_size"] == audit["claimed_size"]
    cal = report9.to_json_dict()["calibration"]
    assert cal["fibonacci_convention"] == "f(1)=f(2)=1"
    assert cal["rows"]["1.fibonacci-even"]["index_map"] == "f(2n-1)"
    assert cal["rows"]["2.fibonacci"]["index_map"] == "f(n+2)-1"
    assert cal["rows"]["3.fibonacci"]["index_map"] == "f(n+1)"
    assert "tribonacci_seeds" in cal
    _ok(9, "Fibonacci/Tribonacci rows match the oracle over their full ranges "
           "to n = 9; calibrated offsets emitted in the report")


def test_criterion_10_gf_row():
    coeffs = gf_coefficients((1, -3, 3, -1), (1, -4, 5, -3), 9)
    assert coeffs[3] == 5  # anchor: |S_3(132)|
    target = parse_pattern_set("132;3214")
    for n in range(1, 10):
        assert coeffs[n] == count_avoiders(n, target), n
    _ok(10, "(1-x)^3/(1-4x+5x^2-3x^3) coefficients equal the oracle counts "
            "for {132,3214}, n = 1..9, anchored at a_3 = 5")
