from fractions import Fraction
from math import comb
from typing import get_args

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permpat.catalog import TABLE_ROWS
from permpat.formulas import (
    BinomialPoly,
    Catalan,
    CountFormula,
    ExplicitFamily,
    FibonacciForm,
    RationalGF,
    TribonacciForm,
    ZeroBeyond,
    evaluate,
    gf_coefficients,
    inflate,
    render,
)


def test_eval_examples():
    assert evaluate(BinomialPoly(((3, 0, 1),), -5), 4) == 7
    assert evaluate(BinomialPoly(((1, 0, 2),), 1), 4) == 7
    assert evaluate(Catalan(), 5) == 42


def test_catalan_identity():
    for n in range(16):
        assert evaluate(Catalan(), n) == comb(2 * n, n) // (n + 1)


def test_binomial_zero_below_diagonal():
    # C(n + offset, k) is zero below the diagonal and raises for a negative
    # argument, where the printed polynomial is not zero
    assert BinomialPoly(((1, 0, 4),)).eval(3) == 0
    assert BinomialPoly(((1, 0, 2),)).eval(5) == 10
    with pytest.raises(ValueError):
        BinomialPoly(((1, -2, 2),)).eval(1)


def test_fibonacci():
    # f(m) = [x^m] x/(1-x-x^2), read as FibonacciForm(1, 0) at n = m
    fibonacci = FibonacciForm(1, 0).eval
    assert [fibonacci(m) for m in range(1, 8)] == [1, 1, 2, 3, 5, 8, 13]
    assert fibonacci(6) == 8 and fibonacci(7) == 13
    for m in range(3, 21):
        assert fibonacci(m) == fibonacci(m - 1) + fibonacci(m - 2)
    with pytest.raises(ValueError):
        fibonacci(0)


def test_tribonacci():
    # t(m) = [x^m] 1/(1-x-x^2-x^3), read as TribonacciForm() at n = m
    tribonacci = TribonacciForm().eval
    assert [tribonacci(m) for m in range(1, 8)] == [1, 2, 4, 7, 13, 24, 44]
    for m in range(4, 20):
        assert tribonacci(m) == tribonacci(m - 1) + tribonacci(m - 2) + tribonacci(m - 3)
    with pytest.raises(ValueError):
        tribonacci(0)


def test_power_linear_values():
    one_plus = BinomialPoly((), 1, lin_a=1, lin_b=-1, shift=-2)  # 1+(n-1)2^(n-2)
    assert [evaluate(one_plus, n) for n in (1, 2, 3, 4)] == [1, 2, 5, 13]
    three_pow = BinomialPoly(((-1, 1, 2),), -1, lin_b=3, shift=-1)  # 3*2^(n-1)-C(n+1,2)-1
    assert [evaluate(three_pow, n) for n in (1, 2, 3, 4)] == [1, 2, 5, 13]
    bjs = BinomialPoly(((-1, 1, 3), (-2, 0, 1)), -1, lin_b=1, shift=1)  # 2^(n+1)-C(n+1,3)-2n-1
    assert [evaluate(bjs, n) for n in (1, 2, 3, 4)] == [1, 2, 5, 13]
    pow2 = BinomialPoly((), lin_b=1, shift=-1)
    assert [evaluate(pow2, n) for n in (1, 2, 5)] == [1, 2, 16]
    with pytest.raises(ValueError, match="not integral"):
        BinomialPoly((), lin_a=1, shift=-3).eval(1)


def test_fibonacci_forms():
    table1 = FibonacciForm(2, -1, 0)
    assert [evaluate(table1, n) for n in (1, 2, 3, 4)] == [1, 2, 5, 13]
    minus_one = FibonacciForm(1, 2, -1)
    assert [evaluate(minus_one, n) for n in (1, 2, 3, 4, 5)] == [1, 2, 4, 7, 12]
    plain = FibonacciForm(1, 1, 0)
    assert [evaluate(plain, n) for n in (1, 2, 3, 4)] == [1, 2, 3, 5]


def test_gf_coefficients():
    assert gf_coefficients((1,), (1, -1), 6) == [1] * 7
    # long division by hand: 1, then 4*1-5*0+3*0-3 = 1, then 4*1-5*1+3 = 2, ...
    coeffs = gf_coefficients((1, -3, 3, -1), (1, -4, 5, -3), 9)
    assert coeffs[:4] == [1, 1, 2, 5]
    for n in range(4, 10):
        assert coeffs[n] == 4 * coeffs[n - 1] - 5 * coeffs[n - 2] + 3 * coeffs[n - 3]
    with pytest.raises(ValueError):
        gf_coefficients((1,), (0, 1), 3)
    with pytest.raises(ValueError, match="not integral"):
        gf_coefficients((1,), (2,), 1)


def test_rational_gf_eval():
    gf = RationalGF((1, -3, 3, -1), (1, -4, 5, -3))
    assert [evaluate(gf, n) for n in range(4)] == [1, 1, 2, 5]


def test_constant_and_zero():
    assert evaluate(BinomialPoly((), 3), 9) == 3
    assert evaluate(ZeroBeyond(6), 8) == 0
    assert evaluate(TribonacciForm(), 6) == 24


def test_explicit_family_carries_its_builder():
    # the family needs nothing but its own builder, so no catalog import
    fam = ExplicitFamily("123;132;213;231;4312", (((1,), 0, True),))
    assert evaluate(fam, 6) == 1
    assert fam.build(4) == frozenset({(4, 3, 2, 1)})
    assert fam == ExplicitFamily("123;132;213;231;4312", (((1,), 0, True),))
    assert render(fam) == "|explicit avoider list [123;132;213;231;4312]|"


def test_inflate_needs_the_skeleton_less_one_point():
    # at n = len(skeleton) - 1 the run is empty and the rest is a permutation
    # of 1..n; one n lower no permutation is left, so inflate raises
    for skeleton, i, descending in (((3, 1, 2), 1, True), ((4, 5, 3, 1, 2), 2, True), ((2, 1), 1, False)):
        n = len(skeleton) - 1
        assert sorted(inflate(skeleton, i, descending, n)) == list(range(1, n + 1))
        with pytest.raises(ValueError):
            inflate(skeleton, i, descending, n - 1)
    assert inflate((3, 1, 2), 1, True, 2) == (2, 1)


def test_inflate_rejects_a_skeleton_that_is_not_a_permutation_or_a_point_off_it():
    # a negative point read the skeleton from its end and a repeated entry
    # built a word with a repeat, both of length n; True passed as point 1
    for skeleton, i in (((3, 1, 2), -1), ((3, 1, 2), 3), ((3, 1, 2), True), ((3, 1, 2), 1.0),
                        ((3, 3, 2), 0), ((3, 1, 4), 0), ((True, 2), 0), ((2.0, 1), 1), ((), 0)):
        with pytest.raises(ValueError):
            inflate(skeleton, i, True, 5)
    assert inflate((3, 1, 2), 2, True, 5) == (5, 1, 4, 3, 2)


def test_render_strings():
    assert render(Catalan()) == "C(2n,n)/(n+1)"
    assert render(BinomialPoly(((2, 0, 1),), -2)) == "2n-2"
    assert render(BinomialPoly(((1, 0, 1),))) == "n"
    assert render(BinomialPoly(((1, 0, 1),), 3)) == "n+3"
    assert render(BinomialPoly(((-1, 0, 1),), 10)) == "-n+10"
    assert "C(n,2)" in render(BinomialPoly(((1, 0, 2),), 1))
    assert "f(2n-1)" in render(FibonacciForm(2, -1, 0))
    assert "2^(n-1)" in render(BinomialPoly((), lin_b=1, shift=-1))
    assert "1-4x+5x^2-3x^3" in render(RationalGF((1, -3, 3, -1), (1, -4, 5, -3)))
    assert render(RationalGF((1, 0, -1), (1, 0, -2))) == "[x^n] 1-x^2/(1-2x^2)"


def _rank(rows) -> int:
    # the rank over the rationals, by Gaussian elimination
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            ratio = rows[i][col] / rows[rank][col]
            rows[i] = [a - ratio * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _fits(values, d) -> bool:
    # the 30 windows values[m..m+d] have rank <= d: the values satisfy a
    # recurrence of order d there
    return _rank([values[m : m + d + 1] for m in range(30)]) <= d


def _meets_its_order(f) -> bool:
    # eval is defined on n1..n1+d+29 (a ValueError fails the caller) and the
    # values fit order d from n1 on
    d, n1 = f.order()
    return _fits([f.eval(n) for n in range(n1, n1 + d + 30)], d)


def test_every_class_states_its_order():
    orders = {}
    for row in TABLE_ROWS:
        for f, _ in [(row.formula, row.valid_from), *row.claims.values()]:
            orders.setdefault(type(f), set()).add(f.order())
    assert set(orders) == set(get_args(CountFormula))
    assert orders.pop(Catalan) == {None} and orders.pop(ExplicitFamily) == {None}
    for stated in orders.values():
        assert all(len(o) == 2 and all(type(x) is int and x >= 0 for x in o) for o in stated)


def test_every_claim_meets_its_class_recurrence_order():
    # each claim other than Catalan meets its stated (d, n1), and the least d
    # its values need from max(threshold, n1) on is exactly d; a family is
    # compared as its row's constant, so it is held to that formula's order
    claims = {}
    for row in TABLE_ROWS:
        for f, vf in [(row.formula, row.valid_from), *row.claims.values()]:
            if f != Catalan():
                claims[f, vf] = f if f.order() else row.formula
    assert len(claims) == 39 and sum(g != f for (f, _), g in claims.items()) == 15
    least, stated = {}, {}
    for (f, vf), g in claims.items():
        assert _meets_its_order(g)
        d, n1 = g.order()
        start = max(vf, n1)
        key = (render(f), vf)
        values = [f.eval(n) for n in range(start, start + 40)]
        least[key] = next(d for d in range(10) if _fits(values, d))
        stated[key] = d
    assert least == stated
    power_and_quintic = ("C(n,5)+2C(n,4)+C(n,3)+C(n,2)+1", "2^(n+1)-C(n+1,3)-2n-1",
                         "3*2^(n-1)-C(n+1,2)-1", "(1n-1)*2^(n-2)+1")
    assert [least[r, 1] for r in power_and_quintic] == [6, 5, 4, 3] and max(least.values()) == 6


_SMALL = st.integers(-3, 3)


@settings(deadline=None, max_examples=100)
@given(st.lists(st.tuples(_SMALL, _SMALL, st.integers(0, 5)), max_size=4), _SMALL, _SMALL, _SMALL, _SMALL)
def test_random_binomial_polys_meet_their_order(terms, constant, lin_a, lin_b, shift):
    assert _meets_its_order(BinomialPoly(tuple(terms), constant, lin_a, lin_b, shift))


@settings(deadline=None, max_examples=100)
@given(st.lists(_SMALL, max_size=5), st.lists(_SMALL, max_size=4))
def test_random_rational_gfs_meet_their_order(num, den_tail):
    assert _meets_its_order(RationalGF(tuple(num), (1, *den_tail)))


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 3), _SMALL, _SMALL)
def test_random_fibonacci_forms_meet_their_order(stretch, offset, addend):
    assert _meets_its_order(FibonacciForm(stretch, offset, addend))
