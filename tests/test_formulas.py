from math import comb

import pytest

from permpat.formulas import (
    BinomialPoly,
    Catalan,
    ExplicitFamily,
    FibonacciForm,
    PowerLinear,
    RationalGF,
    TribonacciForm,
    ZeroBeyond,
    binomial,
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
    assert binomial(3, 4) == 0
    assert binomial(-1, 2) == 0
    assert binomial(5, 2) == 10


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
    one_plus = PowerLinear(1, -1, -2, (), 1)  # 1+(n-1)2^(n-2)
    assert [evaluate(one_plus, n) for n in (1, 2, 3, 4)] == [1, 2, 5, 13]
    three_pow = PowerLinear(0, 3, -1, ((-1, 1, 2),), -1)  # 3*2^(n-1)-C(n+1,2)-1
    assert [evaluate(three_pow, n) for n in (1, 2, 3, 4)] == [1, 2, 5, 13]
    bjs = PowerLinear(0, 1, 1, ((-1, 1, 3), (-2, 0, 1)), -1)  # 2^(n+1)-C(n+1,3)-2n-1
    assert [evaluate(bjs, n) for n in (1, 2, 3, 4)] == [1, 2, 5, 13]
    pow2 = PowerLinear(0, 1, -1, (), 0)
    assert [evaluate(pow2, n) for n in (1, 2, 5)] == [1, 2, 16]
    with pytest.raises(ValueError, match="not integral"):
        PowerLinear(1, 0, -3).eval(1)


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
    assert "2^(n-1)" in render(PowerLinear(0, 1, -1, (), 0))
    assert "1-4x+5x^2-3x^3" in render(RationalGF((1, -3, 3, -1), (1, -4, 5, -3)))
    assert render(RationalGF((1, 0, -1), (1, 0, -2))) == "[x^n] 1-x^2/(1-2x^2)"
