"""Closed forms for avoider counts: exact integer evaluation and rendering.

Every variant evaluates exactly in integer arithmetic; no floats anywhere.
Fibonacci values use the f(1) = f(2) = 1 convention and every row that needs
a different indexing carries an explicit calibrated index map (see
``catalog.CALIBRATION``).  Tribonacci values are seeded t(1), t(2), t(3) =
1, 2, 4, matching the oracle counts of the row that uses them.  Both are
read by ``gf_coefficients`` as [x^m] x/(1-x-x^2) and [x^m] 1/(1-x-x^2-x^3).

Every polynomial claim, constants and linear forms included, is a
``BinomialPoly``: a sum of coefficient * C(n + offset, k) terms plus a
constant, so a constant has no term and ``2n-2`` is one k = 1 term.
``PowerLinear`` adds the same sum as its tail.

A row whose claim lists its avoiders verbatim is an ``ExplicitFamily``: each
member is a skeleton of a few points with one point inflated into a monotone
run (``inflate``), and the count is the size of that set at each n.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple, Sequence


def binomial(n: int, k: int) -> int:
    """C(n, k), zero whenever n < k or n < 0 (table polynomials rely on this)."""
    if n < 0 or k < 0 or n < k:
        return 0
    return comb(n, k)


def inflate(skeleton: tuple[int, ...], i: int, descending: bool, n: int) -> tuple[int, ...]:
    """Point i of ``skeleton`` blown up into a monotone run, for length n.

    The run holds v..v + n - len(skeleton) for v = skeleton[i], and the larger
    entries move up with it, so every entry is linear in n; n must be at least
    len(skeleton) - 1, where the run is empty.  ValueError is raised below
    that n, or unless the skeleton is a permutation of 1..k of ints and i an
    int in 0..k - 1.

    >>> inflate((3, 1, 2), 1, True, 6), inflate((2, 1), 1, False, 4)
    ((6, 4, 3, 2, 1, 5), (4, 1, 2, 3))
    """
    k = len(skeleton)
    is_permutation = {type(x) for x in skeleton} == {int} and sorted(skeleton) == [*range(1, k + 1)]
    if not is_permutation or type(i) is not int or not 0 <= i < k:
        raise ValueError(f"inflate needs a permutation of 1..k and a point 0..k-1 of it, got {skeleton}, {i}")
    v, shift = skeleton[i], n - k
    if shift < -1:
        raise ValueError(f"a skeleton of length {k} inflates for n >= {k - 1}, got {n}")
    run = range(v + shift, v - 1, -1) if descending else range(v, v + shift + 1)
    rest = [x + shift if x > v else x for x in skeleton]
    return (*rest[:i], *run, *rest[i + 1 :])


def gf_coefficients(num: Sequence[int], den: Sequence[int], n_max: int) -> list[int]:
    """Power-series coefficients a_0..a_n_max of num(x)/den(x).

    Uses the linear recurrence den * A = num; requires den[0] != 0 and exact
    integer divisibility at every step.

    >>> gf_coefficients((1,), (1, -1), 4)
    [1, 1, 1, 1, 1]
    >>> gf_coefficients((1, -3, 3, -1), (1, -4, 5, -3), 3)
    [1, 1, 2, 5]
    """
    num = list(num)
    den = list(den)
    if not den or den[0] == 0:
        raise ValueError("denominator must have a nonzero constant term")
    coeffs: list[int] = []
    for j in range(n_max + 1):
        s = num[j] if j < len(num) else 0
        for i in range(1, min(j, len(den) - 1) + 1):
            s -= den[i] * coeffs[j - i]
        q, r = divmod(s, den[0])
        if r:
            raise ValueError("series coefficients are not integral")
        coeffs.append(q)
    return coeffs


def _term(num: Sequence[int], den: Sequence[int], m: int) -> int:
    # [x^m] num(x)/den(x) for the Fibonacci and Tribonacci values, which start at m = 1
    if m < 1:
        raise ValueError(f"series index must be >= 1, got {m}")
    return gf_coefficients(num, den, m)[m]


# --- formula variants ------------------------------------------------------

def _by_class(cls):
    # NamedTuple equality is tuple equality, so Catalan() == TribonacciForm() == ();
    # a formula equals only formulas of its own class; it keeps the tuple's
    # hash, which runs no Python code when verify keys its values by formula
    cls.__eq__ = lambda self, other: type(self) is type(other) and tuple.__eq__(self, other)
    cls.__ne__ = lambda self, other: not self == other
    return cls


@_by_class
class Catalan(NamedTuple):
    def eval(self, n: int) -> int:
        return comb(2 * n, n) // (n + 1)

    def render(self) -> str:
        return "C(2n,n)/(n+1)"


@_by_class
class BinomialPoly(NamedTuple):
    """sum of coeff * C(n + offset, k) terms plus a constant."""

    terms: tuple[tuple[int, int, int], ...]  # (coeff, offset, k)
    constant: int = 0

    def eval(self, n: int) -> int:
        return sum(c * binomial(n + off, k) for c, off, k in self.terms) + self.constant

    def render(self) -> str:
        return _render_terms(self.terms, self.constant)


@_by_class
class PowerLinear(NamedTuple):
    """(lin_a*n + lin_b) * 2^(n+shift) plus a binomial correction."""

    lin_a: int
    lin_b: int
    shift: int
    terms: tuple[tuple[int, int, int], ...] = ()
    constant: int = 0

    def eval(self, n: int) -> int:
        coef = self.lin_a * n + self.lin_b
        s = n + self.shift
        if s >= 0:
            power = coef << s
        else:
            power, r = divmod(coef, 1 << -s)
            if r:
                raise ValueError(f"2^({n}{self.shift:+d}) term is not integral at n={n}")
        return power + BinomialPoly(self.terms, self.constant).eval(n)

    def render(self) -> str:
        if self.lin_a == 0:
            head = f"{self.lin_b}*" if self.lin_b != 1 else ""
        else:
            head = f"({self.lin_a}n{self.lin_b:+d})*" if self.lin_b else f"{self.lin_a}n*"
        exp = f"n{self.shift:+d}" if self.shift else "n"
        tail = _render_terms(self.terms, self.constant, leading=False)
        return f"{head}2^({exp}){tail}"


@_by_class
class FibonacciForm(NamedTuple):
    """f(stretch*n + offset) + addend under f(1) = f(2) = 1."""

    stretch: int
    offset: int
    addend: int = 0

    def eval(self, n: int) -> int:
        return _term((0, 1), (1, -1, -1), self.stretch * n + self.offset) + self.addend

    def render(self) -> str:
        idx = f"{self.stretch}n" if self.stretch != 1 else "n"
        if self.offset:
            idx += f"{self.offset:+d}"
        tail = f"{self.addend:+d}" if self.addend else ""
        return f"f({idx}){tail} [f(1)=f(2)=1]"


@_by_class
class TribonacciForm(NamedTuple):
    def eval(self, n: int) -> int:
        return _term((1,), (1, -1, -1, -1), n)

    def render(self) -> str:
        return "t(n) [t(1),t(2),t(3)=1,2,4]"


@_by_class
class RationalGF(NamedTuple):
    num: tuple[int, ...]
    den: tuple[int, ...]

    def eval(self, n: int) -> int:
        return gf_coefficients(self.num, self.den, n)[n]

    def render(self) -> str:
        return f"[x^n] {_render_poly(self.num)}/({_render_poly(self.den)})"


@_by_class
class ZeroBeyond(NamedTuple):
    from_n: int

    def eval(self, n: int) -> int:
        return 0

    def render(self) -> str:
        return f"0 (n>={self.from_n})"


@_by_class
class ExplicitFamily(NamedTuple):
    """A listed avoider family: ``build(n)`` inflates each (skeleton, i, descending) member."""

    name: str
    members: tuple[tuple[tuple[int, ...], int, bool], ...]

    def build(self, n: int) -> frozenset:
        return frozenset(inflate(skeleton, i, descending, n) for skeleton, i, descending in self.members)

    def eval(self, n: int) -> int:
        return len(self.build(n))

    def render(self) -> str:
        return f"|explicit avoider list [{self.name}]|"


CountFormula = (
    Catalan
    | BinomialPoly
    | PowerLinear
    | FibonacciForm
    | TribonacciForm
    | RationalGF
    | ZeroBeyond
    | ExplicitFamily
)


def evaluate(formula: CountFormula, n: int) -> int:
    """Exact value of a count formula at n >= 1; an explicit family raises
    ValueError below the least n its skeletons inflate to (``verify`` evaluates
    each claim from its own threshold on)."""
    return formula.eval(n)


def render(formula: CountFormula) -> str:
    return formula.render()


def _signed(c: int, base: str) -> str:
    # a signed term c*base; a unit coefficient shows only its sign
    return {1: "+", -1: "-"}.get(c, f"{c:+d}") + base


def _render_terms(terms, constant, leading=True) -> str:
    parts = []
    for c, off, k in terms:
        arg = "n" if not off else f"n{off:+d}"
        if k == 1:
            base = arg if not off else f"({arg})"
        else:
            base = f"C({arg},{k})"
        parts.append(_signed(c, base))
    if constant:
        parts.append(f"{constant:+d}")
    s = "".join(parts)
    if leading and s.startswith("+"):
        s = s[1:]
    return s


def _render_poly(coeffs) -> str:
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        parts.append(f"{c}" if i == 0 else _signed(c, "x" if i == 1 else f"x^{i}"))
    return "".join(parts) or "0"
