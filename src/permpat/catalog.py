"""The classification tables as machine-checkable data, plus the verifier.

Four universes are covered: a single length-3 pattern together with one
length-4 pattern (144 sets), two length-3 patterns plus one length-4 (360),
three plus one (480), and at least four plus one (528).  A table row claims a
set by any of three clauses, as the printed rows do: the set lies in the
orbits of listed representatives (``members``); its length-3 patterns T form
one of the row's T-classes and its length-4 pattern contains a member of T, so
forbidding that pattern changes nothing (``reduces``, the containment
reduction, from computed containment facts); or it meets a stated condition
(``matches``: Erdos-Szekeres, the set meets both {123, 1234} and {321, 4321},
on three zero rows, and |T| = 5 failing it on 4.one).  A row's ``claims``
amend its formula and threshold for some sets: the zero sets dead only from
n = 7, 4.one's singleton classes, and each set whose avoiders a row lists
verbatim, whose claim is an ``ExplicitFamily`` from ``EXPLICIT_FAMILIES`` (one
point of a skeleton inflated into a monotone run per member; the verifier
checks its size and set in one collecting walk).  The findings are data too:
each of ``_FINDINGS`` has evidence items (key, probe, *args), which
``_build_findings`` evaluates on every run (a length None is the n_max), and
a predicate over that evidence, which decides the finding's status.

Known misprints in the printed tables are pre-registered findings: the row
encodings below already carry the corrected members, and ``verify`` recomputes
the evidence for every correction so the report documents exactly how the
printed version fails.  Known corrections:

* the C(n,2)+1 block lists {213,312,1324}, whose extra pattern contains 213,
  so the set really counts 2^(n-1); the class of {132,213,3421} (oracle count
  C(n,2)+1) is missing from the block but is needed for its claimed size 118;
* the count-n row of the three-plus-one table merges two distinct T classes;
  it is encoded as "T any count-n triple, extra pattern containing a member"
  plus the class of {123,132,213,3412};
* the count-4 row of that table prints {123,231,312,...} representatives whose
  extra pattern contains 231 (those sets count n); the proven representatives
  are {123,132,213,3421} and {123,132,213,4231};
* several explicit avoider lists print an ascending witness where only the
  descending one avoids (and vice versa), the two 4-element lists are swapped
  between their extra patterns, and the two five-triple singleton rows have
  their conclusion sets swapped;
* the last table's zero and count-2 rows claim 348 and 100 sets; the stated
  conditions reach 250 and 198.  The claimed total 504 of 528 is met exactly
  when the zero row keeps its strict-subset premise, which leaves the 24 sets
  containing all six length-3 patterns uncovered; they are surfaced with
  oracle counts instead of being silently absorbed.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from typing import Callable, Iterable, NamedTuple, Optional

from .enumeration import CountTable, avoiders_by_length, count_table, count_tables, enumerate_avoiders
from .formulas import (
    BinomialPoly,
    Catalan,
    CountFormula,
    ExplicitFamily,
    FibonacciForm,
    PowerLinear,
    RationalGF,
    TribonacciForm,
    ZeroBeyond,
    evaluate,
    render,
)
from .perms import (
    PatternSet,
    Perm,
    all_permutations,
    check_int,
    contains,
    format_pattern_set,
    format_permutation,
    parse_pattern_set,
    pattern_set,
)
from .symmetry import apply_set, orbit, partition_into_classes

P123, P213, P321 = (1, 2, 3), (2, 1, 3), (3, 2, 1)
P1234 = (1, 2, 3, 4)
P4321 = (4, 3, 2, 1)

S3 = list(all_permutations(3))
S4 = list(all_permutations(4))
_S3, _S4 = frozenset(S3), frozenset(S4)


class CatalogIntegrityError(RuntimeError):
    """A pattern set satisfied two contradictory table rows."""


class _Parts(NamedTuple):
    """A set's length-3 patterns, its one length-4 pattern (None unless it
    has exactly one) and its table (None outside the universes); the rows
    read these of each set many times, so ``_parts`` places each set once."""

    threes: frozenset[Perm]
    tau: Optional[Perm]
    table: Optional[int]


def _parts(s: PatternSet) -> _Parts:
    threes, fours = [], []
    for p in s:
        if len(p) == 3:
            threes.append(p)
        elif len(p) == 4:
            fours.append(p)
    threes, tau = frozenset(threes), fours[0] if len(fours) == 1 else None
    if tau in _S4 and threes and threes <= _S3 and len(threes) + 1 == len(s):
        if {type(v) for p in s for v in p} == {int}:
            return _Parts(threes, tau, min(len(threes), 4))
    pattern_set(s)
    return _Parts(threes, tau, None)


# the length-3 patterns that each length-4 pattern contains: the 144 facts of
# S4 x S3, computed once
_CONTAINED = {tau: frozenset(a for a in S3 if contains(tau, a)) for tau in S4}


def _orbit_union(*literals: str) -> frozenset[PatternSet]:
    members: set[PatternSet] = set()
    for lit in literals:
        members |= orbit(parse_pattern_set(lit)).members
    return frozenset(members)


# Wilf classes of the small subsets of S_3, each the union of the orbit images of one
# seed per orbit (10 pairs count 2^(n-1), 4 pairs C(n,2)+1, 1 pair eventually zero;
# 14 triples count n, 2 triples are the Fibonacci class, 4 contain 123 & 321).
_POW2_PAIRS = _orbit_union("123;132", "132;213", "132;231")
_NN2_PAIRS = _orbit_union("123;231")
_FIB_TRIPLES = _orbit_union("123;132;213")
_N_TRIPLES = frozenset(
    frozenset(c)
    for c in itertools.combinations(S3, 3)
    if not {P123, P321} <= frozenset(c)
) - _FIB_TRIPLES

assert len(_POW2_PAIRS) == 10 and len(_NN2_PAIRS) == 4
assert len(_FIB_TRIPLES) == 2 and len(_N_TRIPLES) == 14


# --- explicit avoider families ----------------------------------------------

# members as formulas.inflate reads them: ((4, 2, 1, 3), 0, True) is n, ..., 4, 2, 1, 3
_DESC, _ASC = ((1,), 0, True), ((1,), 0, False)  # n..1 and 1..n
EXPLICIT_FAMILIES: dict[PatternSet, ExplicitFamily] = {
    parse_pattern_set(lit): ExplicitFamily(lit, members)
    for lit, members in {
        "123;132;231;3214": (((4, 2, 1, 3), 0, True), ((3, 1, 2), 0, True), _DESC),
        "123;132;231;4312": (((1, 2), 0, True), ((3, 1, 2), 1, True), _DESC),
        "123;132;231;4213": (((1, 2), 0, True), ((3, 1, 2), 0, True), _DESC),
        "123;231;312;1432": (((1, 3, 2), 0, True), ((1, 2), 0, True), _DESC),
        "123;231;312;2143": (((1, 2), 1, True), ((1, 2), 0, True), _DESC),
        "132;213;231;1234": (((4, 1, 2, 3), 0, True), ((3, 1, 2), 0, True), _DESC),
        "132;213;231;4123": (_DESC, ((3, 1, 2), 0, True), _ASC),
        "132;213;231;4312": (_DESC, ((2, 1), 1, False), _ASC),
        "132;213;231;4321": (_ASC, ((2, 1), 1, False), ((3, 2, 1), 2, False)),
        "123;132;213;3421": (_DESC, ((3, 1, 2), 0, True), ((4, 2, 3, 1), 0, True), ((5, 3, 4, 1, 2), 0, True)),
        "123;132;213;4231": (_DESC, ((2, 3, 1), 2, True), ((3, 1, 2), 0, True), ((4, 5, 3, 1, 2), 2, True)),
        "123;132;213;231;4312": (_DESC,),
        "123;132;231;312;3214": (_DESC,),
        "123;213;231;312;1432": (_DESC,),
        "132;213;231;312;1234": (_DESC,),
    }.items()
}


# --- table rows --------------------------------------------------------------

class TableRow(NamedTuple):
    table: int
    row_id: str
    representative: str
    claimed_size: int
    citation: str
    formula: CountFormula
    valid_from: int
    matches: Optional[Callable[[_Parts], bool]] = None
    members: frozenset[PatternSet] = frozenset()
    reduces: frozenset[PatternSet] = frozenset()
    # the row's sets whose (formula, threshold) differ from the row's; never mutated
    claims: dict[PatternSet, tuple[CountFormula, int]] = {}


def _zero_matches(x: _Parts) -> bool:
    # Erdos-Szekeres: the set meets both {123, 1234} and {321, 4321}
    return (P123 in x.threes or x.tau == P1234) and (P321 in x.threes or x.tau == P4321)


_NN2_ORBITS = _orbit_union(
    "123;132;3412", "123;132;4231", "123;213;3412", "123;213;4231",
    "132;213;3412", "132;231;1234", "132;231;2134", "132;231;3124",
    "132;231;3214", "213;312;2341", "231;312;1324", "132;213;4321",
    "132;213;3421",  # corrected member, see module docstring
)
_2N2_ORBITS = _orbit_union(
    "123;312;1432", "123;312;2143", "123;312;2431",
    "123;312;3214", "123;312;3241", "123;312;3421",
)
_THREE_ORBITS = _orbit_union(
    "123;132;231;3214", "123;132;231;4312", "123;132;231;4213",
    "123;213;231;1432", "123;213;231;4132", "123;213;231;4312",
    "123;231;312;1432", "123;231;312;2143", "123;231;312;3214",
    "132;213;231;1234", "132;213;231;4123", "132;213;231;4321",
    "132;213;231;4312",
)
_FOUR_ORBITS = _orbit_union("123;132;213;3421", "123;132;213;4231")
_SINGLETON_ORBITS = _orbit_union(
    "123;132;213;231;4312", "123;132;231;312;3214",
    "123;213;231;312;1432", "132;213;231;312;1234",
)
# the sets {123,a,4321} and {321,a,1234} keep one avoider at n = 6, none at 7
_ZERO7_PAIR_ORBITS = _orbit_union("123;132;4321", "123;231;4321")
# the stated zero threshold n >= 6 for three-triple sets fails for exactly
# these four: each keeps one avoider at n = 6 and dies at n = 7
_ZERO7_TRIPLE_ORBITS = _orbit_union("123;132;213;4321", "123;231;312;4321")

assert len(_NN2_ORBITS) == 50 and len(_2N2_ORBITS) == 24
assert len(_THREE_ORBITS) == 46 and len(_FOUR_ORBITS) == 6
assert len(_SINGLETON_ORBITS) == 10
assert len(_ZERO7_PAIR_ORBITS) == 8 and len(_ZERO7_TRIPLE_ORBITS) == 4


TABLE_ROWS: tuple[TableRow, ...] = (
    # ---- one length-3 pattern plus one length-4 pattern (144 sets)
    TableRow(1, "1.catalan", "{a,t}: t contains a", 60,
             "Knuth; containment reduction", Catalan(), 1,
             reduces=frozenset(frozenset({a}) for a in S3)),
    TableRow(1, "1.fibonacci-even", "cls{123,1432} and 8 companion classes", 46,
             "West", FibonacciForm(2, -1, 0), 1,
             members=_orbit_union(
                 "123;1432", "123;2143", "123;2413", "132;1234", "132;2134",
                 "132;2314", "132;2341", "132;3241", "132;3412")),
    TableRow(1, "1.power-linear", "cls{132,3421}, cls{132,4231}", 12,
             "West; Guibert", PowerLinear(1, -1, -2, (), 1), 1,
             members=_orbit_union("132;3421", "132;4231")),
    TableRow(1, "1.pow2-minus-triangle", "cls{123,2431}", 8,
             "West", PowerLinear(0, 3, -1, ((-1, 1, 2),), -1), 1,
             members=_orbit_union("123;2431")),
    TableRow(1, "1.quartic-poly", "cls{123,3421}", 4,
             "West", BinomialPoly(((1, 0, 4), (2, 0, 3), (1, 0, 1)), 0), 1,
             members=_orbit_union("123;3421")),
    TableRow(1, "1.rational-gf", "cls{132,3214}", 4,
             "West", RationalGF((1, -3, 3, -1), (1, -4, 5, -3)), 1,
             members=_orbit_union("132;3214")),
    TableRow(1, "1.quartic-poly-b", "cls{132,4321}", 4,
             "West", BinomialPoly(((1, 0, 4), (1, 1, 4), (1, 0, 2)), 1), 1,
             members=_orbit_union("132;4321")),
    TableRow(1, "1.zero", "cls{123,4321}", 2,
             "Erdos-Szekeres", ZeroBeyond(7), 7,
             members=_orbit_union("123;4321")),
    TableRow(1, "1.pow2-minus-cubic", "cls{123,3412}", 2,
             "Billey-Jockusch-Stanley", PowerLinear(0, 1, 1, ((-1, 1, 3), (-2, 0, 1)), -1), 1,
             members=_orbit_union("123;3412")),
    TableRow(1, "1.quintic-poly", "cls{123,4231}", 2,
             "West", BinomialPoly(((1, 0, 5), (2, 0, 4), (1, 0, 3), (1, 0, 2)), 1), 1,
             members=_orbit_union("123;4231")),

    # ---- two length-3 patterns plus one length-4 pattern (360 sets)
    TableRow(2, "2.pow2", "pair in the 2^(n-1) class, t contains a member", 160,
             "Simion-Schmidt; containment reduction", PowerLinear(0, 1, -1, (), 0), 1,
             reduces=_POW2_PAIRS),
    TableRow(2, "2.nn2", "pair in the C(n,2)+1 class with t containing a member, "
                         "or one of 13 listed classes (one corrected)", 118,
             "Simion-Schmidt; direct recurrences", BinomialPoly(((1, 0, 2),), 1), 1,
             members=_NN2_ORBITS, reduces=_NN2_PAIRS),
    TableRow(2, "2.zero", "{123,321,t}; {123,a,4321}; {321,a,1234}", 32,
             "Erdos-Szekeres", ZeroBeyond(5), 5,
             matches=_zero_matches, claims=dict.fromkeys(_ZERO7_PAIR_ORBITS, (ZeroBeyond(7), 7))),
    TableRow(2, "2.linear-2n", "cls{123,312,t}, t in {1432,2143,2431,3214,3241,3421}", 24,
             "direct recurrences", BinomialPoly(((2, 0, 1),), -2), 2,
             members=_2N2_ORBITS),
    TableRow(2, "2.fibonacci", "cls{123,132,3241}, cls{132,213,2341}", 12,
             "direct recurrences", FibonacciForm(1, 2, -1), 1,
             members=_orbit_union("123;132;3241", "132;213;2341")),
    TableRow(2, "2.linear-3n", "cls{123,132,3421}, cls{123,213,3421}", 8,
             "direct recurrences", BinomialPoly(((3, 0, 1),), -5), 3,
             members=_orbit_union("123;132;3421", "123;213;3421")),
    TableRow(2, "2.tribonacci", "cls{123,132,3214}, cls{123,213,1432}, cls{132,213,1234}", 6,
             "three-term recurrence", TribonacciForm(), 1,
             members=_orbit_union("123;132;3214", "123;213;1432", "132;213;1234")),

    # ---- three length-3 patterns plus one length-4 pattern (480 sets)
    TableRow(3, "3.linear-n", "T a count-n triple with t containing a member, "
                              "or cls{123,132,213,3412}", 282,
             "Simion-Schmidt; direct recurrence", BinomialPoly(((1, 0, 1),)), 1,
             members=_orbit_union("123;132;213;3412"), reduces=_N_TRIPLES),
    TableRow(3, "3.zero", "123,321 in T; or 123 in T and t=4321; or 321 in T and t=1234", 108,
             "Erdos-Szekeres", ZeroBeyond(6), 6,
             matches=_zero_matches, claims=dict.fromkeys(_ZERO7_TRIPLE_ORBITS, (ZeroBeyond(7), 7))),
    TableRow(3, "3.three", "13 listed classes (10 orbits)", 46,
             "explicit avoider lists", BinomialPoly((), 3), 3,
             members=_THREE_ORBITS,
             claims={s: (f, 3) for s, f in EXPLICIT_FAMILIES.items() if s in _THREE_ORBITS}),
    TableRow(3, "3.fibonacci", "T in the Fibonacci class, t contains a member", 38,
             "Simion-Schmidt; containment reduction", FibonacciForm(1, 1, 0), 1,
             reduces=_FIB_TRIPLES),
    TableRow(3, "3.four", "cls{123,132,213,3421}, cls{123,132,213,4231} (corrected reps)", 6,
             "explicit avoider lists", BinomialPoly((), 4), 4,
             members=_FOUR_ORBITS,
             claims={s: (f, 4) for s, f in EXPLICIT_FAMILIES.items() if s in _FOUR_ORBITS}),

    # ---- at least four length-3 patterns plus one length-4 pattern (528 sets)
    TableRow(4, "4.zero", "strict subsets T with 123,321 in T; or 123 in T and t=4321; "
                          "or 321 in T and t=1234", 348,
             "Erdos-Szekeres", ZeroBeyond(6), 6,
             matches=lambda x: len(x.threes) < 6 and _zero_matches(x)),
    TableRow(4, "4.two", "|T|=4 without {123,321}, t contains a member", 100,
             "Simion-Schmidt; containment reduction", BinomialPoly((), 2), 2,
             reduces=frozenset(t for t in map(frozenset, itertools.combinations(S3, 4)) if not {P123, P321} <= t)),
    TableRow(4, "4.one", "|T|=5 with 123 (resp. 321) missing and t != 1234 (resp. 4321), "
                         "or one of 4 listed singleton classes", 56,
             "explicit avoider lists", BinomialPoly((), 1), 3,
             members=_SINGLETON_ORBITS, matches=lambda x: len(x.threes) == 5 and not _zero_matches(x),
             claims={s: (EXPLICIT_FAMILIES.get(s, BinomialPoly((), 1)), 4) for s in _SINGLETON_ORBITS}),
)
_ROWS = {tid: tuple(row for row in TABLE_ROWS if row.table == tid) for tid in (1, 2, 3, 4)}


class CatalogEntry(NamedTuple):
    claimed_class_size: int
    formula: CountFormula
    valid_from: int
    source_table: int
    citation: str
    row_id: str


def expand_universe(table_id: int) -> list[PatternSet]:
    """All pattern sets of a table's universe, in canonical order.

    A set's sorted pattern list is its length-3 patterns in lexicographic
    order, then its length-4 one, and combinations of the sorted S_3 come in
    lexicographic order, so this product order is already ``pattern_set_key``'s.
    """
    sizes = {1: (1,), 2: (2,), 3: (3,), 4: (4, 5, 6)}.get(check_int(table_id, "table id", 1))
    if sizes is None:
        raise ValueError(f"unknown table id {table_id}")
    return [
        frozenset((*threes, tau))
        for k in sizes
        for threes in itertools.combinations(S3, k)
        for tau in S4
    ]


def table_of(s: PatternSet) -> Optional[int]:
    """Which table universe a set belongs to, if any.  A member that is not a
    permutation raises ValueError: if the set has the universes' shape, its
    members are looked up in S_3 and S_4 and their entries must be ints (True
    == 1 and 2.0 == 2 pass the lookups); otherwise ``pattern_set`` checks it."""
    return _parts(s).table


def assign_entries(universe: Iterable[PatternSet]) -> dict[PatternSet, Optional[CatalogEntry]]:
    """Map each set to the entry of the one row it satisfies, or None, with the
    row's ``claims`` for the set if any; ``verify`` and ``classify`` both match
    sets to rows here.  Raises ValueError on a malformed set and
    CatalogIntegrityError on a set that satisfies two rows."""
    out: dict[PatternSet, Optional[CatalogEntry]] = {}
    for s in universe:
        x = _parts(s)
        # None outside the four universes, so no row is hit
        hits = [row for row in _ROWS.get(x.table, ()) if s in row.members
                or (x.threes in row.reduces and not _CONTAINED[x.tau].isdisjoint(x.threes))
                or (row.matches is not None and row.matches(x))]
        if len(hits) > 1:
            ids = ", ".join(r.row_id for r in hits)
            raise CatalogIntegrityError(f"{format_pattern_set(s)} matches contradictory rows: {ids}")
        if hits:
            row = hits[0]
            formula, valid_from = row.claims.get(s, (row.formula, row.valid_from))
            out[s] = CatalogEntry(row.claimed_size, formula, valid_from, row.table, row.citation, row.row_id)
        else:
            out[s] = None
    return out


def classify(t: Iterable[Perm], n_max: int) -> tuple[Optional[CatalogEntry], CountTable]:
    """Catalog entry (if the set is in a covered universe) plus oracle counts
    from a search of this very set; ValueError on a malformed member."""
    s = pattern_set(t)
    return assign_entries([s])[s], count_table(s, n_max)


# --- verification ------------------------------------------------------------

CALIBRATION = {
    "fibonacci_convention": "f(1)=f(2)=1",
    "tribonacci_seeds": "t(1)=1, t(2)=2, t(3)=4 (oracle counts at n=1..3)",
    "rows": {
        "1.fibonacci-even": {
            "index_map": "f(2n-1)",
            "printed_index": "f(2n-2)",
            "note": "printed index presumes f(0)=f(1)=1; calibrated against the oracle at n=2..5",
        },
        "2.fibonacci": {"index_map": "f(n+2)-1"},
        "3.fibonacci": {"index_map": "f(n+1)"},
        "2.tribonacci": {"index_map": "t(n)"},
    },
    "gf_anchor": "a3 = 5 = |S_3(132)| pins the coefficient indexing",
}


class PairCheck(NamedTuple):
    pattern_set: PatternSet
    row_id: Optional[str]
    valid_from: Optional[int]
    counts: tuple[int, ...]
    formula_values: Optional[tuple[Optional[int], ...]]  # n = 1..n_max, None below the set's threshold
    verdict: str  # match | mismatch | uncovered
    mismatch_ns: tuple[int, ...] = ()
    conjecture: Optional[str] = None

    @property
    def literal(self) -> str:
        return format_pattern_set(self.pattern_set)


def _table_audit(table_id: int, checks: list[PairCheck]) -> dict:
    """A table's audit, built once as the JSON object the report prints from
    its pair checks in universe order: one row audit per table row (its claimed
    and computed class size and its verdict tally), then its coverage."""
    tally = Counter((c.row_id, c.verdict) for c in checks)
    rows = _ROWS[table_id]
    uncovered = [c for c in checks if c.row_id is None]
    return {
        "id": table_id,
        "rows": [
            {"row_id": row.row_id, "representative": row.representative, "claimed_size": row.claimed_size,
             "computed_size": tally[row.row_id, "match"] + tally[row.row_id, "mismatch"],
             "formula": render(row.formula), "citation": row.citation,
             "verdicts": {"match": tally[row.row_id, "match"], "mismatch": tally[row.row_id, "mismatch"]}}
            for row in rows
        ],
        "coverage": {
            "universe": len(checks),
            "covered": len(checks) - len(uncovered),
            "claimed_total": sum(row.claimed_size for row in rows),
            "uncovered": [{"set": c.literal, "counts": list(c.counts), "conjecture": c.conjecture} for c in uncovered],
        },
    }


class VerificationReport(NamedTuple):
    n_max: int
    jobs: Optional[int]
    elapsed_seconds: float
    tables: list[dict]  # one table audit each, as the report prints it
    findings: list[dict]
    pairs: dict[PatternSet, PairCheck]  # every set's check, in canonical set order

    @property
    def unexpected_mismatches(self) -> list[PairCheck]:
        return [p for p in self.pairs.values() if p.verdict == "mismatch"]

    def table(self, table_id: int) -> dict:
        return next(t for t in self.tables if t["id"] == table_id)

    def to_json_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "jobs": self.jobs,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "tables": self.tables,
            "findings": self.findings,
            "calibration": CALIBRATION,
            "unexpected_mismatches": [p.literal for p in self.unexpected_mismatches],
        }

    def to_csv_rows(self) -> list[list]:
        rows: list[list] = [["table", "row_id", "set", "n", "oracle", "formula", "verdict"]]
        for p in self.pairs.values():
            tid, literal = table_of(p.pattern_set), p.literal
            for n in range(1, self.n_max + 1):
                if p.verdict == "uncovered":
                    tail = ["", "uncovered"]
                elif n < p.valid_from:
                    tail = ["", "below-threshold-skipped"]
                else:
                    tail = [p.formula_values[n - 1], "mismatch" if n in p.mismatch_ns else "match"]
                rows.append([tid, p.row_id or "", literal, n, p.counts[n], *tail])
        return rows


def _zero_conjecture(counts: tuple[int, ...]) -> Optional[str]:
    # label an uncovered pair whose counts are 0 from some n0 on, at three or more n
    n_max = len(counts) - 1
    for n0 in range(1, n_max - 1):
        if not any(counts[n0:]):
            return "conjecture: " + (f"for n>={n0}: " if n0 > 1 else "") + render(ZeroBeyond(n0))
    return None


def _check_pair(
    s: PatternSet, entry: Optional[CatalogEntry], counts: tuple[int, ...],
    formula_values: dict[tuple[CountFormula, int], tuple[Optional[int], ...]], n_max: int,
) -> PairCheck:
    if entry is None:
        return PairCheck(
            pattern_set=s, row_id=None, valid_from=None, counts=counts,
            formula_values=None, verdict="uncovered",
            conjecture=_zero_conjecture(counts),
        )
    # a listed family must also equal the oracle's avoider set, not just its
    # size; one collecting walk lists the avoiders of every n
    family = entry.formula if isinstance(entry.formula, ExplicitFamily) else None
    values, vf = formula_values[entry.formula, entry.valid_from], entry.valid_from
    avoiders = avoiders_by_length(n_max, s) if family else None
    mismatch_ns = tuple(
        n for n in range(vf, n_max + 1)
        if values[n - 1] != counts[n] or (family and family.build(n) != frozenset(avoiders[n]))
    )
    return PairCheck(
        pattern_set=s, row_id=entry.row_id, valid_from=vf,
        counts=counts, formula_values=values,
        verdict="mismatch" if mismatch_ns else "match", mismatch_ns=mismatch_ns,
    )


def verify(n_max: int = 9, jobs: Optional[int] = None) -> VerificationReport:
    """Compare every covered pair against the oracle and audit the tables.

    Every set gets its row from ``assign_entries``.  The four universes are
    partitioned once into reverse/inverse orbits (283 for the 1,512 sets) only
    to share counts: the oracle counts one representative per orbit, all of
    them in one walk, whose subtrees below depth 5 are spread over ``jobs``
    forked workers when ``jobs`` is above 1 (None or 1 for none; a ``jobs``
    that is not an int of at least 1 raises ValueError), and each member gets its
    representative's count table (avoider counts are invariant on an orbit;
    Simion-Schmidt).
    ``count_table`` and ``classify`` always search the set they are given.  The
    formula, threshold, class-size and explicit-family set checks run on every
    member.

    Around that walk the bookkeeping runs in this process: the universes come
    in canonical order with no sort, each set is placed in its table once
    and tried only against that table's rows, and a set's mismatches are
    the n from its threshold on where its count differs from its formula's
    value, or an explicit family's set from its avoiders.  The findings
    count the 24 sets {213, 321, tau} in one walk.
    """
    check_int(n_max, "n_max", 1)
    started = time.perf_counter()
    universes = {tid: expand_universe(tid) for tid in (1, 2, 3, 4)}
    members = [s for u in universes.values() for s in u]
    entries = assign_entries(members)
    orbits = partition_into_classes(members)
    tables = count_tables([o.representative for o in orbits], n_max, jobs)
    counts = {m: table.counts for o, table in zip(orbits, tables) for m in o.members}
    # one evaluation per distinct (formula, threshold), not per row: a row's sets may differ
    claims = {(e.formula, e.valid_from) for e in entries.values() if e is not None}
    values = {(f, vf): tuple(evaluate(f, n) if n >= vf else None for n in range(1, n_max + 1)) for f, vf in claims}
    # the universes hold increasing set sizes, so members are in canonical set order
    pairs = {s: _check_pair(s, entries[s], counts[s], values, n_max) for s in members}
    audits = {tid: _table_audit(tid, [pairs[s] for s in universe]) for tid, universe in universes.items()}
    findings = _build_findings(n_max, audits, pairs)
    return VerificationReport(
        n_max=n_max,
        jobs=jobs,
        elapsed_seconds=time.perf_counter() - started,
        tables=list(audits.values()),
        findings=findings,
        pairs=pairs,
    )


def _follows(counts: list[int], f: Callable[[int], int]) -> bool:
    # a count list, from n = 0, equals f(n) from n = 1 on
    return counts[1:] == [f(n) for n in range(1, len(counts))]


def _family(literal: str, n: int) -> list[str]:
    # an explicit family's members of length n, sorted as the avoider probe lists them
    family = next(f for f in EXPLICIT_FAMILIES.values() if f.name == literal)
    return sorted(map(format_permutation, family.build(n)))


# (id, kind, printed, resolution, evidence, holds); a resolution may name n_max as %(n_max)d
_NN2 = BinomialPoly(((1, 0, 2),), 1).eval  # C(n,2)+1, from n = 0
_FINDINGS: tuple[tuple[str, str, str, str, tuple[tuple, ...], Callable[[dict], bool]], ...] = (
    ("containment-wording", "definition-wording",
     "the defining sentence introduces 'avoids' with the clause that defines containment",
     "standard semantics implemented: containment = an order-isomorphic subsequence exists",
     (("S4_avoiders_of_132", "count", "132", 4),),
     lambda e: e["S4_avoiders_of_132"] == Catalan().eval(4)),
    ("reversal-image-misprint", "misprint",
     "one printed derivation states r({213,132,4321}) = {132,213,4231}",
     "direct reversal gives {231;312;1234}; both classes count C(n,2)+1 so the conclusion stands",
     (("recomputed_r_image", "literal", apply_set("r", parse_pattern_set("213;132;4321"))),
      ("counts_printed_image", "counts", "132;213;4231", 6),
      ("counts_recomputed_image", "counts", "1234;231;312", 6)),
     lambda e: e["recomputed_r_image"] == "231;312;1234"
     and _follows(e["counts_printed_image"], _NN2) and _follows(e["counts_recomputed_image"], _NN2)),
    ("nn2-lists-contained-tau", "row-correction",
     "{213,312,1324} listed under the C(n,2)+1 block",
     "1324 contains 213, so the set counts 2^(n-1) and belongs to the 2^(n-1) predicate row",
     (("counts", "counts", "1324;213;312", 6),
      ("expected_if_nn2", "values", _NN2, 0, 6),
      ("expected_pow2", "values", lambda n: 2 ** n // 2, 0, 6)),  # 2^(n-1), and 0 at n = 0
     lambda e: e["counts"][1:] == e["expected_pow2"][1:]),
    ("nn2-missing-class", "row-correction",
     "the C(n,2)+1 block claims 118 sets but its printed members reach only 114",
     "the class of {132,213,3421} (4 sets) counts C(n,2)+1 for n <= %(n_max)d and completes the block",
     (("counts", "counts", "132;213;3421", None),
      ("expected", "values", _NN2, 0, None),
      ("class_members", "literals", orbit(parse_pattern_set("132;213;3421")).members)),
     lambda e: e["counts"] == e["expected"] and len(e["class_members"]) == 4),
    ("nn2-duplicate-tau-item", "misprint",
     "the tau list printed for T={213,321} reads {1324,2314,1324} (a duplicate)",
     "every tau containing 213 or 321 gives C(n,2)+1 for that T; full list recomputed",
     (("taus_with_nn2_counts_n_le_6", "taus", "213;321", _NN2, 6),),
     lambda e: e["taus_with_nn2_counts_n_le_6"]
     == [format_permutation(t) for t in S4 if _CONTAINED[t] & {P213, P321}]),
    ("2n2-item-prints-3412", "misprint",
     "one C(n,2)+1 item names (213,312,3412)",
     "3412 contains 312, so that set counts 2^(n-1); the proven class is {213,312,2341}",
     (("counts_printed", "counts", "213;312;3412", 6), ("counts_proven", "counts", "213;312;2341", 6)),
     lambda e: _follows(e["counts_printed"], lambda n: 2 ** (n - 1)) and _follows(e["counts_proven"], _NN2)),
    ("pow2-duplicate-pair", "misprint",
     "the 2^(n-1) item lists the pair (132,231) twice",
     "the three 2^(n-1) pair classes are derived by orbit closure (10 pairs)",
     (("pairs", "literals", _POW2_PAIRS),),
     lambda e: len(set(e["pairs"])) == len(e["pairs"]) == 10),
    ("n-row-merged-conditions", "row-correction",
     "the count-n row names one T class with 'tau contains a member or tau=3412'",
     "encoded as every count-n triple with containing tau, plus cls{123,132,213,3412} "
     "(the 3412 case belongs to the Fibonacci triple, not the printed class)",
     (("counts_special", "counts", "123;132;213;3412", None),
      ("counts_special_mirror", "counts", "2143;231;312;321", None)),
     lambda e: _follows(e["counts_special"], lambda n: n) and e["counts_special_mirror"] == e["counts_special"]),
    ("three-row-unproven-class", "misprint",
     "the count-3 row lists {123,231,312,3214}, a class no explicit avoider list covers",
     "oracle confirms count 3 from n = 3",
     (("counts", "counts", "123;231;312;3214", None),),
     lambda e: _follows(e["counts"], lambda n: min(n, 3))),
    ("four-row-reps", "row-correction",
     "the count-4 row prints representatives {123,231,312,3421} and {123,231,312,4231}",
     "3421 contains 231 (count n by redundancy); the proven classes are "
     "{123,132,213,3421} and {123,132,213,4231}",
     (("counts_printed_rep", "counts", "123;231;312;3421", 6),
      ("counts_corrected_rep", "counts", "123;132;213;3421", 6)),
     lambda e: _follows(e["counts_printed_rep"], lambda n: n)
     and _follows(e["counts_corrected_rep"], lambda n: min(n, 4))),
    ("explicit3-witness-typos", "misprint",
     "several 3-element avoider lists print the ascending witness delta_n where T "
     "forbids it (items with 123 in T, and the 1234 item); one item prints "
     "(2,1,n,...,3) and the 4321 item prints the descending witness",
     "corrected witnesses encoded per family; set equality verified against the "
     "enumerator on the full validity range",
     (("example", "literal", parse_pattern_set("123;132;231;3214")),
      ("avoiders_n5", "avoiders", "123;132;231;3214", 5)),
     lambda e: e["avoiders_n5"] == _family(e["example"], 5)),
    ("explicit4-lists-swapped", "misprint",
     "the two 4-element avoider lists are printed under each other's extra pattern "
     "(and one member repeats 'n-1')",
     "lists swapped back and the garbled member read as (n-1,n,n-2,...,3,1,2); "
     "oracle confirms both families",
     (("avoiders_3421_n4", "avoiders", "123;132;213;3421", 4),
      ("avoiders_4231_n4", "avoiders", "123;132;213;4231", 4)),
     lambda e: e["avoiders_3421_n4"] == _family("123;132;213;3421", 4)
     and e["avoiders_4231_n4"] == _family("123;132;213;4231", 4)),
    ("singleton-conclusions-swapped", "misprint",
     "the five-triple singleton rows conclude {(n,...,1)} when 123 is missing and "
     "{(1,...,n)} when 321 is missing",
     "conclusions swapped: forbidding everything but 123 leaves the ascending "
     "permutation, and vice versa",
     (("avoiders_missing123_n5", "avoiders", "132;213;231;312;321;2143", 5),),
     lambda e: e["avoiders_missing123_n5"] == ["12345"]),
    ("three-zero-threshold-exception", "claim-correction",
     "the claimed zero threshold for three-triple sets is n >= 6 whenever 123 is in "
     "T and t = 4321 (or the mirror condition)",
     "false for the classes of {123,132,213,4321} and {123,231,312,4321}: one "
     "avoider survives at n = 6 and the count is zero only from n = 7; the four "
     "affected sets carry threshold 7",
     (("counts_fib_triple", "counts", "123;132;213;4321", 7),
      ("counts_other_triple", "counts", "123;231;312;4321", 7),
      ("survivor_n6_fib_triple", "joined", "123;132;213;4321", 6),
      ("survivor_n6_other_triple", "joined", "123;231;312;4321", 6)),
     lambda e: e["counts_fib_triple"][6:] == e["counts_other_triple"][6:] == [1, 0]),
    ("fibonacci-indexing", "threshold-calibration",
     "the pair-table Fibonacci row prints f(2n-2) with no initial conditions",
     "under f(1)=f(2)=1 the matching index is f(2n-1) (equivalently the printed "
     "index under f(0)=f(1)=1); calibrated against the oracle at n=2..5",
     (("counts_123_1432", "counts", "123;1432", 5), ("f_2n_minus_1", "values", FibonacciForm(2, -1).eval, 1, 5)),
     lambda e: e["counts_123_1432"][1:] == e["f_2n_minus_1"]),
    ("table4-claimed-sizes", "claimed-size-mismatch",
     "the last table claims row sizes 348, 100 and 56 (sum 504 of a 528-set universe)",
     "the stated zero-row and count-2-row conditions reach 250 and 198 sets; the "
     "claimed total 504 is met exactly under the strict-subset premise, leaving "
     "the 24 sets with all six length-3 patterns uncovered (surfaced with oracle "
     "counts)",
     (("claimed_vs_computed", "t4 sizes"), ("covered", "t4 covered"), ("uncovered", "t4 uncovered")),
     lambda e: [c for _, c in e["claimed_vs_computed"].values()] == [250, 198, 56]
     and e["covered"] == sum(c for c, _ in e["claimed_vs_computed"].values()) and e["uncovered"] == 24),
)


def _build_findings(n_max: int, audits: dict[int, dict], pairs: dict[PatternSet, PairCheck]) -> list[dict]:
    """Pre-registered findings with recomputed evidence, each "confirmed" or
    "refuted" by its predicate over it; then one open finding per mismatched
    check of ``pairs`` in canonical set order, and one per row of ``audits``
    whose size is off its claim (4.zero's and 4.two's are pre-registered)."""
    # each probe looks up count_table, count_tables and enumerate_avoiders
    # when it runs, so a tracer that rebinds those names sees its calls
    probes: dict[str, Callable] = {
        "counts": lambda lit, n: list(count_table(parse_pattern_set(lit), n).counts),  # for n = 0..n
        "count": lambda lit, n: count_table(parse_pattern_set(lit), n).counts[n],
        "avoiders": lambda lit, n: [format_permutation(p) for p in enumerate_avoiders(n, parse_pattern_set(lit))],
        "joined": lambda lit, n: ";".join(probes["avoiders"](lit, n)),
        "values": lambda f, lo, n: [f(k) for k in range(lo, n + 1)],
        "literal": format_pattern_set,
        "literals": lambda sets: sorted(map(format_pattern_set, sets)),
        # the taus of S4 whose set with the patterns of lit counts f(k) at k = 1..n
        "taus": lambda lit, f, n: [
            format_permutation(tau)
            for tau, t in zip(S4, count_tables([parse_pattern_set(lit) | {tau} for tau in S4], n))
            if list(t.counts[1:]) == probes["values"](f, 1, n)
        ],
        "t4 sizes": lambda: {r["row_id"]: (r["claimed_size"], r["computed_size"]) for r in audits[4]["rows"]},
        "t4 covered": lambda: audits[4]["coverage"]["covered"],
        "t4 uncovered": lambda: len(audits[4]["coverage"]["uncovered"]),
    }
    findings = []
    for fid, kind, printed, resolution, items, holds in _FINDINGS:
        evidence = {key: probes[probe](*(n_max if a is None else a for a in args)) for key, probe, *args in items}
        status = "confirmed" if holds(evidence) else "refuted"
        findings.append({"id": fid, "kind": kind, "printed": printed, "resolution": resolution % {"n_max": n_max},
                         "evidence": evidence, "status": status})
    return findings + [
        {
            "id": f"unexpected-mismatch:{c.literal}", "kind": "unexpected-mismatch",
            "printed": c.row_id, "resolution": "formula disagrees with the oracle; investigate",
            "evidence": {"set": c.literal, "mismatch_ns": list(c.mismatch_ns)}, "status": "open",
        }
        for c in pairs.values() if c.verdict == "mismatch"
    ] + [
        {"id": f"unexpected-size:{r['row_id']}", "kind": "unexpected-size", "printed": r["row_id"],
         "resolution": "row size differs from its claim; investigate",
         "evidence": {"claimed_size": r["claimed_size"], "computed_size": r["computed_size"]}, "status": "open"}
        for audit in audits.values() for r in audit["rows"]
        if r["computed_size"] != r["claimed_size"] and r["row_id"] not in ("4.zero", "4.two")
    ]
