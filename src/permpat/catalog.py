"""The classification tables as machine-checkable data, plus the verifier.

Four universes are covered: a single length-3 pattern together with one
length-4 pattern (144 sets), two length-3 patterns plus one length-4 (360),
three plus one (480), and at least four plus one (528).  A table row claims a
set by any of three clauses, as the printed rows do: the set lies in the
orbits of listed representatives (``members``); its length-3 patterns T form
one of the row's T-classes and its length-4 pattern contains a member of T, so
forbidding that pattern changes nothing (``reduces``, the containment
reduction, from computed containment facts); or it meets a stated condition
(``matches``, on four rows).
Where a row lists a set's avoiders verbatim, that set's formula is an
``ExplicitFamily`` from ``EXPLICIT_FAMILIES``, a skeleton with one point
inflated into a monotone run per member; the verifier checks its size and its
set against one collecting walk.  The findings are one table, ``_FINDINGS``.

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
    fibonacci,
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
    """A set with its length-3 patterns, its one length-4 pattern (None
    unless it has exactly one) and its table (None outside the universes);
    the rows read these of each set many times, so ``_parts`` places each
    set once."""

    s: PatternSet
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
            return _Parts(s, threes, tau, min(len(threes), 4))
    pattern_set(s)
    return _Parts(s, threes, tau, None)


# the length-3 patterns that each length-4 pattern contains: the 144 facts of
# S4 x S3, computed once
_CONTAINED = {tau: frozenset(a for a in S3 if contains(tau, a)) for tau in S4}


def _orbit_union(*literals: str) -> frozenset[PatternSet]:
    members: set[PatternSet] = set()
    for lit in literals:
        members |= orbit(parse_pattern_set(lit)).members
    return frozenset(members)


# Wilf classes of the small subsets of S_3, by orbit closure from one seed per
# class (10 pairs count 2^(n-1), 4 pairs C(n,2)+1, 1 pair eventually zero;
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
    per_set: Optional[Callable[[_Parts], tuple[CountFormula, int]]] = None
    members: frozenset[PatternSet] = frozenset()
    reduces: frozenset[PatternSet] = frozenset()


def _zero_matches(x: _Parts) -> bool:
    t3, tau = x.threes, x.tau
    return ({P123, P321} <= t3) or (P123 in t3 and tau == P4321) or (P321 in t3 and tau == P1234)


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
# the stated zero threshold n >= 6 for three-triple sets fails for exactly
# these four: each keeps one avoider at n = 6 and dies at n = 7
_ZERO6_EXCEPTIONS = _orbit_union("123;132;213;4321", "123;231;312;4321")

assert len(_NN2_ORBITS) == 50 and len(_2N2_ORBITS) == 24
assert len(_THREE_ORBITS) == 46 and len(_FOUR_ORBITS) == 6
assert len(_SINGLETON_ORBITS) == 10


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
             matches=_zero_matches,
             per_set=lambda x: (ZeroBeyond(5), 5) if {P123, P321} <= x.threes else (ZeroBeyond(7), 7)),
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
             matches=_zero_matches,
             per_set=lambda x: (ZeroBeyond(7), 7) if x.s in _ZERO6_EXCEPTIONS else (ZeroBeyond(6), 6)),
    TableRow(3, "3.three", "13 listed classes (10 orbits)", 46,
             "explicit avoider lists", BinomialPoly((), 3), 3,
             members=_THREE_ORBITS),
    TableRow(3, "3.fibonacci", "T in the Fibonacci class, t contains a member", 38,
             "Simion-Schmidt; containment reduction", FibonacciForm(1, 1, 0), 1,
             reduces=_FIB_TRIPLES),
    TableRow(3, "3.four", "cls{123,132,213,3421}, cls{123,132,213,4231} (corrected reps)", 6,
             "explicit avoider lists", BinomialPoly((), 4), 4,
             members=_FOUR_ORBITS),

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
             members=_SINGLETON_ORBITS,
             matches=lambda x: len(x.threes) == 5
             and ((P123 not in x.threes and x.tau != P1234) or (P321 not in x.threes and x.tau != P4321)),
             per_set=lambda x: (BinomialPoly((), 1), 3 if len(x.threes) == 5 else 4)),
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
    sizes = {1: (1,), 2: (2,), 3: (3,), 4: (4, 5, 6)}.get(table_id)
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


def _entry_for(row: TableRow, x: _Parts) -> CatalogEntry:
    formula, valid_from = row.per_set(x) if row.per_set is not None else (row.formula, row.valid_from)
    return CatalogEntry(
        claimed_class_size=row.claimed_size,
        formula=EXPLICIT_FAMILIES.get(x.s, formula),
        valid_from=valid_from,
        source_table=row.table,
        citation=row.citation,
        row_id=row.row_id,
    )


def assign_entries(universe: Iterable[PatternSet]) -> dict[PatternSet, Optional[CatalogEntry]]:
    """Map each set to the entry of the one row it satisfies, or None; ``verify``
    and ``classify`` both match sets to rows here.  Raises ValueError on a
    malformed set and CatalogIntegrityError on a set that satisfies two rows."""
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
        out[s] = _entry_for(hits[0], x) if hits else None
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
    formula_values: Optional[tuple[int, ...]]  # aligned with n = 1..n_max
    verdict: str  # match | mismatch | uncovered
    mismatch_ns: tuple[int, ...] = ()
    conjecture: Optional[str] = None

    @property
    def literal(self) -> str:
        return format_pattern_set(self.pattern_set)


class RowAudit(NamedTuple):
    row_id: str
    representative: str
    claimed_size: int
    computed_size: int
    formula: str
    citation: str
    matches: int
    mismatches: int

    def to_json_dict(self) -> dict:
        return {
            "row_id": self.row_id,
            "representative": self.representative,
            "claimed_size": self.claimed_size,
            "computed_size": self.computed_size,
            "formula": self.formula,
            "citation": self.citation,
            "verdicts": {"match": self.matches, "mismatch": self.mismatches},
        }


class TableAudit:
    """A table's pair checks in universe order, and the audit derived from them
    (``rows``, ``uncovered``, ``universe``, ``covered``, ``claimed_total``)."""

    def __init__(self, table_id: int, checks: list[PairCheck]) -> None:
        self.table_id, self.checks = table_id, checks
        tally = Counter((c.row_id, c.verdict) for c in checks)
        rows = _ROWS.get(table_id, ())
        self.rows = [
            RowAudit(
                row_id=row.row_id, representative=row.representative, claimed_size=row.claimed_size,
                computed_size=tally[row.row_id, "match"] + tally[row.row_id, "mismatch"],
                formula=render(row.formula), citation=row.citation,
                matches=tally[row.row_id, "match"], mismatches=tally[row.row_id, "mismatch"],
            )
            for row in rows
        ]
        self.uncovered = [c for c in checks if c.row_id is None]
        self.universe = len(checks)
        self.covered = self.universe - len(self.uncovered)
        self.claimed_total = sum(row.claimed_size for row in rows)

    def to_json_dict(self) -> dict:
        return {
            "id": self.table_id,
            "rows": [r.to_json_dict() for r in self.rows],
            "coverage": {
                "universe": self.universe,
                "covered": self.covered,
                "claimed_total": self.claimed_total,
                "uncovered": [
                    {"set": p.literal, "counts": list(p.counts), "conjecture": p.conjecture} for p in self.uncovered
                ],
            },
        }


class VerificationReport(NamedTuple):
    n_max: int
    jobs: Optional[int]
    elapsed_seconds: float
    tables: list[TableAudit]
    findings: list[dict]
    pairs: dict[PatternSet, PairCheck]
    calibration: dict

    @property
    def unexpected_mismatches(self) -> list[PairCheck]:
        return [p for p in self.pairs.values() if p.verdict == "mismatch"]

    def table(self, table_id: int) -> TableAudit:
        return next(t for t in self.tables if t.table_id == table_id)

    def to_json_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "jobs": self.jobs,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "tables": [t.to_json_dict() for t in self.tables],
            "findings": self.findings,
            "calibration": self.calibration,
            "unexpected_mismatches": [p.literal for p in self.unexpected_mismatches],
        }

    def to_csv_rows(self) -> list[list]:
        rows: list[list] = [["table", "row_id", "set", "n", "oracle", "formula", "verdict"]]
        # tables hold increasing set sizes, so table order is canonical set order
        for t in self.tables:
            for p in t.checks:
                for n in range(1, self.n_max + 1):
                    if p.verdict == "uncovered":
                        tail = ["", "uncovered"]
                    elif n < p.valid_from:
                        tail = ["", "below-threshold-skipped"]
                    else:
                        tail = [p.formula_values[n - 1], "mismatch" if n in p.mismatch_ns else "match"]
                    rows.append([t.table_id, p.row_id or "", p.literal, n, p.counts[n], *tail])
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
    formula_values: dict[CountFormula, tuple[int, ...]], n_max: int,
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
    values, vf = formula_values[entry.formula], entry.valid_from
    mismatch_ns: tuple[int, ...] = ()
    # the common case, every count from the threshold on as claimed, is one
    # tuple comparison; the mismatched n are listed only when there are some
    if family or values[vf - 1 :] != counts[vf:]:
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
    and tried only against that table's rows, and a set's counts from its
    threshold on are compared with its formula's values in one step; the
    mismatched n are listed only when there are some, and an explicit
    family's set is always checked.  The findings count the 24 sets
    {213, 321, tau} in one walk.
    """
    check_int(n_max, "n_max", 1)
    started = time.perf_counter()
    universes = {tid: expand_universe(tid) for tid in (1, 2, 3, 4)}
    members = [s for u in universes.values() for s in u]
    entries = assign_entries(members)
    orbits = partition_into_classes(members)
    tables = count_tables([o.representative for o in orbits], n_max, jobs)
    counts = {m: table.counts for o, table in zip(orbits, tables) for m in o.members}
    # one evaluation per distinct formula, keyed by formula, not row: a row's sets may differ
    formulas = {e.formula for e in entries.values() if e is not None}
    values = {f: tuple(evaluate(f, n) for n in range(1, n_max + 1)) for f in formulas}
    audits = [
        TableAudit(tid, [_check_pair(s, entries[s], counts[s], values, n_max) for s in universe])
        for tid, universe in universes.items()
    ]
    findings = _build_findings(n_max, audits)
    return VerificationReport(
        n_max=n_max,
        jobs=jobs,
        elapsed_seconds=time.perf_counter() - started,
        tables=audits,
        findings=findings,
        pairs={c.pattern_set: c for a in audits for c in a.checks},
        calibration=CALIBRATION,
    )


def _counts_for(literal: str, n_max: int) -> list[int]:
    return list(count_table(parse_pattern_set(literal), n_max).counts)


def _avoiders_for(literal: str, n: int) -> list[str]:
    return [format_permutation(p) for p in enumerate_avoiders(n, parse_pattern_set(literal))]


def _nn2(n: int) -> int:
    return n * (n - 1) // 2 + 1


# The pre-registered findings as (id, kind, printed, resolution, evidence).
# The evidence is recomputed on every run from n_max and the audit of table 4;
# a resolution may name the run's n_max as %(n_max)d.
_FINDINGS: tuple[tuple[str, str, str, str, Callable[[int, TableAudit], dict]], ...] = (
    ("containment-wording", "definition-wording",
     "the defining sentence introduces 'avoids' with the clause that defines containment",
     "standard semantics implemented: containment = an order-isomorphic subsequence exists",
     lambda n_max, t4: {"S4_avoiders_of_132": _counts_for("132", 4)[4]}),
    ("reversal-image-misprint", "misprint",
     "one printed derivation states r({213,132,4321}) = {132,213,4231}",
     "direct reversal gives {231;312;1234}; both classes count C(n,2)+1 so the conclusion stands",
     lambda n_max, t4: {
         "recomputed_r_image": format_pattern_set(apply_set("r", parse_pattern_set("213;132;4321"))),
         "counts_printed_image": _counts_for("132;213;4231", 6),
         "counts_recomputed_image": _counts_for("1234;231;312", 6),
     }),
    ("nn2-lists-contained-tau", "row-correction",
     "{213,312,1324} listed under the C(n,2)+1 block",
     "1324 contains 213, so the set counts 2^(n-1) and belongs to the 2^(n-1) predicate row",
     lambda n_max, t4: {
         "counts": _counts_for("1324;213;312", 6),
         "expected_if_nn2": [_nn2(n) for n in range(7)],
         "expected_pow2": [0] + [2 ** (n - 1) for n in range(1, 7)],
     }),
    ("nn2-missing-class", "row-correction",
     "the C(n,2)+1 block claims 118 sets but its printed members reach only 114",
     "the class of {132,213,3421} (4 sets) counts C(n,2)+1 for n <= %(n_max)d and completes the block",
     lambda n_max, t4: {
         "counts": _counts_for("132;213;3421", n_max),
         "expected": [_nn2(n) for n in range(n_max + 1)],
         "class_members": sorted(
             format_pattern_set(m) for m in orbit(parse_pattern_set("132;213;3421")).members
         ),
     }),
    ("nn2-duplicate-tau-item", "misprint",
     "the tau list printed for T={213,321} reads {1324,2314,1324} (a duplicate)",
     "every tau containing 213 or 321 gives C(n,2)+1 for that T; full list recomputed",
     lambda n_max, t4: {"taus_with_nn2_counts_n_le_6": [
         format_permutation(tau)
         for tau, table in zip(S4, count_tables([frozenset({P213, P321, tau}) for tau in S4], 6))
         if table.counts[1:] == tuple(map(_nn2, range(1, 7)))
     ]}),
    ("2n2-item-prints-3412", "misprint",
     "one C(n,2)+1 item names (213,312,3412)",
     "3412 contains 312, so that set counts 2^(n-1); the proven class is {213,312,2341}",
     lambda n_max, t4: {
         "counts_printed": _counts_for("213;312;3412", 6),
         "counts_proven": _counts_for("213;312;2341", 6),
     }),
    ("pow2-duplicate-pair", "misprint",
     "the 2^(n-1) item lists the pair (132,231) twice",
     "the three 2^(n-1) pair classes are derived by orbit closure (10 pairs)",
     lambda n_max, t4: {"pairs": sorted(format_pattern_set(p) for p in _POW2_PAIRS)}),
    ("n-row-merged-conditions", "row-correction",
     "the count-n row names one T class with 'tau contains a member or tau=3412'",
     "encoded as every count-n triple with containing tau, plus cls{123,132,213,3412} "
     "(the 3412 case belongs to the Fibonacci triple, not the printed class)",
     lambda n_max, t4: {
         "counts_special": _counts_for("123;132;213;3412", n_max),
         "counts_special_mirror": _counts_for("2143;231;312;321", n_max),
     }),
    ("three-row-unproven-class", "misprint",
     "the count-3 row lists {123,231,312,3214}, a class no explicit avoider list covers",
     "oracle confirms count 3 from n = 3",
     lambda n_max, t4: {"counts": _counts_for("123;231;312;3214", n_max)}),
    ("four-row-reps", "row-correction",
     "the count-4 row prints representatives {123,231,312,3421} and {123,231,312,4231}",
     "3421 contains 231 (count n by redundancy); the proven classes are "
     "{123,132,213,3421} and {123,132,213,4231}",
     lambda n_max, t4: {
         "counts_printed_rep": _counts_for("123;231;312;3421", 6),
         "counts_corrected_rep": _counts_for("123;132;213;3421", 6),
     }),
    ("explicit3-witness-typos", "misprint",
     "several 3-element avoider lists print the ascending witness delta_n where T "
     "forbids it (items with 123 in T, and the 1234 item); one item prints "
     "(2,1,n,...,3) and the 4321 item prints the descending witness",
     "corrected witnesses encoded per family; set equality verified against the "
     "enumerator on the full validity range",
     lambda n_max, t4: {
         "example": "123;132;231;3214",
         "avoiders_n5": _avoiders_for("123;132;231;3214", 5),
     }),
    ("explicit4-lists-swapped", "misprint",
     "the two 4-element avoider lists are printed under each other's extra pattern "
     "(and one member repeats 'n-1')",
     "lists swapped back and the garbled member read as (n-1,n,n-2,...,3,1,2); "
     "oracle confirms both families",
     lambda n_max, t4: {
         "avoiders_3421_n4": _avoiders_for("123;132;213;3421", 4),
         "avoiders_4231_n4": _avoiders_for("123;132;213;4231", 4),
     }),
    ("singleton-conclusions-swapped", "misprint",
     "the five-triple singleton rows conclude {(n,...,1)} when 123 is missing and "
     "{(1,...,n)} when 321 is missing",
     "conclusions swapped: forbidding everything but 123 leaves the ascending "
     "permutation, and vice versa",
     lambda n_max, t4: {"avoiders_missing123_n5": _avoiders_for("132;213;231;312;321;2143", 5)}),
    ("three-zero-threshold-exception", "claim-correction",
     "the claimed zero threshold for three-triple sets is n >= 6 whenever 123 is in "
     "T and t = 4321 (or the mirror condition)",
     "false for the classes of {123,132,213,4321} and {123,231,312,4321}: one "
     "avoider survives at n = 6 and the count is zero only from n = 7; the four "
     "affected sets carry threshold 7",
     lambda n_max, t4: {
         "counts_fib_triple": _counts_for("123;132;213;4321", 7),
         "counts_other_triple": _counts_for("123;231;312;4321", 7),
         "survivor_n6_fib_triple": ";".join(_avoiders_for("123;132;213;4321", 6)),
         "survivor_n6_other_triple": ";".join(_avoiders_for("123;231;312;4321", 6)),
     }),
    ("fibonacci-indexing", "threshold-calibration",
     "the pair-table Fibonacci row prints f(2n-2) with no initial conditions",
     "under f(1)=f(2)=1 the matching index is f(2n-1) (equivalently the printed "
     "index under f(0)=f(1)=1); calibrated against the oracle at n=2..5",
     lambda n_max, t4: {
         "counts_123_1432": _counts_for("123;1432", 5),
         "f_2n_minus_1": [fibonacci(2 * n - 1) for n in range(1, 6)],
     }),
    ("table4-claimed-sizes", "claimed-size-mismatch",
     "the last table claims row sizes 348, 100 and 56 (sum 504 of a 528-set universe)",
     "the stated zero-row and count-2-row conditions reach 250 and 198 sets; the "
     "claimed total 504 is met exactly under the strict-subset premise, leaving "
     "the 24 sets with all six length-3 patterns uncovered (surfaced with oracle "
     "counts)",
     lambda n_max, t4: {
         "claimed_vs_computed": {r.row_id: (r.claimed_size, r.computed_size) for r in t4.rows},
         "covered": t4.covered,
         "uncovered": len(t4.uncovered),
     }),
)


def _build_findings(n_max: int, audits: list[TableAudit]) -> list[dict]:
    """Pre-registered misprint findings with recomputed evidence, then one open
    finding per mismatched pair."""
    t4 = next(a for a in audits if a.table_id == 4)
    return [
        {
            "id": fid, "kind": kind, "printed": printed,
            "resolution": resolution % {"n_max": n_max},
            "evidence": evidence(n_max, t4), "status": "confirmed",
        }
        for fid, kind, printed, resolution, evidence in _FINDINGS
    ] + [
        {
            "id": f"unexpected-mismatch:{c.literal}", "kind": "unexpected-mismatch",
            "printed": c.row_id, "resolution": "formula disagrees with the oracle; investigate",
            "evidence": {"set": c.literal, "mismatch_ns": list(c.mismatch_ns)}, "status": "open",
        }
        for a in audits for c in a.checks if c.verdict == "mismatch"
    ]
