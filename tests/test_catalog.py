import csv
import hashlib
import io
import json

import pytest

from permpat import catalog, enumeration
from permpat.catalog import (
    EXPLICIT_FAMILIES,
    TABLE_ROWS,
    CatalogIntegrityError,
    assign_entries,
    classify,
    expand_universe,
    table_of,
    verify,
)
from permpat.enumeration import (
    _TABLE_CACHE,
    avoiders_by_length,
    count_avoiders,
    count_table,
    count_tables,
    enumerate_avoiders,
)
from permpat.formulas import BinomialPoly, Catalan, RationalGF, TribonacciForm, evaluate, render
from permpat.lifting import lift, lift_power, pattern_words
from permpat.perms import (
    all_permutations,
    check_permutation,
    contains,
    format_pattern_set,
    parse_pattern_set,
    pattern_set,
    pattern_set_key,
)
from permpat.symmetry import apply_op, apply_set, inverse, orbit, partition_into_classes, reverse

from conftest import naive_avoiders


def test_universe_sizes_and_order():
    sizes = {tid: len(expand_universe(tid)) for tid in (1, 2, 3, 4)}
    assert sizes == {1: 144, 2: 360, 3: 480, 4: 528}
    # expand_universe emits its product in canonical order instead of sorting it
    for tid in (1, 2, 3, 4):
        u = expand_universe(tid)
        assert u == sorted(u, key=pattern_set_key) and len(set(u)) == len(u)
    with pytest.raises(ValueError, match="unknown table id 5"):
        expand_universe(5)
    # True == 1 and 2.0 == 2 find tables 1 and 2 in a lookup, but are no table ids
    for table_id in (True, 2.0):
        with pytest.raises(ValueError, match="table id must be an int"):
            expand_universe(table_id)


def test_table_of():
    assert table_of(parse_pattern_set("123;1234")) == 1
    assert table_of(parse_pattern_set("123;321;1234")) == 2
    assert table_of(parse_pattern_set("123;132;213;231;312;321;1234")) == 4
    assert table_of(parse_pattern_set("1234;4321")) is None
    assert table_of(parse_pattern_set("123;321")) is None
    assert table_of(parse_pattern_set("12;1234")) is None
    assert table_of(parse_pattern_set("123;321;1234;4321")) is None


def test_containment_facts_are_contains():
    # the containment reduction reads the 144 facts of S4 x S3 as, for each tau, the
    # set of the length-3 patterns it contains
    s3 = list(all_permutations(3))
    facts = {tau: frozenset(a for a in s3 if contains(tau, a)) for tau in all_permutations(4)}
    assert len(facts) * len(s3) == 144
    assert catalog._CONTAINED == facts


@pytest.mark.parametrize("literal", ["124;1234", "123;1235", "133"])
def test_malformed_sets_raise(literal):
    # built by hand, since parse_pattern_set already rejects these; a set of
    # the universes' shape with a non-permutation member must not get a table
    s = frozenset(tuple(int(c) for c in p) for p in literal.split(";"))
    with pytest.raises(ValueError, match="not a permutation"):
        table_of(s)
    with pytest.raises(ValueError, match="not a permutation"):
        assign_entries([s])
    with pytest.raises(ValueError, match="not a permutation"):
        classify(s, 3)


# the public calls that take permutations and promise ValueError for a
# non-permutation, or validate through one that does, each fed one length-3
# pattern p; the catalog calls get {132, p + (4,)}, of the first universe's shape
_PERMUTATION_CALLS = {
    "check_permutation": check_permutation,
    "pattern_set": lambda p: pattern_set([p]),
    "reverse": reverse,
    "inverse": inverse,
    "apply_op": lambda p: apply_op("ri", p),
    "apply_op_r": lambda p: apply_op("r", p),
    "apply_op_empty_word": lambda p: apply_op("", p),
    "apply_set": lambda p: apply_set("i", [p]),
    "apply_set_r": lambda p: apply_set("r", [p]),
    "orbit": lambda p: orbit([p]),
    "pattern_words": lambda p: pattern_words(p, 4),
    "lift": lambda p: lift([p]),
    "lift_power": lambda p: lift_power([p], 1),
    "avoiders_by_length": lambda p: avoiders_by_length(4, [p]),
    "enumerate_avoiders": lambda p: enumerate_avoiders(4, [p]),
    "count_avoiders": lambda p: count_avoiders(4, [p]),
    "count_table": lambda p: count_table([p], 4),
    "count_tables": lambda p: count_tables([[p]], 4, jobs=2),
    "table_of": lambda p: table_of(frozenset({(1, 3, 2), p + (4,)})),
    "assign_entries": lambda p: assign_entries([frozenset({(1, 3, 2), p + (4,)})]),
    "classify": lambda p: classify(frozenset({(1, 3, 2), p + (4,)}), 4),
}


@pytest.mark.parametrize("name", sorted(_PERMUTATION_CALLS))
@pytest.mark.parametrize("p", [(True, 2, 3), (1, 2.0, 3)], ids=["True", "2.0"])
def test_entries_that_only_equal_ints_raise(name, p):
    # True == 1 and 2.0 == 2, and both hash as the ints, so a lookup in S_3
    # or S_4 alone takes them for entries of a permutation
    with pytest.raises(ValueError, match="not a permutation"):
        _PERMUTATION_CALLS[name](p)


def test_assignment_examples():
    u = [
        parse_pattern_set("123;1234"),
        parse_pattern_set("123;321;2134"),
        parse_pattern_set("132;213;231;312;1234"),
        parse_pattern_set("123;132;213;231;312;321;1234"),
    ]
    entries = assign_entries(u)
    assert entries[u[0]].row_id == "1.catalan"
    assert entries[u[1]].row_id == "2.zero"
    # a printed singleton-class representative; it stays covered, otherwise
    # the coverage audit falls short of the claimed 504
    assert entries[u[2]].row_id == "4.one"
    assert entries[u[3]] is None


def test_zero_row_thresholds():
    entries = assign_entries([
        parse_pattern_set("123;321;2134"),
        parse_pattern_set("123;132;4321"),
        parse_pattern_set("123;132;231;4321"),
        parse_pattern_set("123;132;213;4321"),
    ])
    thresholds = {format_pattern_set(s): e.valid_from for s, e in entries.items()}
    assert thresholds["123;321;2134"] == 5
    assert thresholds["123;132;4321"] == 7
    assert thresholds["123;132;231;4321"] == 6
    # stated n >= 6 fails for the Fibonacci triple; corrected threshold
    assert thresholds["123;132;213;4321"] == 7


def test_assignment_is_unambiguous_everywhere():
    for tid in (1, 2, 3, 4):
        assign_entries(expand_universe(tid))  # raises on any double match


def test_double_row_match_raises(monkeypatch):
    catalan = next(row for row in TABLE_ROWS if row.row_id == "1.catalan")
    copy = catalan._replace(row_id="1.catalan-copy")
    monkeypatch.setattr(catalog, "_ROWS", {**catalog._ROWS, 1: catalog._ROWS[1] + (copy,)})
    with pytest.raises(CatalogIntegrityError, match="1.catalan, 1.catalan-copy"):
        assign_entries([parse_pattern_set("123;1234")])


def test_records_compare_by_class_and_stay_frozen():
    # records are NamedTuples; two formulas with equal fields (or none) are
    # still distinct formulas, or verify would evaluate one for the other
    assert Catalan() != TribonacciForm() and not Catalan() == TribonacciForm()
    assert len({Catalan(), TribonacciForm()}) == 2
    assert BinomialPoly((1, 2), 3) != RationalGF((1, 2), 3)
    assert BinomialPoly((1, 2), 3) == BinomialPoly(terms=(1, 2), constant=3)
    entry, table = classify(parse_pattern_set("123;1234"), 4)
    records = [
        (table, "counts"), (lift([(1, 2)]), "image"), (orbit([(1, 3, 2)]), "members"),
        (entry, "row_id"), (BinomialPoly((), 1), "constant"),
    ]
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_row_sizes_match_claims_for_first_three_tables():
    for tid in (1, 2, 3):
        universe = expand_universe(tid)
        entries = assign_entries(universe)
        computed: dict[str, int] = {}
        for e in entries.values():
            assert e is not None
            computed[e.row_id] = computed.get(e.row_id, 0) + 1
        for row in TABLE_ROWS:
            if row.table == tid:
                assert computed[row.row_id] == row.claimed_size, row.row_id


def test_table4_sizes():
    entries = assign_entries(expand_universe(4))
    computed: dict[str, int] = {}
    uncovered = 0
    for e in entries.values():
        if e is None:
            uncovered += 1
        else:
            computed[e.row_id] = computed.get(e.row_id, 0) + 1
    assert computed == {"4.zero": 250, "4.two": 198, "4.one": 56}
    assert uncovered == 24


# (set, row, rendered per-set formula, threshold); an explicit family stands
# for every listed family of its row
PER_SET_CLAIMS = [
    ("123;1234", "1.catalan", "C(2n,n)/(n+1)", 1),
    ("123;1432", "1.fibonacci-even", "f(2n-1) [f(1)=f(2)=1]", 1),
    ("123;2431", "1.pow2-minus-triangle", "3*2^(n-1)-C(n+1,2)-1", 1),
    ("123;3412", "1.pow2-minus-cubic", "2^(n+1)-C(n+1,3)-2n-1", 1),
    ("123;3421", "1.quartic-poly", "C(n,4)+2C(n,3)+n", 1),
    ("123;4231", "1.quintic-poly", "C(n,5)+2C(n,4)+C(n,3)+C(n,2)+1", 1),
    ("123;4321", "1.zero", "0 (n>=7)", 7),
    ("132;3214", "1.rational-gf", "[x^n] 1-3x+3x^2-x^3/(1-4x+5x^2-3x^3)", 1),
    ("132;3421", "1.power-linear", "(1n-1)*2^(n-2)+1", 1),
    ("132;4321", "1.quartic-poly-b", "C(n,4)+C(n+1,4)+C(n,2)+1", 1),
    ("123;132;1234", "2.pow2", "2^(n-1)", 1),
    ("123;132;3214", "2.tribonacci", "t(n) [t(1),t(2),t(3)=1,2,4]", 1),
    ("123;132;3241", "2.fibonacci", "f(n+2)-1 [f(1)=f(2)=1]", 1),
    ("123;132;3412", "2.nn2", "C(n,2)+1", 1),
    ("123;132;3421", "2.linear-3n", "3n-5", 3),
    ("123;132;4321", "2.zero", "0 (n>=7)", 7),
    ("123;231;1432", "2.linear-2n", "2n-2", 2),
    ("123;321;1234", "2.zero", "0 (n>=5)", 5),
    ("123;132;213;1234", "3.fibonacci", "f(n+1) [f(1)=f(2)=1]", 1),
    ("123;132;213;3412", "3.linear-n", "n", 1),
    ("123;132;213;3421", "3.four", "|explicit avoider list [123;132;213;3421]|", 4),
    ("123;132;213;4312", "3.four", "4", 4),
    ("123;132;213;4321", "3.zero", "0 (n>=7)", 7),
    ("123;132;231;3214", "3.three", "|explicit avoider list [123;132;231;3214]|", 3),
    ("123;132;231;4321", "3.zero", "0 (n>=6)", 6),
    ("123;132;312;3214", "3.three", "3", 3),
    ("123;132;213;231;1234", "4.two", "2", 2),
    ("123;132;213;231;4312", "4.one", "|explicit avoider list [123;132;213;231;4312]|", 4),
    ("123;132;213;231;4321", "4.zero", "0 (n>=6)", 6),
    ("123;132;213;312;3421", "4.one", "1", 4),
    ("123;132;213;231;312;1234", "4.one", "1", 3),
]


def test_classify_examples():
    entry, table = classify(parse_pattern_set("123;132;3214"), 7)
    assert entry.row_id == "2.tribonacci"
    assert table.counts[1:] == (1, 2, 4, 7, 13, 24, 44)

    entry, _ = classify(parse_pattern_set("123;312;2143"), 4)
    assert entry.row_id == "2.linear-2n"

    entry, table = classify(parse_pattern_set("1234;4321"), 5)
    assert entry is None
    assert len(table.counts) == 6

    # one set for each (row, per-set formula, threshold) of the four tables;
    # the verify digest covers only each row's own formula
    for literal, row_id, formula, valid_from in PER_SET_CLAIMS:
        entry, _ = classify(parse_pattern_set(literal), 1)
        claim = (entry.row_id, render(entry.formula), entry.valid_from)
        assert claim == (row_id, formula, valid_from), literal


def test_every_per_set_claim_is_pinned():
    # one line per set of the four universes, in universe order: its row, its
    # own rendered formula and its threshold, or "-" if no row claims it
    lines = []
    for tid in (1, 2, 3, 4):
        universe = expand_universe(tid)
        entries = assign_entries(universe)
        for s in universe:
            e = entries[s]
            claim = f"{e.row_id} {render(e.formula)} {e.valid_from}" if e else "-"
            lines.append(f"{format_pattern_set(s)} {claim}\n")
    text = "".join(lines).encode()
    assert len(text) == 53_401
    assert hashlib.sha256(text).hexdigest() == (
        "99be20b3dab0a14d1658330023fc4441afb8e2d493f9c8f3dfaa3ee58abda368"
    )


def test_every_claim_is_its_rows_own():
    # a row's claims amend its formula or threshold only for sets the row
    # hits, so a claim on a set that some other row (or none) gets is dead data
    for row in TABLE_ROWS:
        for s, entry in assign_entries(row.claims).items():
            assert entry is not None and entry.row_id == row.row_id, format_pattern_set(s)
            assert row.claims[s] != (row.formula, row.valid_from), format_pattern_set(s)
    assert sum(len(row.claims) for row in TABLE_ROWS) == 33


def test_zero_conjecture_needs_three_zeros():
    assert catalog._zero_conjecture((1, 1, 2, 0, 0)) is None
    assert catalog._zero_conjecture((1, 1, 2, 0, 0, 0)) == "conjecture: for n>=3: 0 (n>=3)"
    # a Catalan tail is left unlabelled; zero is the one form the rule tries
    assert catalog._zero_conjecture((1, 1, 2, 5, 14, 42, 132)) is None


def test_explicit_families_match_independent_oracle():
    for s, fam in EXPLICIT_FAMILIES.items():
        for n in (4, 5):
            assert fam.build(n) == frozenset(naive_avoiders(n, s)), fam.name


def test_explicit_families_build_pinned_sets():
    # the sorted members of all 15 families from the least n their longest
    # skeleton inflates to (below each row's threshold too) up to 12 hash to
    # the digest of the builders they replaced; one n lower a family raises
    families = sorted(EXPLICIT_FAMILIES.values(), key=lambda f: f.name)
    least = {f.name: max(len(skeleton) for skeleton, _, _ in f.members) - 1 for f in families}
    text = repr([(f.name, n, sorted(f.build(n))) for f in families for n in range(least[f.name], 13)])
    assert len(families) == 15 and len(text) == 14713
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "31ec06b90808462916b6d1a1e9795e44c954782cc92f3f93ae618a25f20466c0"
    )
    for f in families:
        if least[f.name] >= 1:
            with pytest.raises(ValueError):
                f.build(least[f.name] - 1)


def test_verify_walks_once_per_explicit_family(monkeypatch):
    # each family set is checked at every n from one collecting walk at n_max,
    # made by avoiders_by_length; the findings enumerate below n = 7 through
    # enumerate_avoiders, which walks there too, and are not counted
    real, walks = enumeration._walk, []

    def walk(n, sets, collect, jobs=1):
        if collect and n == 7:
            walks.append((n, *sets))
        return real(n, sets, collect, jobs)

    monkeypatch.setattr(enumeration, "_walk", walk)
    verify(7)
    assert len(walks) == 15
    assert set(walks) == {(7, s) for s in EXPLICIT_FAMILIES}


def test_verify_small():
    report = verify(6)
    assert report.unexpected_mismatches == []
    for tid, (covered, uncovered) in {1: (144, 0), 2: (360, 0), 3: (480, 0), 4: (504, 24)}.items():
        audit = report.table(tid)
        assert (audit["coverage"]["covered"], len(audit["coverage"]["uncovered"])) == (covered, uncovered)
    finding_ids = {f["id"] for f in report.findings}
    assert "nn2-missing-class" in finding_ids
    assert "table4-claimed-sizes" in finding_ids
    assert "three-zero-threshold-exception" in finding_ids
    assert all(f["status"] == "confirmed" for f in report.findings)


# sha256 of json.dumps(verify(n_max).findings): several evidence items read
# their length from the run's n_max, so each n_max from 1 to 9 is pinned
_FINDINGS_DIGESTS = {
    1: "8bc5c6b22eb14d07affdd7fb31a14931f8bbbfc514c71d6c5ddf0cb397ee9599",
    2: "36ac4887b6fb877d9a76aaad7c9d8b8582d281b92b21c406f2b8f66d7b089f92",
    3: "26621ddfae1b4dab52096d865b078cbc2b7caee7f35372af8fcbe7bfaa4b728c",
    4: "0337c2b885f889d17c29d7c8737363079c6018207369c197d53a539601e56156",
    5: "0b58dad12834bc344d827982c04659d6ae81d2f9f5136d01904f8b4c10f9a4f3",
    6: "6b5ac2e0a5404c8c3b8a88789f33c7f2b5bc8c147874180ca86c20f4a2c5641f",
    7: "d7a59a70c83bfd091357207b7303356be8f0167963d160d7bfda2e3dd7855cff",
    8: "f93d73d0a5935ae20b560cc305638f2d015cb710fce731d24a059fcf162bd380",
    9: "a9fe38d0382ba827f19a7cf0d3587484e5b3bc28cc15281341cc0bbb6bbf360f",
}

# sha256 of the JSON body of verify(n_max), less elapsed_seconds and jobs, as
# sorted compact JSON, and of its CSV grid as csv.writer writes it; n_max = 7
# is test_verify_report_bytes_pinned's, 8 the CI pins and 9 perfbench/reference.json
_REPORT_DIGESTS = {
    1: ("54aa5cf80d26a32c95c2dc3b1f60a3b46427540bd4b51165f1c4092b39eebffd",
        "13cc30985ac8d31c5091c1be906c8e9f87d11d9e0b20eb1565e051dce6ca1f58"),
    2: ("61764d3814732eb979960d12d23be309715240e65ee03824129ec130fb2e0c0e",
        "58bb95cef94e89becedc8382b03439f5f94a30c7f8ff720c119efca56235b0df"),
    3: ("d560423695b60fd2015fcb6eca12a2cc091463148e6b3159629e4e53a8ef8a5d",
        "71e4a3481fe91daf6c2d70cf7f07fcea51850f664ee48820c62aefab1ab54ad2"),
    4: ("7ed4af973cc44a9ff377c1ff108b7f974784c02f8d89e9b4366b9185f35cc5f9",
        "8ea6bdfc908c412fdcd460ed7b32eba8b1c0126f79938239f787f2e62ac94cb2"),
    5: ("199446f39c6dab016c58ddb6e4fe7d9d11cc61ccf6090f112dd2103430a15680",
        "173de161dc42691cbeacbd7daee0cfef146367cef86c4ec203a8036c02361667"),
    6: ("78274504ba6e46da15260b068cd28fc8a004b13e0e815d724c0cb28a35af6c18",
        "3deb36796fcb9ab85dd3db212da8f981d2a35ec3646aa4999ceb6ea26886873a"),
    7: ("0355b7ffe0d75222c7644ce2b5c3aefefd71288cbe0281c2ebdb263e2a5ab174",
        "2899d7db8d53e3cc76cf7f632b1f84384077f9c8ff9b6970cd0496221d5aaa90"),
    8: ("440f04a70631166b24e519a98d09ff91149d96435eb30e004c5adb7e823880dd",
        "c7d5e68b4bf8f2df5eca49994b829e4c87a535a5ac2a23530c74a54195d7bffe"),
    9: ("d7739ce3791c2d6d19f9455e840887d51fd8c171007f8737aee92004c28ca0f9",
        "d7de24cc6464e8e50cbdb20b5ab45edb7ce6f2c6156d91b443aeb9b25682f2f5"),
}


def test_findings_pinned_at_every_n_max():
    # and every other byte of the JSON report and of the CSV grid, with and
    # without the worker pool
    for n_max, digest in _FINDINGS_DIGESTS.items():
        for jobs in (None, 2):
            report = verify(n_max, jobs=jobs)
            findings = report.findings
            assert len(findings) == 16 and all(f["status"] == "confirmed" for f in findings)
            assert hashlib.sha256(json.dumps(findings).encode()).hexdigest() == digest, n_max
            body = report.to_json_dict()
            del body["elapsed_seconds"], body["jobs"]
            grid = io.StringIO()
            csv.writer(grid).writerows(report.to_csv_rows())
            got = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (
                json.dumps(body, sort_keys=True, separators=(",", ":")), grid.getvalue()))
            assert got == _REPORT_DIGESTS[n_max], (n_max, jobs)


def test_verify_report_serialization():
    report = verify(5)
    blob = json.dumps(report.to_json_dict())
    decoded = json.loads(blob)
    assert decoded["n_max"] == 5
    assert len(decoded["tables"]) == 4
    t4 = next(t for t in decoded["tables"] if t["id"] == 4)
    assert t4["coverage"]["universe"] == 528
    assert len(t4["coverage"]["uncovered"]) == 24
    rows = report.to_csv_rows()
    assert rows[0] == ["table", "row_id", "set", "n", "oracle", "formula", "verdict"]
    # one line per (set, n)
    assert len(rows) == 1 + (144 + 360 + 480 + 528) * 5
    verdicts = {r[6] for r in rows[1:]}
    assert verdicts <= {"match", "mismatch", "uncovered", "below-threshold-skipped"}
    assert "mismatch" not in verdicts


def test_csv_grid_formats_each_set_once(monkeypatch):
    # the grid has one line per (set, n) but formats each set's literal once
    report = verify(4)
    real, calls = catalog.format_pattern_set, []

    def counted(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(catalog, "format_pattern_set", counted)
    rows = report.to_csv_rows()
    assert len(rows) == 1 + 1512 * 4
    assert len(calls) == 1512


def test_uncovered_pairs_get_conjectures():
    report = verify(6)
    assert len(report.table(4)["coverage"]["uncovered"]) == 24
    for pair in report.table(4)["coverage"]["uncovered"]:
        assert pair["conjecture"] == "conjecture: for n>=3: 0 (n>=3)"


def test_verify_searches_representatives_and_shares_exact_counts(monkeypatch):
    # verify searches one set per orbit and hands its counts to the other
    # members; a fresh search on every one of the 1,512 sets must agree
    searched = []
    compute = enumeration._compute_counts

    def spy(sets, n_max, jobs):
        searched.extend(sets)
        return compute(sets, n_max, jobs)

    findings_start = []
    build_findings = catalog._build_findings

    def mark(*args):
        findings_start.append(len(searched))
        return build_findings(*args)

    monkeypatch.setattr(enumeration, "_compute_counts", spy)
    monkeypatch.setattr(catalog, "_build_findings", mark)
    universe = [s for tid in (1, 2, 3, 4) for s in expand_universe(tid)]
    representatives = {o.representative for o in partition_into_classes(universe)}
    _TABLE_CACHE.clear()
    report = verify(7)
    members = set(universe)
    before_findings = [s for s in searched[: findings_start[0]] if s in members]
    assert len(before_findings) == len(representatives) == 283
    assert set(before_findings) == representatives

    _TABLE_CACHE.clear()
    assert len(report.pairs) == len(universe) == 1512
    for s in universe:
        assert report.pairs[s].counts == count_table(s, 7).counts


def test_pair_formula_values_are_each_sets_own_formula():
    # verify evaluates each distinct (formula, threshold) once; every set must
    # still get its own formula's values from its own threshold on, and None
    # below it, where a claim may differ from its row's
    report = verify(7)
    entries = assign_entries(report.pairs)
    for s, pair in report.pairs.items():
        entry = entries[s]
        expected = None if entry is None else tuple(
            evaluate(entry.formula, n) if n >= entry.valid_from else None for n in range(1, 8)
        )
        assert pair.formula_values == expected


def test_verify_report_independent_of_jobs_and_cache():
    def body(report):
        blob = report.to_json_dict()
        del blob["elapsed_seconds"], blob["jobs"]
        return blob

    _TABLE_CACHE.clear()
    cold = body(verify(7, jobs=1))
    _TABLE_CACHE.clear()
    pooled = body(verify(7, jobs=2))
    _TABLE_CACHE.clear()
    # two members that are not their orbit's representative, then one that is
    for literal in ("2143;231;312;321", "1234;231;312", "132;213;4231"):
        count_table(parse_pattern_set(literal), 9)
    warm = body(verify(7))
    assert pooled == cold
    assert warm == cold


def test_verify_rejects_jobs_below_one():
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs"):
            verify(3, jobs=jobs)
    with pytest.raises(ValueError, match="n_max"):
        verify(0)


_JOBS_CALLS = {
    "count_tables": lambda jobs: count_tables([{(1, 2, 3)}], 5, jobs=jobs),
    "verify": lambda jobs: verify(5, jobs=jobs),
}


@pytest.mark.parametrize("name", sorted(_JOBS_CALLS))
@pytest.mark.parametrize("jobs", [True, 2.0, 1.5], ids=["True", "2.0", "1.5"])
def test_jobs_that_are_not_ints_rejected(name, jobs):
    # True == 1 and 2.0 == 2, but neither is a number of workers: verify must
    # not write "jobs": true into its report
    with pytest.raises(ValueError, match="jobs"):
        _JOBS_CALLS[name](jobs)


def test_a_count_wrong_only_at_the_threshold_is_a_mismatch(monkeypatch):
    # the pair check lists every n from valid_from on whose count differs
    # from the formula; a count that is wrong at n = valid_from and nowhere
    # else is a mismatch at that n, and a threshold above it hides it
    compute = enumeration._compute_counts

    def wrong_at_three(sets, n_max, jobs):
        return [t[:3] + (t[3] + 1,) + t[4:] if len(t) > 3 else t for t in compute(sets, n_max, jobs)]

    monkeypatch.setattr(enumeration, "_TABLE_CACHE", {})
    monkeypatch.setattr(enumeration, "_compute_counts", wrong_at_three)
    covered = [p for p in verify(4).pairs.values() if p.verdict != "uncovered"]
    assert any(p.valid_from == 3 and p.pattern_set not in EXPLICIT_FAMILIES for p in covered)
    for p in covered:
        assert p.mismatch_ns == ((3,) if p.valid_from <= 3 else ()), p.literal


def test_forced_mismatch_reaches_findings_audits_csv_and_exit_code(monkeypatch, capsys):
    # one wrong oracle value on one orbit must surface everywhere the report
    # shows a mismatch: the open findings, the row audit, the CSV grid and the
    # exit code of the command line
    from permpat.cli import main

    target = orbit(parse_pattern_set("123;132;3214")).representative
    compute = enumeration._compute_counts

    def off_by_one(sets, n_max, jobs):
        tables = compute(sets, n_max, jobs)
        if target in sets and n_max >= 5:
            i = sets.index(target)
            tables[i] = tables[i][:5] + (tables[i][5] + 1,) + tables[i][6:]
        return tables

    monkeypatch.setattr(enumeration, "_TABLE_CACHE", {})
    monkeypatch.setattr(enumeration, "_compute_counts", off_by_one)
    report = verify(6)
    bad = ["123;132;3214", "123;213;1432", "231;321;4123", "312;321;2341"]
    assert [p.literal for p in report.unexpected_mismatches] == bad
    open_findings = [f for f in report.findings if f["status"] == "open"]
    assert [f["id"] for f in open_findings] == [f"unexpected-mismatch:{lit}" for lit in bad]
    assert all(f["kind"] == "unexpected-mismatch" and f["printed"] == "2.tribonacci" for f in open_findings)
    assert [f["evidence"] for f in open_findings] == [{"set": lit, "mismatch_ns": [5]} for lit in bad]
    row = next(r for r in report.table(2)["rows"] if r["row_id"] == "2.tribonacci")
    assert (row["computed_size"], row["verdicts"]) == (6, {"match": 2, "mismatch": 4})
    cells = [r for r in report.to_csv_rows()[1:] if r[6] == "mismatch"]
    assert cells == [[2, "2.tribonacci", lit, 5, 14, 13, "mismatch"] for lit in bad]

    code = main(["verify", "--nmax", "6"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.strip() == "verification found 4 unexpected mismatches"


def test_forced_count_refutes_its_finding_and_exits_two(monkeypatch, capsys):
    # a wrong count that reaches only a finding's evidence, not a pair check
    # (those take their counts from count_tables), must refute that finding
    # and fail the run with a line that names it
    from permpat.cli import main

    target = parse_pattern_set("123;231;312;3214")
    real = catalog.count_table

    def off_by_one(s, n_max):
        table = real(s, n_max)
        if s == target and n_max >= 5:
            table = table._replace(counts=table.counts[:5] + (table.counts[5] + 1,) + table.counts[6:])
        return table

    monkeypatch.setattr(catalog, "count_table", off_by_one)
    report = verify(6)
    assert report.unexpected_mismatches == []
    statuses = {f["id"]: f["status"] for f in report.findings}
    assert statuses.pop("three-row-unproven-class") == "refuted"
    assert len(statuses) == 15 and set(statuses.values()) == {"confirmed"}

    code = main(["verify", "--nmax", "6"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == ["verification found finding three-row-unproven-class refuted"]


def test_row_size_off_its_claim_is_an_open_finding_and_exits_two(monkeypatch, capsys):
    # every row's computed size is checked against its claim, not only in the
    # tests; 4.zero's and 4.two's are decided by table4-claimed-sizes
    from permpat.cli import main

    rows = {tid: tuple(r._replace(claimed_size=117) if r.row_id == "2.nn2" else r for r in table)
            for tid, table in catalog._ROWS.items()}
    monkeypatch.setattr(catalog, "_ROWS", rows)
    report = verify(4)
    assert report.unexpected_mismatches == []
    assert [f for f in report.findings if f["status"] != "confirmed"] == [{
        "id": "unexpected-size:2.nn2", "kind": "unexpected-size", "printed": "2.nn2",
        "resolution": "row size differs from its claim; investigate",
        "evidence": {"claimed_size": 117, "computed_size": 118}, "status": "open",
    }]

    code = main(["verify", "--nmax", "4"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == ["verification found finding unexpected-size:2.nn2 open"]


def _nn2(n):
    return n * (n - 1) // 2 + 1


# per finding, one evidence item of verify(9) and what the printed tables
# would make it; every predicate must reject the printed version
PRINTED_EVIDENCE = {
    "containment-wording": ("S4_avoiders_of_132", 10),  # the 132-containing permutations of S_4
    "reversal-image-misprint": ("recomputed_r_image", "132;213;4231"),
    "nn2-lists-contained-tau": ("counts", [_nn2(n) for n in range(7)]),
    "nn2-missing-class": ("counts", [1] + [2 ** (n - 1) for n in range(1, 10)]),
    "nn2-duplicate-tau-item": ("taus_with_nn2_counts_n_le_6", ["1324", "2314", "1324"]),
    "2n2-item-prints-3412": ("counts_printed", [_nn2(n) for n in range(7)]),
    "pow2-duplicate-pair": ("pairs", ["123;132", "123;213", "132;213", "132;231", "132;231", "132;312",
                                      "213;231", "213;312", "231;312", "231;321", "312;321"]),
    "n-row-merged-conditions": ("counts_special", [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]),  # f(n+1)
    "three-row-unproven-class": ("counts", [1, 1, 2, 3, 3, 3, 4, 3, 3, 3]),
    "four-row-reps": ("counts_corrected_rep", [1, 1, 2, 3, 4, 5, 6]),
    "explicit3-witness-typos": ("avoiders_n5", ["54213", "54312", "12345"]),
    "explicit4-lists-swapped": ("avoiders_3421_n4", ["3412", "3421", "4312", "4321"]),
    "singleton-conclusions-swapped": ("avoiders_missing123_n5", ["54321"]),
    "three-zero-threshold-exception": ("counts_fib_triple", [1, 1, 2, 3, 4, 3, 0, 0]),
    "fibonacci-indexing": ("f_2n_minus_1", [0, 1, 3, 8, 21]),  # f(2n-2), f(1) = f(2) = 1
    "table4-claimed-sizes": ("claimed_vs_computed", {"4.zero": (348, 348), "4.two": (100, 100), "4.one": (56, 56)}),
}


@pytest.fixture(scope="module")
def findings9():
    return {f["id"]: f for f in verify(9).findings}


@pytest.mark.parametrize("fid", [f[0] for f in catalog._FINDINGS])
def test_every_finding_rejects_the_printed_version(fid, findings9):
    holds = next(f[-1] for f in catalog._FINDINGS if f[0] == fid)
    evidence = dict(findings9[fid]["evidence"])
    assert findings9[fid]["status"] == "confirmed" and holds(evidence)
    key, printed = PRINTED_EVIDENCE[fid]
    assert key in evidence and evidence[key] != printed
    evidence[key] = printed
    assert not holds(evidence)
