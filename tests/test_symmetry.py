import hashlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permpat.catalog import expand_universe
from permpat.enumeration import count_avoiders, count_table
from permpat.perms import all_permutations, format_pattern_set, parse_pattern_set, pattern_set_key
from permpat.symmetry import (
    apply_op,
    apply_set,
    inverse,
    orbit,
    partition_into_classes,
    reverse,
)

from conftest import PATTERN_SETS, naive_avoiders


def test_reverse_examples():
    assert reverse((1, 2, 3)) == (3, 2, 1)
    assert reverse((2, 4, 1, 3)) == (3, 1, 4, 2)


def test_inverse_examples():
    assert inverse((1, 2, 3)) == (1, 2, 3)
    assert inverse((2, 3, 1)) == (3, 1, 2)


def test_inverse_rejects_non_permutations():
    # a repeated value leaves a slot unfilled, an out-of-range one has no slot
    with pytest.raises(ValueError):
        inverse((1, 3, 3))
    with pytest.raises(ValueError):
        apply_set("i", {(1, 3, 3)})
    with pytest.raises(ValueError):
        apply_set("r", {(1, 3, 3)})
    with pytest.raises(ValueError):
        inverse((2, 4, 3))
    with pytest.raises(ValueError):
        inverse((0, 1))


def test_group_laws_exhaustive():
    for n in range(8):
        for p in all_permutations(n):
            assert reverse(reverse(p)) == p
            assert inverse(inverse(p)) == p


def test_apply_op():
    assert apply_op("r", (1, 3, 2)) == (2, 3, 1)
    assert apply_op("ri", (2, 3, 1)) == (1, 3, 2)
    assert apply_op("rr", (2, 3, 1)) == (2, 3, 1)
    with pytest.raises(ValueError):
        apply_op("x", (1, 2))
    with pytest.raises(ValueError):
        apply_op("R", (1, 2))


def test_apply_set_examples():
    # elementwise reversal; r(312) = 213 and r(2431) = 1342
    assert apply_set("r", parse_pattern_set("123;312;2431")) == parse_pattern_set("321;213;1342")
    assert apply_set("i", parse_pattern_set("123")) == parse_pattern_set("123")
    assert apply_set("r", parse_pattern_set("132;213;4321")) == parse_pattern_set("231;312;1234")
    # inverse first, then reversal (the r(A^-1) composition)
    assert apply_set("r", apply_set("i", parse_pattern_set("123;312;2431"))) == \
        parse_pattern_set("321;132;2314")


def test_orbit_examples():
    o = orbit(parse_pattern_set("123"))
    assert {format_pattern_set(m) for m in o.members} == {"123", "321"}
    assert o.size == 2
    assert o.representative == frozenset({(1, 2, 3)})

    o = orbit(parse_pattern_set("123;321"))
    assert o.size == 1
    for member in o.members:
        assert count_avoiders(6, member) == 0


def test_orbit_sizes_divide_eight():
    rng = random.Random(99)
    s3, s4 = list(all_permutations(3)), list(all_permutations(4))
    for _ in range(40):
        t = frozenset(rng.sample(s3, rng.randint(1, 2)) + rng.sample(s4, rng.randint(0, 2)))
        o = orbit(t)
        assert o.size in (1, 2, 4, 8)
        assert t in o.members
        assert o.representative in o.members


def _closure(t):
    # breadth-first closure under reversal and inverse, written without
    # package code so that it checks orbit's walk of the group independently
    def inv(p):
        q = [0] * len(p)
        for j, v in enumerate(p):
            q[v - 1] = j + 1
        return tuple(q)

    seen, frontier = {t}, [t]
    while frontier:
        images = {img for s in frontier
                  for img in (frozenset(p[::-1] for p in s), frozenset(inv(p) for p in s))}
        frontier = list(images - seen)
        seen |= images
    return frozenset(seen)


def _assert_orbit_is_closure(t):
    o = orbit(t)
    assert o.members == _closure(frozenset(t))
    assert o.representative == min(o.members, key=pattern_set_key)


def test_orbit_closed_under_generators():
    o = orbit(parse_pattern_set("123;132;3412"))
    for m in o.members:
        assert apply_set("r", m) in o.members
        assert apply_set("i", m) in o.members
    for tid in (1, 2, 3, 4):
        for s in expand_universe(tid):
            _assert_orbit_is_closure(s)


@settings(deadline=None, max_examples=200)
@given(PATTERN_SETS)
def test_orbit_equals_independent_closure(t):
    _assert_orbit_is_closure(t)


def test_counting_invariant_across_orbit():
    for literal in ("132;3214", "123;132;3241", "123;2431"):
        o = orbit(parse_pattern_set(literal))
        base = [count_avoiders(n, o.representative) for n in range(7)]
        for member in o.members:
            assert [count_avoiders(n, member) for n in range(7)] == base


def test_partition_pairs_catalog_universes():
    s3, s4 = list(all_permutations(3)), list(all_permutations(4))
    pairs = [frozenset({a, t}) for a in s3 for t in s4]
    classes = partition_into_classes(pairs)
    assert sum(o.size for o in classes) == 144
    union = set()
    for o in classes:
        assert not (union & o.members)
        union |= o.members
    assert union == set(pairs)

    import itertools
    triples = [frozenset(ts) | {t} for ts in itertools.combinations(s3, 2) for t in s4]
    assert sum(o.size for o in partition_into_classes(triples)) == 360


def test_partition_orders_orbits_by_representative():
    # the orbits come out sorted by representative, whatever the input order;
    # the 1,512 universe sets give 283 orbits, whose representatives' literals
    # are pinned in that order
    universe = [s for tid in (1, 2, 3, 4) for s in expand_universe(tid)]
    classes = partition_into_classes(universe)
    reps = [o.representative for o in classes]
    assert reps == sorted(reps, key=pattern_set_key)
    shuffled = universe[:]
    random.Random(31).shuffle(shuffled)
    assert partition_into_classes(shuffled) == classes
    text = "".join(f"{format_pattern_set(r)}\n" for r in reps).encode()
    assert (len(reps), len(text)) == (283, 4895)
    assert hashlib.sha256(text).hexdigest() == (
        "aa0d95d9204161b89556a08da12241623be44d35aad02610749a82dd077c83c7"
    )


def test_partition_single_input():
    classes = partition_into_classes([parse_pattern_set("132;4321")])
    assert len(classes) == 1


def test_empty_set_is_its_own_orbit():
    # the empty set has no pattern whose images could be zipped into members
    o = orbit(frozenset())
    assert o.members == frozenset({frozenset()}) and o.representative == frozenset()
    assert partition_into_classes([[]]) == [o]


_MIXED_SETS = st.frozensets(
    st.integers(1, 5).flatmap(lambda k: st.permutations(range(1, k + 1))).map(tuple), max_size=5
)


@settings(deadline=None, max_examples=100)
@example([frozenset({(2, 1), (1, 2, 3)}), frozenset({(1, 2, 3), (3, 2, 1)})])
@given(st.lists(_MIXED_SETS, min_size=2, max_size=8))
def test_pattern_set_key_orders_by_size_then_length_then_lexicographically(sets):
    # the canonical order: cardinality, then the patterns listed by length
    # and, within one length, lexicographically, compared as tuples
    def reference(s):
        return (len(s), tuple(sorted(s, key=lambda p: (len(p), p))))

    assert sorted(sets, key=pattern_set_key) == sorted(sets, key=reference)
    for s in sets:
        assert pattern_set_key(s) == reference(s)


def test_catalan_pairs_orbit_sizes_sum_sixty():
    from permpat.perms import contains

    s3, s4 = list(all_permutations(3)), list(all_permutations(4))
    pairs = [frozenset({a, t}) for a in s3 for t in s4 if contains(t, a)]
    assert len(pairs) == 60
    assert sum(o.size for o in partition_into_classes(pairs)) == 60


def test_orbit_json_report():
    o = orbit(parse_pattern_set("123;3412"))
    blob = o.to_json_dict()
    assert blob["size"] == len(blob["members"]) == 2
    assert blob["representative"] in blob["members"]


def test_orbit_rejects_malformed_patterns():
    # the generators read entries as values, so a non-permutation must raise
    with pytest.raises(ValueError):
        orbit({(1, 3, 3)})
    with pytest.raises(ValueError):
        orbit({(2, 4, 3), (1, 2, 3)})
    with pytest.raises(ValueError):
        partition_into_classes([{(1, 2, 3)}, {(1, 3, 3)}])
    # entries that equal ints but are not: True == 1, and 2.0 == 2
    with pytest.raises(ValueError):
        orbit([(2, True)])
    with pytest.raises(ValueError):
        orbit([(1, 2.0)])


def test_partition_rejects_a_set_equal_to_an_earlier_member():
    # {(True, 2)} equals and hashes as {(1, 2)}, so it is found as a member of
    # the orbit of {12} before orbit could check it; it must raise all the same
    for sets in ([[(1, 2)], [(True, 2)]], [[(2, 1)], [(1, 2)], [(2.0, 1)]], [[(1, 2, 3), (1, 3, 2)], [(1, 3, 2), (1, 2, 3.0)]]):
        with pytest.raises(ValueError):
            partition_into_classes(sets)
    assert partition_into_classes([[(1, 2)], [(2, 1)], [(1, 2)]]) == [orbit([(1, 2)])]


@settings(deadline=None, max_examples=40)
@given(PATTERN_SETS, st.integers(0, 6))
def test_orbit_members_match_naive_count(t, n):
    # the verifier shares one count table across an orbit; check the theorem
    # behind that against the naive oracle on every member
    expected = count_table(t, 6).counts[n]
    for member in orbit(t).members:
        assert len(naive_avoiders(n, member)) == expected


def test_orbit_is_the_seven_step_chain_on_every_universe_set():
    # orbit builds a set's images from memoized per-pattern images; they must
    # be the sets that r, i, r, i, r, i, r reaches from the set itself
    for tid in (1, 2, 3, 4):
        for s in expand_universe(tid):
            images = [s]
            for op in "riririr":
                images.append(apply_set(op, images[-1]))
            o = orbit(s)
            assert o.members == frozenset(images)
            assert o.representative == min(images, key=pattern_set_key)
