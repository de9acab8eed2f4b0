"""Reversal/inverse symmetries, their group action on pattern sets, and orbits.

The generators ``r`` (reverse the one-line word) and ``i`` (group inverse)
reflect the permutation diagram in a vertical axis and in the main diagonal.
Their product is a quarter turn, so they generate exactly the eight symmetries
of the square, and ``orbit`` walks that group by applying r and i alternately:
r, i, r, i, r, i, r reaches all eight images in seven steps.  Every orbit of
pattern sets has size 1, 2, 4 or 8, and all its members have equinumerous
avoider sets, which makes orbits the right unit for the classification tables.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .perms import Perm, PatternSet, check_permutation, format_pattern_set, pattern_set, pattern_set_key


def reverse(p: Perm) -> Perm:
    """One-line word reversed.  Raises ValueError if p is not a permutation.

    >>> reverse((1, 2, 3))
    (3, 2, 1)
    >>> reverse((2, 4, 1, 3))
    (3, 1, 4, 2)
    """
    return tuple(reversed(check_permutation(p)))


def inverse(p: Perm) -> Perm:
    """Group inverse: q with q[p[j]] = j (1-based).

    Raises ValueError if p is not a permutation.

    >>> inverse((2, 3, 1))
    (3, 1, 2)
    >>> inverse((1, 2, 3))
    (1, 2, 3)
    """
    inv = [0] * len(p)
    for j, v in enumerate(check_permutation(p), 1):
        inv[v - 1] = j
    return tuple(inv)


def apply_op(ops: str, p: Perm) -> Perm:
    """Apply a word over the generators {r, i}, lowercase only, leftmost first.

    Raises ValueError if p is not a permutation or the word has another letter.

    >>> apply_op("ri", (2, 3, 1))
    (1, 3, 2)
    >>> apply_op("rr", (2, 3, 1))
    (2, 3, 1)
    """
    p = check_permutation(p)
    for ch in ops:
        if ch == "r":
            p = reverse(p)
        elif ch == "i":
            p = inverse(p)
        else:
            raise ValueError(f"unknown symmetry generator {ch!r}")
    return p


def apply_set(ops: str, t: Iterable[Perm]) -> PatternSet:
    """Elementwise image of a pattern set; cardinality is preserved.  Raises
    ValueError if a member of t is not a permutation."""
    return frozenset(apply_op(ops, p) for p in pattern_set(t))


class SymmetryOrbit(NamedTuple):
    """An orbit of pattern sets under the reverse/inverse group."""

    members: frozenset[PatternSet]
    representative: PatternSet

    @property
    def size(self) -> int:
        return len(self.members)

    def sorted_members(self) -> list[PatternSet]:
        return sorted(self.members, key=pattern_set_key)

    def to_json_dict(self) -> dict:
        return {
            "representative": format_pattern_set(self.representative),
            "size": self.size,
            "members": [format_pattern_set(m) for m in self.sorted_members()],
        }


def orbit(t: Iterable[Sequence[int]]) -> SymmetryOrbit:
    """The eight images of a pattern set under r and i, with canonical representative.

    The representative is the orbit member minimal under (set cardinality,
    sorted pattern list, patterns ordered by length then lexicographically).
    Raises ValueError if a member of t is not a permutation.

    >>> o = orbit([(1, 2, 3)])
    >>> sorted(format_pattern_set(m) for m in o.members)
    ['123', '321']
    """
    s = pattern_set(t)
    # the j-th image of a set is the set of its patterns' j-th images; the
    # empty set has no pattern to zip, and is its own only image
    members = frozenset(map(frozenset, zip(*map(_images, s)))) or frozenset({s})
    return SymmetryOrbit(members, min(members, key=pattern_set_key))


@lru_cache(maxsize=1024)
def _images(p: Perm) -> tuple[Perm, ...]:
    # p, then its images along the chain r, i, r, i, r, i, r
    return tuple(itertools.accumulate("riririr", lambda q, op: apply_op(op, q), initial=p))


def partition_into_classes(sets: Iterable[Iterable[Sequence[int]]]) -> list[SymmetryOrbit]:
    """Disjoint orbits covering the input, ordered by canonical representative.
    Raises ValueError if a member of an input set is not a permutation."""
    orbit_of: dict[PatternSet, SymmetryOrbit] = {}  # each member of every orbit found so far
    for t in sets:
        s = frozenset(map(tuple, t))
        if s not in orbit_of:
            o = orbit(s)
            orbit_of.update(dict.fromkeys(o.members, o))
        elif {type(v) for p in s for v in p} != {int}:
            pattern_set(s)  # a set equal to a checked one differs only by entry type: True == 1
    return sorted(set(orbit_of.values()), key=lambda o: pattern_set_key(o.representative))
