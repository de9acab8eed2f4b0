"""Lifting length-k patterns to the length-(k+1) patterns that contain them.

``pattern_words(tau, m)`` is the set of words over 1..m order-isomorphic to
tau (there are C(m, k) of them: pick the value set, the arrangement is
forced).  ``superpatterns(tau, m)`` is the set of permutations in S_m
containing tau.  ``lift`` maps a set of length-k patterns to the union of
their superpattern sets one letter longer; for n >= k+2 the lifted set has
exactly the same avoiders, which is why a longer pattern containing a shorter
forbidden one is redundant.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Sequence

from .perms import (
    Perm,
    PatternSet,
    _occurrence,
    all_permutations,
    check_int,
    check_permutation,
    contains,
    pattern_set,
)


def pattern_words(tau: Sequence[int], m: int) -> frozenset[tuple[int, ...]]:
    """All length-k words with distinct letters from 1..m order-isomorphic to tau.

    Raises ValueError if tau is not a permutation or m is not an int of at
    least its length.

    >>> sorted(pattern_words((1, 3, 2), 4))
    [(1, 3, 2), (1, 4, 2), (1, 4, 3), (2, 4, 3)]
    """
    tau = check_permutation(tau)
    k = len(tau)
    if check_int(m, "alphabet bound") < k:
        raise ValueError(f"alphabet bound {m} is smaller than the pattern length {k}")
    words = set()
    for values in itertools.combinations(range(1, m + 1), k):
        words.add(tuple(values[r - 1] for r in tau))
    return frozenset(words)


def superpatterns(tau: Sequence[int], m: int) -> PatternSet:
    """All permutations in S_m containing tau; ValueError if tau is not a
    permutation or m is not an int of at least its length.

    >>> len(superpatterns((1, 3, 2), 4))
    10
    """
    tau = check_permutation(tau)
    if check_int(m, "length") < len(tau):
        raise ValueError(f"length {m} is smaller than the pattern length {len(tau)}")
    return frozenset(p for p in all_permutations(m) if _occurrence(p, tau) is not None)


class NuImage(NamedTuple):
    """One lifting step: source patterns of length k, image of length k+1."""

    source: PatternSet
    image: PatternSet


def _uniform_length(t: PatternSet) -> int:
    lengths = {len(p) for p in t}
    if len(lengths) != 1:
        raise ValueError(f"lifting requires patterns of one common length, got lengths {sorted(lengths)}")
    return lengths.pop()


def lift(t: Iterable[Sequence[int]]) -> NuImage:
    """Union of superpatterns(tau, k+1) over tau in t (empty set maps to empty).

    Raises ValueError if a member of t is not a permutation.
    """
    source = pattern_set(t)
    if not source:
        return NuImage(source, frozenset())
    k = _uniform_length(source)
    image: set[Perm] = set()
    for tau in source:
        image |= superpatterns(tau, k + 1)
    return NuImage(source, frozenset(image))


def lift_power(t: Iterable[Sequence[int]], p: int) -> PatternSet:
    """p-fold lift; the result consists of patterns of length k+p.  Raises
    ValueError unless p is an int of at least 1."""
    check_int(p, "lift power", 1)
    current = frozenset(tuple(q) for q in t)
    for _ in range(p):
        current = lift(current).image
    return current


def is_redundant(alpha: Sequence[int], tau: Sequence[int]) -> bool:
    """True iff forbidding tau alongside alpha changes no avoidance class.

    Requires len(alpha) < len(tau); equivalent to tau containing alpha.
    Raises ValueError if either is not a permutation.

    >>> is_redundant((1, 2, 3), (1, 2, 3, 4))
    True
    >>> is_redundant((1, 3, 2), (4, 3, 2, 1))
    False
    """
    alpha, tau = check_permutation(alpha), check_permutation(tau)
    if len(alpha) >= len(tau):
        raise ValueError("redundancy test expects the first pattern to be strictly shorter")
    return contains(tau, alpha)
