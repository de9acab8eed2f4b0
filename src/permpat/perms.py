"""Permutations in one-line notation, order-isomorphism, and pattern containment.

A permutation of length n is a tuple of the values 1..n, each exactly once;
the empty tuple is the (valid) empty permutation.  A word is any tuple of
pairwise distinct integers.  Pattern sets are frozensets of permutations and
may mix lengths.

Text format: a single permutation is written either as compact digits when
every value is at most 9 ("3412") or as space/comma separated values
("11 3 1 ..."); a pattern set joins permutations with ";" ("123;3412").
Digits are ASCII 0-9 only.  A separated value may carry a leading "-", which
only ``standardize``'s words can use ("-5 3 0").
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable, Optional, Sequence

Perm = tuple[int, ...]
PatternSet = frozenset[Perm]

# one separated value: ASCII digits with an optional leading minus
_INT = re.compile(r"-?[0-9]+")


class PatternSyntaxError(ValueError):
    """Malformed permutation or pattern-set literal.

    ``position`` is the character offset of the offending token within the
    original literal.
    """

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def check_permutation(entries: Sequence[int]) -> Perm:
    """Validate one-line notation: each of 1..n exactly once, as an int (True or 2.0 raise).

    >>> check_permutation([3, 1, 2])
    (3, 1, 2)
    >>> check_permutation([])
    ()
    """
    p = tuple(entries)
    n = len(p)
    if not all(type(v) is int for v in p) or sorted(p) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {p!r}")
    return p


def check_int(value: int, name: str, least: int = 0) -> int:
    """Return ``value`` if it is an int of at least ``least``, else raise
    ValueError; the one rule for every length, bound, power and worker count
    (True == 1 and 2.0 == 2, but neither is an int here).

    >>> check_int(3, "n")
    3
    """
    if type(value) is not int or value < least:
        raise ValueError(f"{name} must be an int of at least {least}, got {value!r}")
    return value


def standardize(word: Sequence[int]) -> Perm:
    """Replace each letter by its rank, giving the order-isomorphic permutation.

    >>> standardize((50, 20, 70))
    (2, 1, 3)
    >>> standardize((6, 1, 9, 4))
    (3, 1, 4, 2)
    >>> standardize(())
    ()
    """
    letters = tuple(word)
    rank = {v: i + 1 for i, v in enumerate(sorted(letters))}
    if len(rank) != len(letters):
        raise ValueError(f"word has duplicate letters: {letters!r}")
    return tuple(rank[v] for v in letters)


def is_order_isomorphic(a: Sequence[int], b: Sequence[int]) -> bool:
    """True iff the two words have identical pairwise comparison structure.

    >>> is_order_isomorphic((1, 3, 2), (1, 4, 2))
    True
    >>> is_order_isomorphic((1, 3, 2), (2, 3, 1))
    False
    """
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        return False
    return standardize(a) == standardize(b)


def _occurrence(perm: Perm, pattern: Perm) -> Optional[tuple[int, ...]]:
    # DFS over index lists in lexicographic order; the first complete match is
    # therefore the lexicographically least occurrence.
    k, n = len(pattern), len(perm)
    if k == 0:
        return ()
    if k > n:
        return None
    vals: list[int] = []
    idxs: list[int] = []

    def rec(slot: int, start: int) -> bool:
        pslot = pattern[slot]
        for pos in range(start, n - (k - slot) + 1):
            x = perm[pos]
            ok = True
            for i in range(slot):
                if (x < vals[i]) != (pslot < pattern[i]):
                    ok = False
                    break
            if not ok:
                continue
            vals.append(x)
            idxs.append(pos)
            if slot + 1 == k or rec(slot + 1, pos + 1):
                return True
            vals.pop()
            idxs.pop()
        return False

    if rec(0, 0):
        return tuple(i + 1 for i in idxs)
    return None


def _distinct(word: Sequence[int]) -> tuple[int, ...]:
    # the matcher compares letters with <, so a repeated letter would pass as
    # the larger of the two and give a wrong answer instead of an error
    w = tuple(word)
    if len(set(w)) != len(w):
        raise ValueError(f"word has duplicate letters: {w!r}")
    return w


def contains(perm: Perm, pattern: Perm) -> bool:
    """True iff some subsequence of ``perm`` is order-isomorphic to ``pattern``.

    Every permutation contains the empty pattern.  Both arguments may be any
    words with distinct letters; a repeated letter raises ValueError.

    >>> contains((1, 2, 3, 4), (1, 2, 3))
    True
    >>> contains((3, 2, 1), (1, 2))
    False
    """
    return _occurrence(_distinct(perm), standardize(pattern)) is not None


def find_occurrence(perm: Perm, pattern: Perm) -> Optional[tuple[int, ...]]:
    """Lexicographically least index list (1-based) witnessing containment.

    >>> find_occurrence((2, 4, 1, 3), (1, 2))
    (1, 2)
    >>> find_occurrence((3, 2, 1), (1, 2)) is None
    True
    >>> find_occurrence((1, 4, 2, 3), (1, 3, 2))
    (1, 2, 3)
    """
    return _occurrence(_distinct(perm), standardize(pattern))


def avoids_all(perm: Perm, patterns: Iterable[Perm]) -> bool:
    """True iff ``perm`` contains none of the patterns.

    >>> avoids_all((2, 1, 3), [(1, 2, 3)])
    True
    >>> avoids_all((1, 2, 3), [(1, 2, 3), (3, 2, 1)])
    False
    """
    p = _distinct(perm)
    return all(_occurrence(p, standardize(pat)) is None for pat in patterns)


def all_permutations(n: int):
    """All of S_n in lexicographic order, as tuples over 1..n."""
    return itertools.permutations(range(1, n + 1))


def pattern_set(patterns: Iterable[Sequence[int]]) -> PatternSet:
    """Build a PatternSet, validating every member."""
    return frozenset(check_permutation(p) for p in patterns)


def pattern_set_key(s: PatternSet):
    # cardinality, then the patterns by length, then one-line lexicographic; a
    # stable sort by length of the sorted list needs no Python call per pattern
    return (len(s), tuple(sorted(sorted(s), key=len)))


def format_permutation(p: Perm) -> str:
    """Compact digit form when all values are single digits, else separated.

    >>> format_permutation((3, 4, 1, 2))
    '3412'
    >>> format_permutation(tuple(range(1, 11)))
    '1 2 3 4 5 6 7 8 9 10'
    """
    if p and max(p) <= 9:
        return "".join(str(v) for v in p)
    return " ".join(str(v) for v in p)


def format_pattern_set(s: PatternSet) -> str:
    """Deterministic pattern-set literal: members sorted, joined by ";".

    >>> format_pattern_set(frozenset({(1, 2, 3), (3, 4, 1, 2)}))
    '123;3412'
    """
    return ";".join(format_permutation(p) for p in pattern_set_key(s)[1])


def _parse_word(text: str, offset: int = 0) -> list[int]:
    # the letters of a literal, compact digits or separated integers, with no
    # check that they form a permutation
    body = text.strip()
    lead = len(text) - len(text.lstrip())
    if not body:
        raise PatternSyntaxError("empty permutation literal", offset)
    if any(ch in body for ch in " ,\t"):
        values = []
        pos = 0
        for tok in body.replace(",", " ").split():
            tok_at = offset + text.find(tok, pos)
            pos = text.find(tok, pos) + len(tok)
            if not _INT.fullmatch(tok):
                raise PatternSyntaxError(f"not an integer: {tok!r}", tok_at)
            values.append(int(tok))
    elif body.isascii() and body.isdigit():
        values = [int(ch) for ch in body]
    else:
        bad = next(i for i, ch in enumerate(body) if ch not in "0123456789")
        raise PatternSyntaxError(f"unexpected character {body[bad]!r}", offset + lead + bad)
    return values


def parse_permutation(text: str, offset: int = 0) -> Perm:
    """Parse a single permutation literal.

    >>> parse_permutation("3 1 2")
    (3, 1, 2)
    >>> parse_permutation("3412")
    (3, 4, 1, 2)
    """
    values = _parse_word(text, offset)
    try:
        return check_permutation(values)
    except ValueError as exc:
        raise PatternSyntaxError(str(exc), offset) from None


def parse_pattern_set(text: str) -> PatternSet:
    """Parse a pattern-set literal.

    Patterns are joined by ";".  A comma-separated literal is read as one
    permutation when the values form one ("3,1,2"), otherwise as a comma-
    joined pattern set ("123,132,213,3421").

    >>> sorted(parse_pattern_set("123;3412"))
    [(1, 2, 3), (3, 4, 1, 2)]
    >>> len(parse_pattern_set("123,132,213,3421"))
    4
    """
    sep = ";"
    if ";" not in text and "," in text:
        # tokenize once, so a bad token is reported where it stands
        values = _parse_word(text)
        try:
            return frozenset({check_permutation(values)})
        except ValueError:
            sep = ","
    out = []
    offset = 0
    for piece in text.split(sep):
        out.append(parse_permutation(piece, offset))
        offset += len(piece) + 1
    return frozenset(out)
