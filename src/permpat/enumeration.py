"""Brute-force oracle: enumerate and count pattern-avoiding permutations.

The search walks West's generating tree.  A node is a standardized prefix, a
permutation of 1..m; its children append a new last entry into one of the
m + 1 rank gaps, where gap g gives the new entry the value g + 1 and raises
every entry above g by one.  Every permutation of length m + 1 has exactly
one parent (drop the last entry and standardize), and containment is monotone
under prefix extension and invariant under standardization, so a branch is
pruned as soon as its prefix contains a forbidden pattern and every avoider
of every length up to n is visited exactly once.  Leaves are collected and
sorted, so enumeration output is lexicographic.

Pruning never rescans the whole prefix against whole patterns.  For a pattern
of length k, an occurrence created by appending an entry must end at it, so
its other k-1 entries form a (k-1)-subset of the prefix; for each such subset
the gaps that complete an occurrence form an interval determined by the
subset's sorted values and the rank of the pattern's last entry.  Those
intervals are accumulated into a single forbidden-gap bitmask that is passed
down the tree, making the per-child test a couple of integer operations.
Inserting into gap g splits that gap around the new entry, so the child's
mask copies bits 0..g, duplicates bit g and shifts the bits above g up by
one before the subsets ending at the new entry are folded in.  Patterns of
length 5 or more are rare here and use a direct matcher per candidate instead.

``count_table`` performs a single search at n_max; the number of nodes at
depth m is |S_m(T)|, so the per-depth tally is the whole table.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .perms import Perm, PatternSet, pattern_set


@dataclass(frozen=True)
class CountTable:
    """Avoider counts |S_n(T)| for n = 0..n_max."""

    pattern_set: PatternSet
    counts: tuple[int, ...]

    @property
    def n_max(self) -> int:
        return len(self.counts) - 1


class _Compiled:
    __slots__ = (
        "has_empty",
        "has_single",
        "asc2",
        "desc2",
        "pair_asc",
        "pair_desc",
        "by_class",
        "has3",
        "has4",
        "long_pats",
    )

    def __init__(self, patterns: Iterable[Perm]):
        self.has_empty = False
        self.has_single = False
        self.asc2 = False
        self.desc2 = False
        # rank masks for the value completing a pair (bit r-1 = rank r of the
        # new value among the three) and a triple (rank among the four)
        self.pair_asc = 0
        self.pair_desc = 0
        by_class = [0] * 6
        long_pats = []
        for p in patterns:
            k = len(p)
            if k == 0:
                self.has_empty = True
            elif k == 1:
                self.has_single = True
            elif k == 2:
                if p == (1, 2):
                    self.asc2 = True
                else:
                    self.desc2 = True
            elif k == 3:
                if p[0] < p[1]:
                    self.pair_asc |= 1 << (p[2] - 1)
                else:
                    self.pair_desc |= 1 << (p[2] - 1)
            elif k == 4:
                by_class[_cls3(p[0], p[1], p[2])] |= 1 << (p[3] - 1)
            else:
                long_pats.append(p)
        self.by_class = tuple(by_class)
        self.has3 = bool(self.pair_asc or self.pair_desc)
        self.has4 = any(by_class)
        self.long_pats = tuple(sorted(long_pats))


def _cls3(x: int, y: int, z: int) -> int:
    # index of the 3-letter pattern of (x, y, z) in (123,132,213,231,312,321)
    if x < y:
        if z > y:
            return 0
        if z > x:
            return 1
        return 3
    if z > x:
        return 2
    if z > y:
        return 4
    return 5


def _ends_long(pre: list[int], v: int, pat: Perm) -> bool:
    # does appending v create an occurrence of pat (len >= 5) ending at v?
    k1 = len(pat) - 1
    m = len(pre)
    if m < k1:
        return False
    last = pat[-1]
    vals: list[int] = []

    def rec(slot: int, start: int) -> bool:
        want = pat[slot]
        for pos in range(start, m - (k1 - slot) + 1):
            x = pre[pos]
            if (x < v) != (want < last):
                continue
            ok = True
            for i in range(slot):
                if (x < vals[i]) != (want < pat[i]):
                    ok = False
                    break
            if not ok:
                continue
            vals.append(x)
            if slot + 1 == k1 or rec(slot + 1, pos + 1):
                return True
            vals.pop()
        return False

    return rec(0, 0)


def _run_main(n: int, comp: _Compiled, collect: bool):
    """One generating-tree search.  Returns (count per length, leaves or None)."""
    tally = [0] * (n + 1)
    out: Optional[list[Perm]] = [] if collect else None
    asc2, desc2 = comp.asc2, comp.desc2
    bp_asc, bp_desc = comp.pair_asc, comp.pair_desc
    has3, has4 = comp.has3, comp.has4
    bc = comp.by_class
    long_pats = comp.long_pats
    up4 = bc[0] or bc[2] or bc[4]
    down4 = bc[1] or bc[3] or bc[5]

    def rec(pre: list[int], depth: int, forb: int) -> None:
        tally[depth] += 1
        if depth == n:
            if collect:
                out.append(tuple(pre))
            return
        # a child has depth + 1 entries and so depth + 2 gaps
        full = (1 << (depth + 2)) - 1
        allowed = ((1 << (depth + 1)) - 1) & ~forb
        while allowed:
            bit = allowed & -allowed
            allowed -= bit
            g = bit.bit_length() - 1
            v = g + 1
            child = [x + 1 if x > g else x for x in pre]
            if long_pats:
                hit = False
                for pat in long_pats:
                    if _ends_long(child, v, pat):
                        hit = True
                        break
                if hit:
                    continue
            # gap g splits around v: bits above g move up one, bit g is copied
            nf = (forb & ((bit << 1) - 1)) | ((forb >> g) << v)
            # fold the subsets ending at v into the child's forbidden mask
            below_v = (1 << v) - 1
            if asc2:
                nf |= full & ~below_v
            if desc2:
                nf |= below_v
            if has3:
                for x in child:
                    if x < v:
                        rm = bp_asc
                        if rm:
                            if rm & 1:
                                nf |= (1 << x) - 1
                            if rm & 2:
                                nf |= below_v ^ ((1 << x) - 1)
                            if rm & 4:
                                nf |= full & ~below_v
                    else:
                        rm = bp_desc
                        if rm:
                            if rm & 1:
                                nf |= below_v
                            if rm & 2:
                                nf |= ((1 << x) - 1) ^ below_v
                            if rm & 4:
                                nf |= full & ~((1 << x) - 1)
            if has4 and depth >= 2:
                for j in range(1, depth):
                    y = child[j]
                    # skip y when no length-4 class with this order of y and v is forbidden
                    if not (up4 if v > y else down4):
                        continue
                    for i in range(j):
                        x = child[i]
                        if x < y:
                            if v > y:
                                rm = bc[0]
                                b1, b2, b3 = x, y, v
                            elif v > x:
                                rm = bc[1]
                                b1, b2, b3 = x, v, y
                            else:
                                rm = bc[3]
                                b1, b2, b3 = v, x, y
                        else:
                            if v > x:
                                rm = bc[2]
                                b1, b2, b3 = y, x, v
                            elif v > y:
                                rm = bc[4]
                                b1, b2, b3 = y, v, x
                            else:
                                rm = bc[5]
                                b1, b2, b3 = v, y, x
                        if rm:
                            if rm & 1:
                                nf |= (1 << b1) - 1
                            if rm & 2:
                                nf |= ((1 << b2) - 1) ^ ((1 << b1) - 1)
                            if rm & 4:
                                nf |= ((1 << b3) - 1) ^ ((1 << b2) - 1)
                            if rm & 8:
                                nf |= full & ~((1 << b3) - 1)
            child.append(v)
            rec(child, depth + 1, nf)

    rec([], 0, 0)
    return tally, out


def enumerate_avoiders(n: int, t: Iterable[Sequence[int]]) -> list[Perm]:
    """All members of S_n avoiding every pattern in t, in lexicographic order.

    Raises ValueError if a member of t is not a permutation.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    patterns = pattern_set(t)
    comp = _Compiled(patterns)
    if comp.has_empty:
        return []
    if comp.has_single:
        return [()] if n == 0 else []
    _, out = _run_main(n, comp, collect=True)
    out.sort()
    return out


# count tables are memoized per pattern set at the largest n seen so far
_TABLE_CACHE: dict[PatternSet, tuple[int, ...]] = {}


def _compute_counts(patterns: PatternSet, n_max: int) -> tuple[int, ...]:
    comp = _Compiled(patterns)
    if comp.has_empty:
        return tuple([0] * (n_max + 1))
    if comp.has_single:
        return tuple([1] + [0] * n_max)
    tally, _ = _run_main(n_max, comp, collect=False)
    return tuple(tally)


def count_table(t: Iterable[Sequence[int]], n_max: int) -> CountTable:
    """Counts |S_n(T)| for n = 0..n_max, from a single generating-tree search.

    The search visits each avoider of each length n <= n_max exactly once, so
    the number of nodes at depth n is the count itself.  Raises ValueError if
    a member of t is not a permutation.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    patterns = pattern_set(t)
    cached = _TABLE_CACHE.get(patterns)
    if cached is None or len(cached) <= n_max:
        cached = _compute_counts(patterns, n_max)
        _TABLE_CACHE[patterns] = cached
    return CountTable(patterns, cached[: n_max + 1])


def count_avoiders(n: int, t: Iterable[Sequence[int]]) -> int:
    """|S_n(T)| without materializing the avoiders."""
    return count_table(t, n).counts[n]


def _table_worker(args) -> tuple[int, ...]:
    patterns, n_max = args
    return _compute_counts(frozenset(patterns), n_max)


def count_tables(sets: Sequence[Iterable[Sequence[int]]], n_max: int, jobs: Optional[int] = None) -> list[CountTable]:
    """Count tables for many pattern sets, optionally across worker processes.

    Results come back in input order regardless of the worker count, and are
    merged into the in-process memo so later lookups are free.
    """
    normalized = [pattern_set(t) for t in sets]
    if jobs is None or jobs <= 1:
        return [count_table(t, n_max) for t in normalized]
    todo = [t for t in set(normalized) if len(_TABLE_CACHE.get(t, ())) <= n_max]
    todo.sort(key=lambda t: sorted(t))
    if todo:
        with multiprocessing.Pool(jobs) as pool:
            results = pool.map(_table_worker, [(tuple(t), n_max) for t in todo], chunksize=8)
        for t, counts in zip(todo, results):
            _TABLE_CACHE[t] = counts
    return [CountTable(t, _TABLE_CACHE[t][: n_max + 1]) for t in normalized]


def insert_max(p: Perm, j: int) -> Perm:
    """Insert the new maximum n+1 before position j (1-based, j = n+1 appends).

    Containment of any pattern is preserved: an occurrence in p is untouched
    by the insertion.

    >>> insert_max((1, 2), 1)
    (3, 1, 2)
    >>> insert_max((2, 1, 3), 4)
    (2, 1, 3, 4)
    """
    n = len(p)
    if not 1 <= j <= n + 1:
        raise ValueError(f"insert position {j} out of range 1..{n + 1}")
    return p[: j - 1] + (n + 1,) + p[j - 1 :]
