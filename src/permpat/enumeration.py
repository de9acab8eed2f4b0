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

Pruning never rescans the whole prefix against whole patterns, and one rule
serves every pattern length k >= 2.  An occurrence of p that ends at a new
entry is an occurrence of q = p[:-1] (standardized) in the prefix plus that
entry, and the gaps that complete it form one interval: those between the
entries of the q-occurrence ranked r-1 and r, where r = p[-1].  Each
occurrence of q is folded in once, when the entry it ends at is appended,
into a forbidden-gap bitmask passed down the tree.  Inserting into gap g
splits that gap, so the child's mask copies bits 0..g, duplicates bit g and
shifts the bits above g up by one before the new occurrences are folded in.

Those occurrences are found slot by slot, each slot inside the window its
order relations allow.  The last free slot is never placed: the slot before
it is scanned right to left with a bitmask of the values further right, and
an interval with an endpoint at the free slot needs only the least or the
greatest candidate in that bitmask, so a length-4 pattern costs O(m) per
child.  A leaf's mask is never read, so leaves get no fold.

``count_table`` performs a single search at n_max; the number of nodes at
depth m is |S_m(T)|, so the per-depth tally is the whole table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .perms import Perm, PatternSet, pattern_set, standardize


@dataclass(frozen=True)
class CountTable:
    """Avoider counts |S_n(T)| for n = 0..n_max."""

    pattern_set: PatternSet
    counts: tuple[int, ...]

    @property
    def n_max(self) -> int:
        return len(self.counts) - 1


def _plan(q: Perm, ranks: int) -> tuple:
    """Fold plan for the patterns q + (r,) with bit r-1 of ``ranks`` set.

    The scratch list holds powers 1 << value: slots 0..k-1 of q (k-1 is the
    new entry, k-2 the free slot's least candidate), the bottom and top
    sentinels, and the free slot's greatest candidate.  ``windows[j]`` holds
    the nearest slots below and above q[j] among those placed before it, and
    ``pairs`` the two ends of each forbidden interval.
    """
    k = len(q)
    slot = {r: j for j, r in enumerate((*q, 0, k + 1))}
    windows = []
    for j in range(k - 1):
        placed = q[:j] + (q[-1], 0, k + 1)
        windows.append((slot[max(r for r in placed if r < q[j])], slot[min(r for r in placed if r > q[j])]))
    pairs = tuple(
        (slot[r - 1], k + 2 if slot[r] == k - 2 else slot[r]) for r in range(1, k + 2) if ranks >> (r - 1) & 1
    )
    return k, tuple(windows), pairs, [1] * (k + 3)


def _compile(patterns: PatternSet) -> list[tuple]:
    """One fold plan per distinct q = p[:-1] over the patterns of length >= 2."""
    groups: dict[Perm, int] = {}
    for p in patterns:
        if len(p) >= 2:
            q = standardize(p[:-1])
            groups[q] = groups.get(q, 0) | 1 << (p[-1] - 1)
    return [_plan(q, ranks) for q, ranks in sorted(groups.items())]


def _free(plan: tuple, later: int) -> int:
    # the free slot k-2 takes any value of ``later`` inside its window; an
    # interval ending at it needs only its least or greatest candidate
    k, windows, pairs, val = plan
    lo, hi = windows[k - 2]
    cand = later & (val[hi] - (val[lo] << 1))
    if not cand:
        return 0
    val[k - 2] = cand & -cand
    val[k + 2] = 1 << (cand.bit_length() - 1)
    return _union(pairs, val)


def _union(pairs: tuple, val: list[int]) -> int:
    nf = 0
    for a, b in pairs:
        nf |= val[b] - val[a]
    return nf


def _scan(child: list[int], plan: tuple, slot: int, start: int) -> int:
    # place slot at each position from the right end down to start, keeping
    # the values to its right as a bitmask for the free slot
    k, windows, _, val = plan
    lo, hi = windows[slot]
    low, high = val[lo], val[hi]
    nf = 0
    later = 0
    for pos in range(len(child) - 2, start - 1, -1):
        b = 1 << child[pos]
        if low < b < high:
            val[slot] = b
            nf |= _free(plan, later) if slot == k - 3 else _scan(child, plan, slot + 1, pos + 1)
        later |= b
    return nf


def _fold(child: list[int], plan: tuple, full: int) -> int:
    """Gaps forbidden by the occurrences of q that end at child[-1]."""
    k, _, pairs, val = plan
    val[k - 1] = 1 << child[-1]
    val[k + 1] = full + 1
    if k == 1:
        return _union(pairs, val)
    if k == 2:
        return _free(plan, full ^ 1 ^ val[1])
    return _scan(child, plan, 0, 0)


def _run_main(n: int, patterns: PatternSet, collect: bool):
    """One generating-tree search.  Returns (count per length, leaves or None)."""
    tally = [0] * (n + 1)
    out: Optional[list[Perm]] = [] if collect else None
    if () in patterns:
        return tally, out
    plans = _compile(patterns)

    def rec(pre: list[int], depth: int, forb: int) -> None:
        tally[depth] += 1
        if depth == n:
            if collect:
                out.append(tuple(pre))
            return
        allowed = ((1 << (depth + 1)) - 1) & ~forb
        # a leaf's mask is never read: no fold, and a count needs no leaves
        leaf = depth + 1 == n
        if leaf and not collect:
            tally[n] += allowed.bit_count()
            return
        # a child has depth + 1 entries and so depth + 2 gaps
        full = (1 << (depth + 2)) - 1
        while allowed:
            bit = allowed & -allowed
            allowed -= bit
            g = bit.bit_length() - 1
            v = g + 1
            child = [x + 1 if x > g else x for x in pre]
            child.append(v)
            # gap g splits around v: bits above g move up one, bit g is copied
            nf = (forb & ((bit << 1) - 1)) | ((forb >> g) << v)
            if not leaf:
                for plan in plans:
                    nf |= _fold(child, plan, full)
            rec(child, depth + 1, nf)

    # a length-1 pattern forbids the root's only gap
    rec([], 0, int((1,) in patterns))
    return tally, out


def enumerate_avoiders(n: int, t: Iterable[Sequence[int]]) -> list[Perm]:
    """All members of S_n avoiding every pattern in t, in lexicographic order.

    Raises ValueError if a member of t is not a permutation.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    _, out = _run_main(n, pattern_set(t), collect=True)
    out.sort()
    return out


# count tables are memoized per pattern set at the largest n seen so far;
# _fill is the only function that writes here
_TABLE_CACHE: dict[PatternSet, tuple[int, ...]] = {}

# sets handed to a pool worker at a time
_CHUNK = 8


class WorkerError(RuntimeError):
    """A worker process of ``count_tables`` died before returning its tables."""


def _compute_counts(patterns: PatternSet, n_max: int) -> tuple[int, ...]:
    return tuple(_run_main(n_max, patterns, collect=False)[0])


def _table_worker(patterns: PatternSet, n_max: int) -> tuple[int, ...]:
    # module-level so a pool can pickle it; _compute_counts is looked up at
    # call time, so a replacement installed before a fork reaches the workers
    return _compute_counts(patterns, n_max)


def _fill(sets: Iterable[PatternSet], n_max: int, jobs: Optional[int]) -> None:
    """Make ``_TABLE_CACHE`` hold every set's table to at least ``n_max``."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    todo = [t for t in dict.fromkeys(sets) if len(_TABLE_CACHE.get(t, ())) <= n_max]
    if not todo:
        return
    ns = [n_max] * len(todo)
    if jobs is None or jobs <= 1:
        results = map(_table_worker, todo, ns)
    else:
        # imported here: the pool machinery would add to every import of permpat
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        # a fork pool starts all its workers at once: no more than there are chunks
        try:
            with ProcessPoolExecutor(min(jobs, -(-len(todo) // _CHUNK))) as pool:
                results = list(pool.map(_table_worker, todo, ns, chunksize=_CHUNK))
        except BrokenProcessPool as exc:
            raise WorkerError(f"a count worker process died: {exc}") from exc
    _TABLE_CACHE.update(zip(todo, results))


def count_table(t: Iterable[Sequence[int]], n_max: int) -> CountTable:
    """Counts |S_n(T)| for n = 0..n_max, from a single generating-tree search.

    The search visits each avoider of each length n <= n_max exactly once, so
    the number of nodes at depth n is the count itself.  Raises ValueError if
    a member of t is not a permutation.
    """
    patterns = pattern_set(t)
    _fill([patterns], n_max, None)
    return CountTable(patterns, _TABLE_CACHE[patterns][: n_max + 1])


def count_avoiders(n: int, t: Iterable[Sequence[int]]) -> int:
    """|S_n(T)| without materializing the avoiders."""
    return count_table(t, n).counts[n]


def count_tables(sets: Sequence[Iterable[Sequence[int]]], n_max: int, jobs: Optional[int] = None) -> list[CountTable]:
    """Count tables for many pattern sets, optionally across worker processes.

    Results come back in input order regardless of the worker count, and
    share the memo of ``count_table``.  If a pool worker process dies, the
    call raises ``WorkerError``, a ``RuntimeError``, and returns nothing.
    """
    normalized = [pattern_set(t) for t in sets]
    _fill(normalized, n_max, jobs)
    return [CountTable(t, _TABLE_CACHE[t][: n_max + 1]) for t in normalized]
