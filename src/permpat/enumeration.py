"""Brute-force oracle: enumerate and count pattern-avoiding permutations.

The search walks West's generating tree.  A node is a standardized prefix, a
permutation of 1..m; its children append a new last entry into one of the
m + 1 rank gaps, where gap g gives the new entry the value g + 1 and raises
every entry above g by one.  Every permutation of length m + 1 has exactly
one parent (drop the last entry and standardize), and containment is monotone
under prefix extension and invariant under standardization, so a branch is
pruned as soon as its prefix contains a forbidden pattern and every avoider
of every length up to n is visited exactly once.  A collecting walk lists
them all, and enumeration sorts those of length n into lexicographic order.

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
child.  A leaf's mask is never read, so leaves get no fold.  Entries are
held as powers 1 << value.  A pattern of length <= 3 scans no slot, so its
fold reads only the depth and the gap, and a walk computes it once per
(depth, gap) for each distinct set of such patterns.

One walk serves several pattern sets.  Each node is built once for all the
sets it avoids, and each of those sets carries its own mask; sets with the
same patterns of length <= 3 share those folds and their plans.  The fold of
a longer pattern depends only on its q and on the ranks asked of q, so each
q of length >= 3 is scanned once per child for every set that asks for it,
be it one set or many.  That scan packs the interval of the i-th rank any of
them asks into bits i * n .. i * n + n - 1 of one int, as a folded child has
at most n gaps, and each set ORs in the slices of its own ranks.  So a walk
builds each plan once and folds each q in one way.  In the tables every
set's longest pattern has length 4, so its q is one of the six members of
S_3.  A walk of one set counts at n_max in a single pass: its number of
nodes at depth m is |S_m(T)|, so the tally is the whole table.

A counting walk can be split across forked worker processes, by subtree and
not by set.  The walk stops at depth _SPLIT and keeps each node there, with
its active sets and masks, as the frontier; the workers inherit it, walk the
subtrees of the frontier nodes they take from one shared pipe, and send back
their per-set tallies, which are added to the walk's own for the depths
above the split.  Integer sums do not depend on the schedule, so the tables
cannot depend on the number of workers, and the split walk scans each node
as often as the one walk does.  Each worker is pinned to one CPU of the
caller's affinity set, round-robin: under a cpuset with load balancing off,
a forked child can stay on its parent's CPU for all of its short life, and
unpinned workers then take turns on that one core while the others idle.
"""

from __future__ import annotations

import marshal
import os
import signal
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .perms import Perm, PatternSet, check_int, pattern_set, standardize


class CountTable(NamedTuple):
    """Avoider counts |S_n(T)| for n = 0..n_max."""

    pattern_set: PatternSet
    counts: tuple[int, ...]

    @property
    def n_max(self) -> int:
        return len(self.counts) - 1


def _plan(q: Perm, ranks: int, stride: int = 0) -> tuple:
    """Fold plan for the patterns q + (r,) with bit r-1 of ``ranks`` set.

    The plan's scratch list holds powers 1 << value, and its slots index it:
    slots 0..k-1 of q (k-1 is the new entry, k-2 the free slot's least
    candidate), the bottom and top sentinels, and the free slot's greatest
    candidate.  ``windows[j]`` holds the nearest slots below and above q[j]
    among those placed before it, and ``pairs`` the two ends of each forbidden
    interval with the shift that moves the interval of the i-th rank asked to
    bit i * ``stride`` of the fold; a stride of 0 ORs them all into one mask.
    """
    k = len(q)
    slot = {r: j for j, r in enumerate((*q, 0, k + 1))}
    windows = []
    for j in range(k - 1):
        placed = q[:j] + (q[-1], 0, k + 1)
        windows.append((slot[max(r for r in placed if r < q[j])], slot[min(r for r in placed if r > q[j])]))
    asked = [r for r in range(1, k + 2) if ranks >> (r - 1) & 1]
    pairs = tuple((slot[r - 1], k + 2 if slot[r] == k - 2 else slot[r], i * stride) for i, r in enumerate(asked))
    return k, tuple(windows), pairs, [1] * (k + 3)


def _ranks(patterns: PatternSet) -> dict[Perm, int]:
    """The ranks r asked of each q, as a bitmask, over the patterns q + (r,)
    of length >= 2."""
    asks: dict[Perm, int] = {}
    for p in patterns:
        if len(p) >= 2:
            q = standardize(p[:-1])
            asks[q] = asks.get(q, 0) | 1 << (p[-1] - 1)
    return asks


def _scan(child: list[int], plan: tuple, slot: int, start: int) -> int:
    # place slot at each position from the right end down to start, keeping
    # the values to its right as a bitmask for the free slot
    k, windows, pairs, val = plan
    lo, hi = windows[slot]
    low, high = val[lo], val[hi]
    nf = 0
    later = 0
    if slot < k - 3:
        for pos in range(len(child) - 2, start - 1, -1):
            b = child[pos]
            if low < b < high:
                val[slot] = b
                nf |= _scan(child, plan, slot + 1, pos + 1)
            later |= b
        return nf
    # the slot before the free one, the oracle's innermost loop: the free
    # slot k-2 takes any value of ``later`` inside its window, and an interval
    # ending at it needs only its least or greatest candidate
    flo, fhi = windows[k - 2]
    for b in reversed(child[start:-1]):
        if low < b < high:
            val[slot] = b
            cand = later & (val[fhi] - (val[flo] << 1))
            if cand:
                val[k - 2] = cand & -cand
                val[k + 2] = 1 << (cand.bit_length() - 1)
                for a, c, s in pairs:
                    nf |= (val[c] - val[a]) << s
        later |= b
    return nf


def _fold(child: list[int], plans: list[tuple], full: int) -> int:
    """Gaps forbidden by the occurrences of each plan's q that end at child[-1]."""
    nf = 0
    for plan in plans:
        k, windows, pairs, val = plan
        val[k - 1] = child[-1]
        val[k + 1] = full + 1
        if k > 2:
            nf |= _scan(child, plan, 0, 0)
            continue
        if k == 2:
            # the free slot 0 takes any earlier entry inside its window
            lo, hi = windows[0]
            cand = (full ^ 1 ^ val[1]) & (val[hi] - (val[lo] << 1))
            if not cand:
                continue
            val[0] = cand & -cand
            val[4] = 1 << (cand.bit_length() - 1)
        for a, b, s in pairs:
            nf |= (val[b] - val[a]) << s
    return nf


# the depth of the frontier that a pooled count walk hands to its workers;
# its nodes are distinct permutations of length 5, so there are at most 120
_SPLIT = 5


def _walk(n: int, sets: Sequence[PatternSet], collect: bool, jobs: int = 1):
    """One generating-tree walk for every set in ``sets``.

    Returns (count per length for each set, avoiders or None); avoiders[m]
    lists, in walk order, the permutations of length m that avoid a set.  A
    counting walk with ``jobs`` above 1 walks the subtrees below depth
    ``_SPLIT`` in up to ``jobs`` forked workers (see the module docstring).
    """
    tallies = [[0] * (n + 1) for _ in sets]
    out: Optional[list[list[Perm]]] = [[] for _ in range(n + 1)] if collect else None
    live = [(tally, patterns, _ranks(patterns)) for tally, patterns in zip(tallies, sets) if () not in patterns]
    # the union of the ranks that the sets ask of each q
    union: dict[Perm, int] = {}
    for _, _, asks in live:
        for q, ranks in asks.items():
            union[q] = union.get(q, 0) | ranks
    # per q of length >= 3: [the child last scanned, its packed fold, the
    # plan]; every child is scanned once for all sets (see the module docstring)
    scans = {q: [None, 0, [_plan(q, union[q], n)]] for q in union if len(q) > 2}
    # per distinct set of patterns of length <= 3: its folds per (depth, gap),
    # filled in as the walk first needs them, and its plans
    shorts: dict[PatternSet, tuple] = {}
    roots = []
    for tally, patterns, asks in live:
        short = frozenset(p for p in patterns if len(p) <= 3)
        if short not in shorts:
            shorts[short] = ([None] * (n * n), [_plan(q, r) for q, r in _ranks(short).items()])
        # rank j + 1 of q has the slice numbered by the ranks below it that
        # any set asks
        uses = tuple(
            (scans[q], (union[q] & ((1 << j) - 1)).bit_count() * n)
            for q, r in asks.items()
            if q in scans
            for j in range(len(q) + 1)
            if r >> j & 1
        )
        spec = (tally, *shorts[short], uses)
        # a length-1 pattern forbids the root's only gap
        roots.append((spec, int((1,) in patterns)))

    # a walk that forks stops at the split and keeps the nodes there
    split = _SPLIT if jobs > 1 and not collect and hasattr(os, "fork") else -1
    frontier: list[tuple] = []

    def rec(pre: list[int], depth: int, active: list) -> None:
        if depth == split:
            frontier.append((pre, depth, active))
            return
        top = (1 << (depth + 1)) - 1
        common = top
        for spec, forb in active:
            spec[0][depth] += 1
            common &= forb
        if collect:
            out[depth].append(tuple([x.bit_length() - 1 for x in pre]))
        if depth == n:
            return
        # a leaf's mask is never read, so leaves get no fold; a count reads
        # the leaves below a child at depth n - 1 off its mask
        leaf = depth + 1 == n
        last = depth + 2 == n and not collect
        # a child has depth + 1 entries and so depth + 2 gaps
        full = (1 << (depth + 2)) - 1
        row = depth * n
        allowed = top & ~common
        while allowed:
            bit = allowed & -allowed
            allowed -= bit
            g = bit.bit_length() - 1
            v = g + 1
            child = [x << 1 if x > bit else x for x in pre]
            child.append(bit << 1)
            below = (bit << 1) - 1
            nxt = []
            for entry in active:
                (_, cells, short, uses), forb = entry
                if forb & bit:
                    continue
                # gap g splits around v: bits above g move up one, bit g is copied
                nf = (forb & below) | ((forb >> g) << v)
                if not leaf:
                    f = cells[row + g]
                    if f is None:
                        f = cells[row + g] = _fold(child, short, full)
                    nf |= f
                    for scan, s in uses:
                        # the first set that asks scans this child for all
                        if scan[0] is not child:
                            scan[0] = child
                            scan[1] = _fold(child, scan[2], full)
                        nf |= (scan[1] >> s) & full
                nxt.append((entry[0], nf))
            if last:
                for spec, nf in nxt:
                    spec[0][depth + 1] += 1
                    spec[0][n] += (full & ~nf).bit_count()
            else:
                rec(child, depth + 1, nxt)

    if roots:
        rec([], 0, roots)
    # below the frontier the walk goes to the leaves, in the workers too
    split = -1
    workers = min(jobs, len(frontier))
    if workers > 1:
        _pool(frontier, rec, tallies, workers)
    else:
        for node in frontier:
            rec(*node)
    return tallies, out


def avoiders_by_length(n: int, t: Iterable[Sequence[int]]) -> list[list[Perm]]:
    """Entry m lists the members of S_m avoiding every pattern in t, in walk
    order, for every m = 0..n, from one collecting walk.  Raises ValueError if
    n is not a nonnegative int or a member of t is not a permutation."""
    check_int(n, "n")
    return _walk(n, [pattern_set(t)], collect=True)[1]


def enumerate_avoiders(n: int, t: Iterable[Sequence[int]]) -> list[Perm]:
    """All members of S_n avoiding every pattern in t, in lexicographic order.

    Raises ValueError if n is not a nonnegative int or a member of t is not a
    permutation.
    """
    return sorted(avoiders_by_length(n, t)[n])


# count tables are memoized per pattern set at the largest n seen so far;
# _fill is the only function that writes here
_TABLE_CACHE: dict[PatternSet, tuple[int, ...]] = {}


class WorkerError(RuntimeError):
    """A worker process of ``count_tables`` ended before returning its tables."""


def _compute_counts(sets: Sequence[PatternSet], n_max: int, jobs: int) -> list[tuple[int, ...]]:
    return [tuple(tally) for tally in _walk(n_max, sets, False, jobs)[0]]


def _serve(frontier: list[tuple], rec: Callable, tallies: list[list[int]], tasks: int, out: int) -> None:
    # a forked worker: walk the subtree of each frontier index read from the
    # task pipe, until EOF, then send back the tallies of those subtrees alone
    for tally in tallies:
        tally[:] = [0] * len(tally)
    while index := os.read(tasks, 1):
        rec(*frontier[index[0]])
    with open(out, "wb") as sink:
        marshal.dump(tallies, sink)


def _pool(frontier: list[tuple], rec: Callable, tallies: list[list[int]], workers: int) -> None:
    """Walk the subtrees of the frontier nodes in ``workers`` forked children,
    which take node indices from one shared pipe and send their tallies back
    on pipes of their own, and add those tallies to ``tallies``.  Every index
    is in the task pipe, and its write end closed, before the first fork, so
    no child waits on anything and the result pipes can be read to EOF one
    after another.  Child i is pinned to the i-th CPU of the caller's
    affinity set, round-robin, before it serves, so that a scheduler that
    leaves a forked child on its parent's CPU still runs the children side
    by side; the caller's own affinity is left as it is.  Every child is
    reaped before this returns or raises WorkerError; _serve is looked up at
    call time, so a replacement installed before the fork applies in the
    children, pinned."""
    # one byte per index, at most 120 of them: one write, well below PIPE_BUF
    tasks, w = os.pipe()
    os.write(w, bytes(range(len(frontier))))
    os.close(w)
    # the CPUs the workers are pinned to, round-robin; macOS has no affinity
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    pids: list[int] = []
    sources: list = []
    results: list[bytes] = []
    try:
        for i in range(workers):
            r, w = os.pipe()
            sources.append(open(r, "rb"))
            try:
                pid = os.fork()
            except OSError:
                os.close(w)
                raise
            if pid == 0:
                code = 1
                try:
                    if cpus:
                        os.sched_setaffinity(0, {cpus[i % len(cpus)]})
                    _serve(frontier, rec, tallies, tasks, w)
                    code = 0
                except BaseException as exc:
                    # a child that raises sends back its cause instead
                    os.write(w, f"{type(exc).__name__}: {exc}".encode())
                finally:
                    os._exit(code)
            os.close(w)
            pids.append(pid)
        for source in sources:
            results.append(source.read())
    finally:
        os.close(tasks)
        for source in sources:
            source.close()
        # only an interrupted gather leaves a child running
        for pid in pids[len(results) :]:
            os.kill(pid, signal.SIGKILL)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    # only a child that exited cleanly has sent all its tallies; the others
    # sent their exception, if they raised one
    if any(codes):
        causes = dict.fromkeys(data.decode(errors="replace") for data, code in zip(results, codes) if code and data)
        raise WorkerError("; ".join([f"a count worker process died: exit codes {codes}", *causes]))
    for data in results:
        for tally, part in zip(tallies, marshal.loads(data)):
            tally[:] = [a + b for a, b in zip(tally, part)]


def _fill(sets: Iterable[PatternSet], n_max: int, jobs: Optional[int]) -> None:
    """Make ``_TABLE_CACHE`` hold every set's table to at least ``n_max``."""
    check_int(n_max, "n_max")
    if jobs is not None:
        check_int(jobs, "jobs", 1)
    todo = [t for t in dict.fromkeys(sets) if len(_TABLE_CACHE.get(t, ())) <= n_max]
    if todo:
        _TABLE_CACHE.update(zip(todo, _compute_counts(todo, n_max, jobs or 1)))


def count_table(t: Iterable[Sequence[int]], n_max: int) -> CountTable:
    """Counts |S_n(T)| for n = 0..n_max, from a walk of the set alone.

    The walk visits each avoider of each length n <= n_max exactly once, so
    the number of nodes at depth n is the count itself.  Raises ValueError if
    n_max is not a nonnegative int or a member of t is not a permutation.
    """
    patterns = pattern_set(t)
    _fill([patterns], n_max, None)
    return CountTable(patterns, _TABLE_CACHE[patterns][: n_max + 1])


def count_avoiders(n: int, t: Iterable[Sequence[int]]) -> int:
    """|S_n(T)| without materializing the avoiders."""
    return count_table(t, n).counts[n]


def count_tables(sets: Sequence[Iterable[Sequence[int]]], n_max: int, jobs: Optional[int] = None) -> list[CountTable]:
    """Count tables for many pattern sets, optionally across worker processes.

    Every set is counted in one walk.  With ``jobs`` above 1 and ``os.fork``
    that walk stops at depth 5 (see the module docstring), and up to ``jobs``
    forked worker processes, at most one per node there, walk the subtrees
    below, each pinned to one CPU of the caller's affinity set, round-robin
    (forked children can otherwise stay on the caller's CPU under a cpuset
    with load balancing off); when ``n_max`` is below 7 or only one node is
    there, no worker is forked.  Results come back in input order
    regardless of the worker count, and share the memo of ``count_table``.
    Raises ValueError if ``jobs`` is not an int of at least 1 (None means 1).
    If a worker exits, raises or is
    killed before returning its tables, the call raises ``WorkerError``, a
    ``RuntimeError``, stores nothing and leaves no child process behind; the
    error names the type and message of any exception a worker raised.
    """
    normalized = [pattern_set(t) for t in sets]
    _fill(normalized, n_max, jobs)
    return [CountTable(t, _TABLE_CACHE[t][: n_max + 1]) for t in normalized]
