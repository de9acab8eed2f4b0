"""The benchmark's own brute-force checker, independent of the package code.

Nothing here imports ``permpat``.  Standardization is sort-and-rank,
containment is a search over index subsequences, symmetries are written out
from their definitions, and avoider sets are built by inserting the new
maximum into every avoider one shorter (deleting the maximum of an avoider
leaves an avoider, so this misses none) and testing each candidate against the
patterns from the definition.  Answers from the package are compared against
these, so a wrong answer is caught rather than confirmed by the same code.
"""

from __future__ import annotations

import itertools

# reverse, complement, inverse and their compositions: the 8 symmetries of
# the square, all of which preserve the number of avoiders
SYMMETRIES = ("r", "c", "i", "rc", "ri", "ci", "rci")


def std(word):
    rank = {v: i + 1 for i, v in enumerate(sorted(word))}
    return tuple(rank[v] for v in word)


def literal(p) -> str:
    return "".join(map(str, p))


def set_literal(s) -> str:
    return ";".join(literal(p) for p in sorted(s, key=lambda p: (len(p), p)))


def parse_set(text: str) -> frozenset:
    return frozenset(tuple(int(ch) for ch in tok) for tok in text.split(";"))


def set_key(s):
    # cardinality, then the patterns ordered by length and one-line word
    return (len(s), tuple(sorted(s, key=lambda p: (len(p), p))))


def apply_sym(ops: str, p):
    for ch in ops:
        n = len(p)
        if ch == "r":
            p = p[::-1]
        elif ch == "c":
            p = tuple(n + 1 - v for v in p)
        else:
            inv = [0] * n
            for j, v in enumerate(p):
                inv[v - 1] = j + 1
            p = tuple(inv)
    return p


def orbit_members(s) -> frozenset:
    s = frozenset(s)
    return frozenset({s} | {frozenset(apply_sym(ops, p) for p in s) for ops in SYMMETRIES})


def count_orbits(sets) -> int:
    seen, orbits = set(), 0
    for s in sets:
        if s not in seen:
            orbits += 1
            seen |= orbit_members(s)
    return orbits


def occurrence(perm, pattern):
    """Lexicographically least 1-based index list of an occurrence, or None.

    Positions are tried left to right and a partial choice is kept only while
    its values compare pairwise as the pattern's do, so the first complete
    choice found is the least one.
    """
    k, n = len(pattern), len(perm)
    chosen: list[int] = []

    def extend(start: int) -> bool:
        slot = len(chosen)
        if slot == k:
            return True
        want = pattern[slot]
        for pos in range(start, n - (k - slot) + 1):
            x = perm[pos]
            if all((x < perm[c]) == (want < pattern[i]) for i, c in enumerate(chosen)):
                chosen.append(pos)
                if extend(pos + 1):
                    return True
                chosen.pop()
        return False

    return tuple(c + 1 for c in chosen) if extend(0) else None


def brute_contains(perm, pattern) -> bool:
    k = len(pattern)
    return any(std(sub) == pattern for sub in itertools.combinations(perm, k))


class Avoiders:
    """Avoider sets of pattern sets, memoized per set and length."""

    def __init__(self):
        self._memo: dict = {}

    def of(self, patterns, n: int) -> list:
        """All avoiders of length n, in lexicographic order."""
        patterns = frozenset(patterns)
        rows = self._memo.setdefault(patterns, [[()]])
        while len(rows) <= n:
            m = len(rows)
            rows.append(sorted(
                cand
                for q in rows[-1]
                for j in range(m)
                for cand in [q[:j] + (m,) + q[j:]]
                if not _creates(cand, j, patterns)
            ))
        return rows[n]


def _creates(cand, j: int, patterns) -> bool:
    # cand extends an avoider, so any occurrence must use position j (the max)
    for pat in patterns:
        k = len(pat)
        if k > len(cand):
            continue
        for idx in itertools.combinations(range(len(cand)), k):
            if j in idx and std([cand[i] for i in idx]) == pat:
                return True
    return False


def superpattern_set(patterns, m: int) -> frozenset:
    """All permutations of length m containing some pattern of the set."""
    return frozenset(
        p for p in itertools.permutations(range(1, m + 1))
        if any(brute_contains(p, pat) for pat in patterns)
    )


def _orbit_answer(s):
    members = orbit_members(s)
    return {"rep": set_literal(min(members, key=set_key)), "members": sorted(set_literal(m) for m in members)}


def answer(q: dict, avoiders: Avoiders):
    """The right answer to one query of the mix, in the session's JSON form."""
    kind = q["kind"]
    if kind in ("contains", "find"):
        occ = occurrence(tuple(q["perm"]), tuple(q["pattern"]))
        if kind == "contains":
            return occ is not None
        return None if occ is None else list(occ)
    if kind == "redundant":
        return brute_contains(tuple(q["tau"]), tuple(q["alpha"]))
    if kind == "partition":
        orbits = {}
        for text in q["sets"]:
            o = _orbit_answer(parse_set(text))
            orbits[o["rep"]] = o
        return [orbits[r] for r in sorted(orbits, key=lambda r: set_key(parse_set(r)))]
    s = parse_set(q["set"])
    if kind == "orbit":
        return _orbit_answer(s)
    if kind in ("lift", "lift-power"):
        k = len(next(iter(s)))
        image = set_literal(superpattern_set(s, k + q.get("power", 1)))
        return {"source": q["set"], "image": image} if kind == "lift" else image
    if kind == "enumerate":
        return [literal(p) for p in avoiders.of(s, q["n"])]
    if kind == "classify":
        threes = sum(1 for p in s if len(p) == 3)
        return {
            "set": q["set"],
            "counts": [len(avoiders.of(s, m)) for m in range(q["n"] + 1)],
            # the catalog leaves uncovered only the sets holding all six
            "table": None if threes == 6 else min(threes, 4),
        }
    # counts are equal across an orbit, so count one member for all of it
    return len(avoiders.of(min(orbit_members(s), key=set_key), q["n"]))
