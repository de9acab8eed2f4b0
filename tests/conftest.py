"""Shared brute-force oracles, kept independent of the package internals.

``std`` and ``brute_contains`` reimplement standardization and containment
from the definitions (sort-and-rank, scan over all subsequences), so tests
that compare the library against them are genuine cross-checks rather than
the same code calling itself.  ``PATTERN_SETS`` is the hypothesis strategy
the property tests share: sets of 1-3 patterns of length 1-6.
"""

import itertools

from hypothesis import strategies as st

PATTERNS = st.integers(1, 6).flatmap(lambda k: st.permutations(range(1, k + 1))).map(tuple)
PATTERN_SETS = st.frozensets(PATTERNS, min_size=1, max_size=3)


def std(word):
    rank = {v: i + 1 for i, v in enumerate(sorted(word))}
    return tuple(rank[v] for v in word)


def brute_contains(perm, pattern):
    k = len(pattern)
    if k == 0:
        return True
    if k > len(perm):
        return False
    target = std(pattern)
    return any(std(sub) == target for sub in itertools.combinations(perm, k))


def naive_avoiders(n, patterns):
    patterns = [tuple(p) for p in patterns]
    return [
        p
        for p in itertools.permutations(range(1, n + 1))
        if not any(brute_contains(p, pat) for pat in patterns)
    ]
