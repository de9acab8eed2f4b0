"""Shared brute-force oracles, kept independent of the package internals.

``std`` and ``brute_contains`` reimplement standardization and containment
from the definitions (sort-and-rank, scan over all subsequences), so tests
that compare the library against them are genuine cross-checks rather than
the same code calling itself.  ``PATTERN_SETS`` is the hypothesis strategy
the property tests share: sets of 1-3 patterns of length 1-6.
``dying_worker`` is the one fixture that reaches into the package: it makes
a count worker die, to check that the caller gets an error instead of a hang.
"""

import itertools
import os
import signal

import pytest
from hypothesis import strategies as st

from permpat import enumeration

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


@pytest.fixture
def dying_worker(monkeypatch, request):
    """Forked count workers exit at once, before walking any subtree.

    With the indirect parameter "raise" they raise instead of exiting.  Only
    the forked children run the replaced worker body, so the test process
    itself still counts.  The memo starts empty, so every set is searched,
    and is the value of the fixture.  The test fails after 20 s instead of
    hanging if the caller never notices the dead worker.
    """
    if not hasattr(os, "fork"):
        pytest.skip("the replacement reaches the workers only when they are forked")
    raises = getattr(request, "param", "exit") == "raise"

    def serve(*args):
        if raises:
            raise RuntimeError("a count worker raised")
        os._exit(9)

    def expire(signum, frame):
        pytest.fail("still blocked 20 s after a worker died")

    cache = {}
    monkeypatch.setattr(enumeration, "_TABLE_CACHE", cache)
    monkeypatch.setattr(enumeration, "_serve", serve)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    yield cache
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
