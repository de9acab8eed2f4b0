"""The seeded query mix: one closed-loop client session of library calls.

Every query is drawn from ``random.Random(seed)`` alone, so a seed fixes the
whole session.  The kinds follow the README's command list.  They were sized
so that the oracle (count, enumerate, classify) takes about a third of the
session, and so that both percentiles land inside one kind, not on the edge
between two kinds.  The 99th percentile lands in ``count-heavy`` and the
median in ``orbit``.

* ``contains`` / ``find`` on permutations of length 20-300.  Half are uniform
  with a planted occurrence, which is found at once.  Half are two
  interleaved monotone runs, where an absent pattern makes the matcher
  exhaust its search.
* ``orbit`` and ``partition`` exercise the symmetry layer.  ``lift``,
  ``lift-power`` (two length-3 patterns lifted twice) and ``redundant``
  exercise the lifting layer.
* ``enumerate`` at n <= 7 uses the collecting search.  ``classify`` runs on
  sets from the catalog's universes.
* ``count`` takes a fresh set: either 2-3 length-3 patterns and at most one
  length-4 pattern at n = 7-8, or 1-2 patterns of length 3-5 at n = 4-6.
* ``count-heavy`` counts every length-4 pattern once, alone, at n = 7.  Each
  search takes about 30 ms, and they all cost nearly the same.
* ``count-repeat`` asks again for a set already counted, at the same or a
  smaller n.  The memo answers it.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

from oracle import count_orbits, parse_set, set_literal

QUERIES = 1500

# (kind, queries of that kind in one session)
KINDS = (
    ("contains", 300),
    ("find", 150),
    ("orbit", 420),
    ("partition", 60),
    ("lift", 75),
    ("lift-power", 120),
    ("redundant", 60),
    ("enumerate", 75),
    ("classify", 60),
    ("count", 120),
    ("count-heavy", 24),  # each length-4 pattern once
    ("count-repeat", 36),
)
assert sum(w for _, w in KINDS) == QUERIES

SYM = {k: list(itertools.permutations(range(1, k + 1))) for k in (3, 4, 5)}


def _pattern_set(rng: random.Random, lengths) -> frozenset:
    """Distinct random patterns, one of each listed length."""
    return frozenset(p for k in set(lengths) for p in rng.sample(SYM[k], lengths.count(k)))


def _perm_and_pattern(rng: random.Random, i: int):
    k = (3, 4, 5)[i // 2 % 3]
    pattern = rng.choice(SYM[k])
    # the matcher's search can grow like length^(k-1), so longer patterns get
    # shorter permutations; this keeps each call under about 20 ms
    if i % 2 == 0:
        # uniform permutation with one occurrence planted at random positions
        length = rng.randint(20, (300, 100, 60)[k - 3])
        perm = list(range(1, length + 1))
        rng.shuffle(perm)
        pos = sorted(rng.sample(range(length), k))
        vals = sorted(perm[j] for j in pos)
        for j, r in zip(pos, pattern):
            perm[j] = vals[r - 1]
    else:
        # two interleaved increasing runs (321-avoiding), or their reverse; an
        # absent pattern makes the matcher try every partial match
        length = rng.randint(20, (80, 30, 24)[k - 3])
        first = set(rng.sample(range(length), rng.randint(1, length - 1)))
        low = sorted(rng.sample(range(1, length + 1), len(first)))
        high = sorted(set(range(1, length + 1)) - set(low))
        a, b = iter(low), iter(high)
        perm = [next(a) if j in first else next(b) for j in range(length)]
        if rng.random() < 0.5:
            perm.reverse()
    return perm, list(pattern)


def _count_set(rng: random.Random, i: int):
    if i % 2 == 0:
        lengths = [3] * rng.randint(2, 3) + [4] * rng.randint(0, 1)
        return _pattern_set(rng, lengths), rng.randint(7, 8)
    lengths = [rng.choice((3, 4, 5)) for _ in range(rng.randint(1, 2))]
    return _pattern_set(rng, lengths), rng.randint(4, 6)


def _enumerate_set(rng: random.Random, i: int):
    if i % 2 == 0:
        lengths = [3] * rng.randint(1, 2) + [rng.choice((4, 5))] * rng.randint(0, 1)
        return _pattern_set(rng, lengths), rng.randint(5, 7)
    lengths = [rng.choice((4, 5)) for _ in range(rng.randint(1, 2))]
    return _pattern_set(rng, lengths), rng.randint(4, 5)


def generate(seed: int) -> list[dict]:
    """The session's queries, in the order the client sends them.

    Within a kind the variants alternate by index rather than by coin flip,
    so every seed has the same number of each; the seed picks the order,
    the sizes and the patterns.
    """
    rng = random.Random(seed)
    kinds = [k for k, w in KINDS for _ in range(w)]
    rng.shuffle(kinds)
    # a repeat needs an earlier count; swap the first count to the front
    first = min(i for i, k in enumerate(kinds) if k == "count")
    kinds[0], kinds[first] = kinds[first], kinds[0]
    counted: list[tuple[frozenset, int]] = []
    heavy = iter(rng.sample(SYM[4], len(SYM[4])))
    seen: Counter = Counter()
    out = []
    for kind in kinds:
        i = seen[kind]
        seen[kind] += 1
        q: dict = {"kind": kind}
        if kind in ("contains", "find"):
            q["perm"], q["pattern"] = _perm_and_pattern(rng, i)
        elif kind == "orbit":
            q["set"] = set_literal(_pattern_set(rng, [rng.choice((3, 4)) for _ in range(i % 3 + 1)]))
        elif kind == "partition":
            q["sets"] = [
                set_literal(_pattern_set(rng, [rng.choice((3, 4)) for _ in range(rng.randint(1, 3))]))
                for _ in range(rng.randint(4, 10))
            ]
        elif kind == "lift":
            q["set"] = set_literal(_pattern_set(rng, [3 + i % 2] * rng.randint(1, 3)))
        elif kind == "lift-power":
            q["set"], q["power"] = set_literal(_pattern_set(rng, [3, 3])), 2
        elif kind == "redundant":
            q["alpha"] = list(rng.choice(SYM[3]))
            q["tau"] = list(rng.choice(SYM[4 + i % 2]))
        elif kind == "enumerate":
            s, n = _enumerate_set(rng, i)
            q["set"], q["n"] = set_literal(s), n
        elif kind == "classify":
            q["set"] = set_literal(_pattern_set(rng, [3] * rng.randint(1, 6) + [4]))
            q["n"] = rng.randint(5, 7)
        elif kind in ("count", "count-heavy"):
            s, n = _count_set(rng, i) if kind == "count" else (frozenset({next(heavy)}), 7)
            q["set"], q["n"] = set_literal(s), n
            counted.append((s, n))
        else:
            s, n = rng.choice(counted)
            q["set"], q["n"] = set_literal(s), rng.randint(max(1, n - 2), n)
        out.append(q)
    return out


def properties(queries: list[dict]) -> dict:
    """Exact workload properties that later changes can cite."""
    kinds = Counter(q["kind"] for q in queries)
    counts = [q for q in queries if q["kind"].startswith("count")]
    best: dict = {}
    repeats = 0
    for q in counts:
        if best.get(q["set"], -1) >= q["n"]:
            repeats += 1
        best[q["set"]] = max(best.get(q["set"], -1), q["n"])
    sets = {parse_set(q["set"]) for q in queries if "set" in q}
    for q in queries:
        sets.update(parse_set(t) for t in q.get("sets", ()))
    return {
        "queries": len(queries),
        "kind_counts": dict(sorted(kinds.items())),
        "kind_shares": {k: round(v / len(queries), 4) for k, v in sorted(kinds.items())},
        "count_queries": len(counts),
        "repeat_share": round(repeats / len(counts), 4),
        "long_pattern_share": round(
            sum(1 for q in counts if any(len(t) >= 5 for t in q["set"].split(";"))) / len(counts), 4
        ),
        "distinct_sets": len(sets),
        "distinct_orbits": count_orbits(sets),
        "n_distribution": {
            k: dict(sorted(Counter(q["n"] for q in queries if q["kind"] == k).items()))
            for k in ("count", "count-heavy", "count-repeat", "enumerate", "classify")
        },
        "perm_lengths": {
            "min": min(len(q["perm"]) for q in queries if "perm" in q),
            "max": max(len(q["perm"]) for q in queries if "perm" in q),
        },
    }
