import itertools
import marshal
import os
import random
import signal
import subprocess
import sys
import time
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permpat import enumeration
from permpat.enumeration import (
    _TABLE_CACHE,
    avoiders_by_length,
    count_avoiders,
    count_table,
    count_tables,
    enumerate_avoiders,
)
from permpat.lifting import superpatterns
from permpat.perms import all_permutations, avoids_all, contains, find_occurrence, parse_pattern_set
from permpat.symmetry import orbit

from conftest import PATTERN_SETS, naive_avoiders

S3 = list(all_permutations(3))
S4 = list(all_permutations(4))


def test_enumerate_examples():
    assert enumerate_avoiders(3, S3) == []
    assert len(enumerate_avoiders(5, [(1, 3, 2)])) == 42
    four = enumerate_avoiders(4, parse_pattern_set("123;132;213;3421"))
    assert set(four) == {(3, 4, 1, 2), (4, 2, 3, 1), (4, 3, 1, 2), (4, 3, 2, 1)}


def test_enumerate_lexicographic_and_deterministic():
    t = parse_pattern_set("132;3214")
    out = enumerate_avoiders(6, t)
    assert out == sorted(out)
    assert out == enumerate_avoiders(6, t)


def test_count_examples():
    assert count_avoiders(6, parse_pattern_set("123;321")) == 0
    assert count_avoiders(4, parse_pattern_set("123;132;3412")) == 7
    assert count_avoiders(5, parse_pattern_set("132;213;2341")) == 12


def test_count_table_examples():
    ct = count_table(parse_pattern_set("123;132;3241"), 5)
    assert ct.counts[4] == 7 and ct.counts[5] == 12
    assert count_table(parse_pattern_set("123;312;1432"), 3).counts[3] == 4
    assert count_table(frozenset(), 4).counts == (1, 1, 2, 6, 24)


def test_count_table_bounds():
    for t in (parse_pattern_set("132"), parse_pattern_set("123;3412"), frozenset()):
        ct = count_table(t, 6)
        assert ct.counts[0] == 1
        assert all(ct.counts[n] <= factorial(n) for n in range(7))


def test_degenerate_patterns():
    assert enumerate_avoiders(0, [()]) == []
    assert count_table([()], 3).counts == (0, 0, 0, 0)
    assert enumerate_avoiders(0, [(1,)]) == [()]
    assert count_table([(1,)], 3).counts == (1, 0, 0, 0)
    assert count_table([(1, 2)], 5).counts == (1, 1, 1, 1, 1, 1)
    assert count_table([(1, 2), (2, 1)], 4).counts == (1, 1, 0, 0, 0)


def test_oracle_soundness_and_completeness():
    for r in range(1, 7):
        for t in itertools.combinations(S3, r):
            for n in range(6):
                got = enumerate_avoiders(n, t)
                assert all(avoids_all(p, t) for p in got)
                assert got == naive_avoiders(n, t)


def test_random_mixed_sets_match_naive():
    rng = random.Random(41)
    for _ in range(15):
        t = rng.sample(S3, rng.randint(0, 2)) + rng.sample(S4, rng.randint(1, 2))
        for n in range(6):
            assert enumerate_avoiders(n, t) == naive_avoiders(n, t)


@settings(deadline=None, max_examples=60)
@given(PATTERN_SETS)
def test_random_sets_match_naive(t):
    table = count_table(t, 6).counts
    for n in range(7):
        naive = naive_avoiders(n, t)
        assert enumerate_avoiders(n, t) == naive
        assert table[n] == len(naive)


@settings(deadline=None, max_examples=60)
@given(PATTERN_SETS, st.integers(0, 6))
def test_collecting_walk_lists_every_length(t, n):
    # one walk to depth n lists the avoiders of every shorter length too, as
    # many at each length as the count walk tallies there
    avoiders = avoiders_by_length(n, t)
    assert len(avoiders) == n + 1
    counts = count_table(t, n).counts
    for m in range(n + 1):
        assert sorted(avoiders[m]) == naive_avoiders(m, t)
        assert counts[m] == len(avoiders[m])


@settings(deadline=None, max_examples=10)
@given(st.lists(PATTERN_SETS, min_size=1, max_size=4))
def test_count_tables_pool_matches_serial_from_cold_cache(sets):
    # {123} has 42 avoiders of length 5, so the walk to n = 7 leaves a
    # frontier of at least 42 nodes at depth 5 and jobs=2 starts a pool
    sets = sets + [{(1, 2, 3)}, {(2, 1), (1, 2, 3, 4)}]
    _TABLE_CACHE.clear()
    pooled = count_tables(sets, 7, jobs=2)
    _TABLE_CACHE.clear()
    serial = count_tables(sets, 7, jobs=1)
    assert [ct.counts for ct in pooled] == [ct.counts for ct in serial]


@st.composite
def chunk_batches(draw):
    # sets sharing their length-3 patterns T, mixed with unrelated sets in any
    # order; a serial call counts them all in one walk
    t = draw(st.frozensets(st.sampled_from(S3), max_size=3))
    taus = draw(st.lists(st.sampled_from(S4), min_size=1, max_size=6, unique=True))
    loose = draw(st.lists(PATTERN_SETS, min_size=max(0, 2 - len(taus)), max_size=10 - len(taus)))
    return draw(st.permutations([t | {tau} for tau in taus] + loose))


@settings(deadline=None, max_examples=40)
@given(chunk_batches(), st.integers(0, 6))
def test_chunk_walk_matches_naive(batch, n):
    _TABLE_CACHE.clear()
    tables = count_tables(batch, n, jobs=1)
    for s, table in zip(batch, tables):
        assert table.counts[n] == len(naive_avoiders(n, s))


def _extend(q, r):
    # the pattern that ends in rank r after the entries of q, that is q + (r,)
    return tuple(x + (x >= r) for x in q) + (r,)


@st.composite
def shared_q_batches(draw):
    # several short-pattern sets T whose long patterns all end in one q, so
    # one walk scans each node once for q on behalf of all of them: one set
    # asks two ranks of q (as {1234, 1243} does of 123), another a rank that
    # the first does not ask, and a q of length 4 gives length-5 patterns,
    # which go through the nested-slot scan
    q = draw(st.sampled_from(S3 + S4))
    ranks = st.integers(1, len(q) + 1)
    two = draw(st.lists(ranks, min_size=2, max_size=2, unique=True))
    other = draw(ranks.filter(lambda r: r not in two))
    more = draw(st.lists(st.frozensets(ranks, min_size=1), max_size=3))
    shorts = draw(st.lists(st.frozensets(st.sampled_from(S3), max_size=3), min_size=2, max_size=4, unique=True))
    asks = [two, [other], *more]
    batch = [t | {_extend(q, r) for r in rs} for t, rs in zip(itertools.cycle(shorts), asks)]
    return draw(st.permutations(batch + draw(st.lists(PATTERN_SETS, max_size=3))))


@settings(deadline=None, max_examples=25)
@given(shared_q_batches(), st.integers(3, 6))
def test_shared_scan_walk_matches_naive(batch, n):
    # the pool forks only for n >= 7, beyond the naive oracle's reach, so its
    # tables at n = 7 must equal the serial ones and hold the naive count at n
    expected = [len(naive_avoiders(n, s)) for s in batch]
    _TABLE_CACHE.clear()
    assert [t.counts[n] for t in count_tables(batch, n, jobs=1)] == expected
    tables = []
    for jobs in (1, 2):
        _TABLE_CACHE.clear()
        tables.append([t.counts for t in count_tables(batch, 7, jobs=jobs)])
    assert tables[1] == tables[0]
    assert [counts[n] for counts in tables[1]] == expected


def _representatives():
    from permpat.catalog import expand_universe
    from permpat.symmetry import partition_into_classes

    return [o.representative for o in partition_into_classes(s for tid in (1, 2, 3, 4) for s in expand_universe(tid))]


def test_one_walk_of_the_representatives_matches_their_own_walks(monkeypatch):
    # verify counts its 283 orbit representatives in one walk when serial;
    # each set's table from that walk equals the table of a walk of it alone
    reps = _representatives()
    walks = []
    real = enumeration._compute_counts

    def recording(sets, n_max, jobs):
        walks.append(len(sets))
        return real(sets, n_max, jobs)

    monkeypatch.setattr(enumeration, "_compute_counts", recording)
    monkeypatch.setattr(enumeration, "_TABLE_CACHE", {})
    together = [t.counts for t in count_tables(reps, 7, jobs=1)]
    assert walks == [283]
    for s, counts in zip(reps, together):
        enumeration._TABLE_CACHE.clear()
        assert count_table(s, 7).counts == counts


def test_degenerate_sets_share_a_walk_with_ordinary_ones():
    # one walk of all five sets; the empty pattern and the single point end
    # their own branches
    batch = [parse_pattern_set(lit) for lit in ("1234", "123;132", "2143;3412")]
    batch[1:1] = [frozenset({()}), frozenset({(1,)})]
    _TABLE_CACHE.clear()
    walked = enumeration._compute_counts(batch, 6, 1)
    assert walked[1] == (0,) * 7
    assert walked[2] == (1,) + (0,) * 6
    for s, counts in zip(batch, walked):
        assert counts == tuple(len(naive_avoiders(n, s)) for n in range(7))
    assert [t.counts for t in count_tables(batch, 6, jobs=1)] == walked
    # the frontier nodes carry only the sets still active there, and the
    # empty pattern set is active everywhere
    _TABLE_CACHE.clear()
    pooled = [t.counts[:7] for t in count_tables([frozenset(), *batch], 7, jobs=2)]
    assert pooled == [(1, 1, 2, 6, 24, 120, 720), *walked]


def test_jobs_below_one_rejected():
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs"):
            count_tables([{(1, 2, 3)}], 5, jobs=jobs)
    assert count_tables([{(1, 2, 3)}], 5, jobs=None)[0].counts[5] == 42


def test_malformed_patterns_rejected():
    # the oracle reads pattern entries as ranks, so a non-permutation must raise
    with pytest.raises(ValueError):
        count_table({(2, 4, 3), (1, 2, 3)}, 6)
    with pytest.raises(ValueError):
        count_table({(1, 3, 3, 5, 4)}, 6)
    # entries that equal ints but are not: True == 1, and 2.0 == 2
    with pytest.raises(ValueError):
        count_table([(True, 2)], 4)
    with pytest.raises(ValueError):
        count_table([(1, 2.0)], 3)
    with pytest.raises(ValueError):
        contains((1, 2, 3), (5, 5))
    with pytest.raises(ValueError):
        enumerate_avoiders(4, [(2, 4, 3)])
    with pytest.raises(ValueError):
        find_occurrence((1, 2, 3), (5, 5))
    with pytest.raises(ValueError):
        avoids_all((1, 2, 3), [(5, 5)])
    with pytest.raises(ValueError):
        superpatterns((5, 5), 3)
    # a repeated letter in the permutation searched is rejected too
    with pytest.raises(ValueError):
        contains((1, 1), (1, 2))
    with pytest.raises(ValueError):
        contains((1, 2, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        find_occurrence((2, 2, 1), (1, 2))
    with pytest.raises(ValueError):
        avoids_all((1, 1), [(1, 2)])


def test_table_matches_direct_enumeration_per_n():
    # the one-pass table reads every length off the depths of one search at
    # n_max; check each length against the naive oracle
    for lit in ("132", "123;3412", "132;213;2341", "2143;1234"):
        t = parse_pattern_set(lit)
        ct = count_table(t, 7)
        for n in range(8):
            assert ct.counts[n] == len(naive_avoiders(n, t))


def test_long_patterns():
    # a pattern of length k places k-3 slots by position before its free
    # slot: length 5 nests two scans, length 6 three
    for n in (5, 6):
        assert enumerate_avoiders(n, [(1, 2, 3, 4, 5)]) == naive_avoiders(n, [(1, 2, 3, 4, 5)])
        assert enumerate_avoiders(n, [(2, 1, 4, 3, 5)]) == naive_avoiders(n, [(2, 1, 4, 3, 5)])
    assert enumerate_avoiders(7, [(2, 5, 1, 6, 3, 4)]) == naive_avoiders(7, [(2, 5, 1, 6, 3, 4)])


def test_double_lift_avoiders_at_threshold():
    # the two-step lift of a single length-3 pattern consists of length-5
    # patterns and has the same avoiders from n = 6 on
    from permpat.lifting import lift_power

    lifted = lift_power([(1, 2, 3)], 2)
    assert all(len(p) == 5 for p in lifted)
    assert enumerate_avoiders(6, lifted) == enumerate_avoiders(6, [(1, 2, 3)])


def test_count_monotone_in_pattern_set():
    t1 = parse_pattern_set("132")
    t2 = parse_pattern_set("132;2143")
    t3 = parse_pattern_set("132;2143;321")
    for n in range(8):
        a, b, c = (count_avoiders(n, t) for t in (t1, t2, t3))
        assert a >= b >= c


def test_counts_equal_across_orbit():
    o = orbit(parse_pattern_set("123;132;3214"))
    tables = {m: count_table(m, 7).counts for m in o.members}
    assert len(set(tables.values())) == 1


def test_count_tables_batch_parallel():
    sets = [parse_pattern_set(lit) for lit in ("132", "123;321", "132;213;2341", "132")]
    serial = count_tables(sets, 6)
    parallel = count_tables(sets, 6, jobs=2)
    assert [ct.counts for ct in serial] == [ct.counts for ct in parallel]
    assert serial[0].counts == serial[3].counts


def test_insert_max_preserves_containment():
    patterns = S3 + S4
    for p in all_permutations(5):
        present = [tau for tau in patterns if contains(p, tau)]
        for j in range(6):
            # the new maximum 6 inserted before position j
            q = p[:j] + (6,) + p[j:]
            for tau in present:
                assert contains(q, tau)


def test_negative_n_rejected():
    with pytest.raises(ValueError):
        enumerate_avoiders(-1, [(1, 2)])
    with pytest.raises(ValueError):
        count_table([(1, 2)], -1)
    for jobs in (1, 2):
        with pytest.raises(ValueError):
            count_tables([{(1, 2)}], -1, jobs=jobs)


def test_dead_worker_raises(dying_worker):
    # a worker that dies must end the call with an error, not hang it, and
    # the memo must not gain a partial answer; the walk to n = 7 leaves a
    # frontier of the avoiders of 132, 123 or 213 of length 5, so a pool
    sets = [{(1, 3, 2)}, {(1, 2, 3)}, {(2, 1, 3)}, {(2, 1), (1, 2, 3, 4)}]
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="worker process died"):
        count_tables(sets, 7, jobs=2)
    assert time.monotonic() - started < 5
    assert dying_worker == {}


def _in_process_pool(calls):
    # a replacement for _pool that records (frontier nodes, workers) and walks
    # the subtrees in this process, adding to the walk's own tallies
    def pool(frontier, rec, tallies, workers):
        calls.append((len(frontier), workers))
        for node in frontier:
            rec(*node)

    return pool


def test_pool_starts_no_more_workers_than_frontier_nodes(monkeypatch):
    # the pool forks all its workers at once, so their number must be capped
    # by the number of frontier nodes at depth 5, and a frontier of one node
    # needs none; nor does a walk to n <= 6, which never reaches depth 5.  The
    # avoiders of {123, 132, 213} are counted by the Fibonacci numbers, 8 of
    # them of length 5, and the identity is the only avoider of 21
    calls = []
    monkeypatch.setattr(enumeration, "_pool", _in_process_pool(calls))
    monkeypatch.setattr(enumeration, "_TABLE_CACHE", {})
    assert count_tables([{(2, 1)}, {(2, 1), (1, 2, 3, 4)}], 9, jobs=64)[0].counts[9] == 1
    assert count_tables(_representatives(), 6, jobs=64)[0].counts[6] > 0
    assert calls == []
    fibonacci = [{(1, 2, 3), (1, 3, 2), (2, 1, 3)}]
    assert count_tables(fibonacci, 7, jobs=64)[0].counts == (1, 1, 2, 3, 5, 8, 13, 21)
    enumeration._TABLE_CACHE.clear()
    assert count_tables(fibonacci, 8, jobs=2)[0].counts[8] == 34
    assert calls == [(8, 8), (8, 2)]


def test_pool_subtrees_scan_as_often_as_one_walk(monkeypatch):
    # the pool splits the one walk of all 283 representatives by subtree, so
    # walking the frontier's subtrees one by one scans each node once per q,
    # exactly as the one walk does
    reps = _representatives()
    real_scan, scans, calls = enumeration._scan, [], []

    def counting_scan(child, plan, slot, start):
        scans[-1] += 1
        return real_scan(child, plan, slot, start)

    monkeypatch.setattr(enumeration, "_scan", counting_scan)
    monkeypatch.setattr(enumeration, "_pool", _in_process_pool(calls))
    tables = []
    for jobs in (1, 2):
        monkeypatch.setattr(enumeration, "_TABLE_CACHE", {})
        scans.append(0)
        tables.append([t.counts for t in count_tables(reps, 7, jobs=jobs)])
    assert len(calls) == 1 and calls[0][0] > 1
    assert scans[0] > 0 and scans[1] == scans[0]
    assert tables[1] == tables[0]


def _no_child_left():
    # waitpid on any child raises only when this process has none at all
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pool_reaps_every_worker(monkeypatch):
    monkeypatch.setattr(enumeration, "_TABLE_CACHE", {})
    sets = [{(1, 3, 2)}, {(1, 2, 3)}, {(2, 1, 3)}, {(2, 1), (1, 2, 3, 4)}]
    assert [t.counts[7] for t in count_tables(sets, 7, jobs=2)] == [429, 429, 429, 0]
    _no_child_left()


@pytest.mark.parametrize("dying_worker", ["exit", "raise"], indirect=True)
def test_failed_worker_raises_and_leaves_no_child(dying_worker):
    # a worker that raises ends the call as one that exits does, and either
    # way every worker has been reaped when WorkerError reaches the caller
    sets = [{(1, 3, 2)}, {(1, 2, 3)}, {(2, 1, 3)}, {(2, 1), (1, 2, 3, 4)}]
    started = time.monotonic()
    with pytest.raises(enumeration.WorkerError, match="worker process died"):
        count_tables(sets, 7, jobs=2)
    assert time.monotonic() - started < 5
    assert dying_worker == {}
    _no_child_left()


def test_pool_streams_more_results_than_a_pipe_holds(monkeypatch):
    # each worker sends back the tallies of every set of the walk: 3,000 sets
    # {12, 21, q} that die at depth 2, plus {123}, which reaches the split,
    # make records beyond the 64 KiB a Linux pipe holds, so a worker blocks
    # on its full pipe until the parent reads it, and the parent reads one
    # pipe at a time
    sets = [{(1, 2), (2, 1), q} for q in itertools.islice(all_permutations(7), 3000)] + [{(1, 2, 3)}]
    assert len(marshal.dumps([[0] * 8 for _ in sets])) > 1 << 16

    def expire(signum, frame):
        pytest.fail("the pool was still blocked after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        monkeypatch.setattr(enumeration, "_TABLE_CACHE", {})
        pooled = count_tables(sets, 7, jobs=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    monkeypatch.setattr(enumeration, "_TABLE_CACHE", {})
    assert pooled == count_tables(sets, 7, jobs=1)
    assert {t.counts for t in pooled[:-1]} == {(1, 1) + (0,) * 6}
    assert pooled[-1].counts[7] == 429
    _no_child_left()


def test_pool_imports_no_process_pool_machinery():
    # the workers are forked directly, so a pooled call in a fresh interpreter
    # loads neither multiprocessing nor concurrent.futures
    src = Path(enumeration.__file__).resolve().parent.parent
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from permpat import count_tables\n"
        "tables = count_tables([{(1, 2, 3)}, {(2, 1), (1, 2, 3, 4)}], 7, jobs=2)\n"
        "assert [t.counts[7] for t in tables] == [429, 0]\n"
        "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
