"""Mutation check of the tier-1 tests.

    python tests/mutants.py

Run from the root of a checkout.  Each entry of ``MUTANTS`` is (name, file,
old text, new text, reason).  For each one the script copies the checkout to
a temporary directory, replaces the one occurrence of the old text in the
copy, and runs tier-1 there with ``-x``.  Tier-1 must fail: the mutant is
then killed.  Each entry of ``EQUIVALENT`` has the same form, but its change
cannot alter any result, for the reason given, so tier-1 must pass.  An entry
whose old text does not occur exactly once fails the script, so a refactor
that moves the code must carry its mutants along.  The unmutated copy must
pass first, or no verdict means anything.

The exit status is 0 when every entry behaves as listed and 1 otherwise.
The file is not named ``test_*``, so pytest does not collect it, and it
never edits a test.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench", "*.egg-info")

ENUMERATION = "src/permpat/enumeration.py"
CATALOG = "src/permpat/catalog.py"

MUTANTS = [
    ("gap-split", ENUMERATION,
     "nf = (forb & below) | ((forb >> g) << v)",
     "nf = (forb & below) | ((forb >> g) << g)",
     "a child's mask must move the bits above the split gap up by one"),
    ("free-slot-ends-swapped", ENUMERATION,
     "                val[k - 2] = cand & -cand\n                val[k + 2] = 1 << (cand.bit_length() - 1)\n",
     "                val[k - 2] = 1 << (cand.bit_length() - 1)\n                val[k + 2] = cand & -cand\n",
     "an interval ending at the free slot needs its least candidate below, its greatest above"),
    ("root-mask-zero", ENUMERATION,
     "roots.append((spec, int((1,) in patterns)))",
     "roots.append((spec, 0))",
     "a length-1 pattern forbids the root's only gap"),
    ("collect-only-depth-n", ENUMERATION,
     "        if collect:\n",
     "        if collect and depth == n:\n",
     "the explicit-family check reads the avoiders of every length from one walk"),
    ("orbit-chain-six-steps", "src/permpat/symmetry.py",
     'accumulate("riririr",',
     'accumulate("ririri",',
     "six steps of r and i miss the eighth symmetry of the square"),
    ("contains-facts-reversed", CATALOG,
     "_CONTAINS = {(tau, a): contains(tau, a) for tau in S4 for a in S3}",
     "_CONTAINS = {(tau, a): contains(a, tau) for tau in S4 for a in S3}",
     "the predicate rows ask whether the length-4 pattern contains a length-3 one"),
    ("formula-values-by-row", CATALOG,
     "    claimed = {s: e.formula for s, e in entries.items() if e is not None}\n"
     "    values = {f: tuple(evaluate(f, n) for n in range(1, n_max + 1)) for f in set(claimed.values())}\n",
     "    claimed = {s: e.row_id for s, e in entries.items() if e is not None}\n"
     "    values = {e.row_id: tuple(evaluate(e.formula, n) for n in range(1, n_max + 1)) for e in entries.values() if e}\n",
     "some explicit families differ from their row's formula below the threshold, and each set's "
     "values must be its own formula's"),
    ("shared-scan-reused-for-sibling", ENUMERATION,
     "if scan[0] is not child:",
     "if scan[0] is None or len(scan[0]) != len(child):",
     "a shared scan belongs to one child; a sibling has as many entries but other values"),
    ("shared-scan-neighbouring-rank", ENUMERATION,
     "(union[q] & ((1 << j) - 1)).bit_count() * n",
     "(union[q] & ((2 << j) - 1)).bit_count() * n",
     "each set reads the slice of the packed scan that holds its own rank's interval"),
    ("shared-scan-slices-overlap", ENUMERATION,
     "_plan(q, union[q], n)]",
     "_plan(q, union[q], n - 1)]",
     "a folded child has up to n gaps, so slices n - 1 bits apart run into each other"),
    ("worker-exit-code-unchecked", ENUMERATION,
     "    if any(codes):\n",
     "    if False:\n",
     "a worker that died sent no tallies, and the call must raise WorkerError"),
    ("worker-keeps-inherited-tallies", ENUMERATION,
     "        tally[:] = [0] * len(tally)\n",
     "        tally[:] = tally\n",
     "the tallies above the split are the parent's, so a worker that sends them back counts them twice"),
    ("split-active-in-workers", ENUMERATION,
     "    split = -1\n",
     "    split = split\n",
     "below the frontier the walk must go to the leaves, or no node deeper than the split is counted"),
    ("inflate-run-too-long", "src/permpat/formulas.py",
     "range(v + shift, v - 1, -1) if descending",
     "range(v + shift + 1, v - 1, -1) if descending",
     "a descending run one entry too long is not a permutation of 1..n"),
    ("family-run-direction-flipped", CATALOG,
     '"123;132;231;3214": (((4, 2, 1, 3), 0, True),',
     '"123;132;231;3214": (((4, 2, 1, 3), 0, False),',
     "an explicit family must equal the oracle's avoider set, not only its size"),
    ("counts-to-next-orbit", CATALOG,
     "for o, table in zip(orbits, tables) for m in o.members",
     "for o, table in zip(orbits, tables[1:] + tables[:1]) for m in o.members",
     "each orbit's members must get that orbit's own count table"),
    ("csv-verdict-inverted", CATALOG,
     '"mismatch" if n in p.mismatch_ns else "match"',
     '"match" if n in p.mismatch_ns else "mismatch"',
     "the CSV grid must say mismatch exactly where the formula disagrees"),
    ("below-threshold-cut-by-one", CATALOG,
     "elif n < p.valid_from:",
     "elif n <= p.valid_from:",
     "the threshold n itself is checked, not skipped"),
    ("per-set-ignored", CATALOG,
     "row.per_set(x) if row.per_set is not None else",
     "row.per_set(x) if False else",
     "rows 2.zero, 3.zero and 4.one give some sets their own formula or threshold"),
    ("explicit-family-dropped", CATALOG,
     "formula=EXPLICIT_FAMILIES.get(x.s, formula),",
     "formula=formula,",
     "a set with a listed avoider family is claimed by that family"),
    ("double-row-match-let-through", CATALOG,
     "if len(hits) > 1:",
     "if len(hits) > 2:",
     "a set that satisfies two rows is a catalog error"),
    ("table-of-unchecked", CATALOG,
     "if x.tau in _S4 and x.threes and x.threes <= _S3 and len(x.threes) + 1 == len(x.s):",
     "if x.tau is not None and x.threes and len(x.threes) + 1 == len(x.s):",
     "a non-permutation member of a universe-shaped set must raise, not get a table"),
    ("table-of-type-unchecked", CATALOG,
     "if {type(v) for p in x.s for v in p} == {int}:",
     "if True:",
     "True == 1 and 2.0 == 2 pass the lookups in S_3 and S_4, so a set holding them must raise"),
    ("inverse-unchecked", "src/permpat/symmetry.py",
     "enumerate(check_permutation(p), 1)",
     "enumerate(p, 1)",
     "inverse((True, 2, 3)) must raise, not return (1, 2, 3)"),
    ("classify-set-as-representative", "src/permpat/cli.py",
     "format_pattern_set(orbit(table.pattern_set).representative)",
     "format_pattern_set(table.pattern_set)",
     "classify prints the orbit's representative, which need not be the set"),
]

EQUIVALENT = [
    ("nested-scan-from-pos", ENUMERATION,
     "nf |= _scan(child, plan, slot + 1, pos + 1)",
     "nf |= _scan(child, plan, slot + 1, pos)",
     "the placed slot is a bound of every later slot's open window, so its own "
     "position never passes the window test"),
    ("free-window-with-lower-bound", ENUMERATION,
     "cand = later & (val[fhi] - (val[flo] << 1))",
     "cand = later & (val[fhi] - val[flo])",
     "the lower bound is a sentinel, the new entry or a slot at or left of the "
     "scan position, and ``later`` holds none of them"),
    ("fold-at-leaves", ENUMERATION,
     "leaf = depth + 1 == n",
     "leaf = False",
     "a leaf's mask is never read, so folding there only costs time"),
]


def _tier1(root: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests"],
        cwd=root, env=env, capture_output=True, text=True,
    )


def _run(entry, must_fail: bool, scratch: Path) -> bool:
    name, path, old, new, reason = entry
    root = scratch / name
    shutil.copytree(ROOT, root, ignore=IGNORE)
    target = root / path
    target.write_text(target.read_text().replace(old, new))
    started = time.perf_counter()
    failed = _tier1(root).returncode != 0
    seconds = time.perf_counter() - started
    shutil.rmtree(root)
    ok = failed == must_fail
    verdict = ("killed" if failed else "SURVIVED") if must_fail else ("passed" if not failed else "FAILED")
    print(f"{'ok    ' if ok else 'WRONG '} {name}: {verdict} in {seconds:.1f} s ({reason})")
    return ok


def main() -> int:
    entries = [(e, True) for e in MUTANTS] + [(e, False) for e in EQUIVALENT]
    stale = [(name, path, (ROOT / path).read_text().count(old)) for (name, path, old, _, _), _ in entries]
    for name, path, hits in stale:
        if hits != 1:
            print(f"STALE  {name}: its old text occurs {hits} times in {path}")
    if any(hits != 1 for _, _, hits in stale):
        return 1
    with tempfile.TemporaryDirectory(prefix="permpat-mutants-") as tmp:
        scratch = Path(tmp)
        baseline = scratch / "baseline"
        shutil.copytree(ROOT, baseline, ignore=IGNORE)
        if _tier1(baseline).returncode != 0:
            print("the unmutated copy fails tier-1; no mutant verdict can be trusted")
            return 1
        shutil.rmtree(baseline)
        results = [_run(e, must_fail, scratch) for e, must_fail in entries]
    print(f"{sum(results)} of {len(results)} entries behave as listed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
