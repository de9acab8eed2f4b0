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
PERMS = "src/permpat/perms.py"

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
     "_CONTAINED = {tau: frozenset(a for a in S3 if contains(tau, a)) for tau in S4}",
     "_CONTAINED = {tau: frozenset(a for a in S3 if contains(a, tau)) for tau in S4}",
     "the containment reduction asks whether the length-4 pattern contains a length-3 one"),
    ("formula-values-by-row", CATALOG,
     "    values = {f: tuple(evaluate(f, n) for n in range(1, n_max + 1)) for f in formulas}\n",
     "    by_row = {e.row_id: e.formula for e in entries.values() if e}\n"
     "    values = {e.formula: tuple(evaluate(by_row[e.row_id], n) for n in range(1, n_max + 1))\n"
     "              for e in entries.values() if e}\n",
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
    ("long-q-folded-nowhere", ENUMERATION,
     "if len(q) > 2}",
     "if len(q) > 3}",
     "the q of a length-4 pattern has length 3, and the scans are the only fold of such a q"),
    ("worker-exit-code-unchecked", ENUMERATION,
     "    if any(codes):\n",
     "    if False:\n",
     "a worker that died sent no tallies, and the call must raise WorkerError"),
    ("worker-keeps-inherited-tallies", ENUMERATION,
     "        tally[:] = [0] * len(tally)\n",
     "        tally[:] = tally\n",
     "the tallies above the split are the parent's, so a worker that sends them back counts them twice"),
    ("workers-pinned-to-one-cpu", ENUMERATION,
     "cpus[i % len(cpus)]",
     "cpus[0]",
     "forked workers stay on the CPU they are pinned to, so pinning them all to one serializes the pool"),
    ("split-active-in-workers", ENUMERATION,
     "    split = -1\n",
     "    split = split\n",
     "below the frontier the walk must go to the leaves, or no node deeper than the split is counted"),
    ("inflate-run-too-long", "src/permpat/formulas.py",
     "range(v + shift, v - 1, -1) if descending",
     "range(v + shift + 1, v - 1, -1) if descending",
     "a descending run one entry too long is not a permutation of 1..n"),
    ("formula-equality-ignores-class", "src/permpat/formulas.py",
     "type(self) is type(other) and tuple.__eq__(self, other)",
     "tuple.__eq__(self, other)",
     "Catalan() and TribonacciForm() are both (), and verify evaluates each distinct formula once"),
    ("render-zero-coefficient", "src/permpat/formulas.py",
     "        if c == 0:\n            continue\n",
     "",
     "a zero coefficient of a generating function is left out, not printed as 0x"),
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
    ("row-members-ignored", CATALOG,
     "if s in row.members",
     "if False",
     "most rows claim their sets by listed orbits, which assign_entries must test"),
    ("reduction-without-containment", CATALOG,
     "(x.threes in row.reduces and not _CONTAINED[x.tau].isdisjoint(x.threes))",
     "(x.threes in row.reduces)",
     "the containment reduction claims a set only if its length-4 pattern contains a member of T"),
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
     "if tau in _S4 and threes and threes <= _S3 and len(threes) + 1 == len(s):",
     "if tau is not None and threes and len(threes) + 1 == len(s):",
     "a non-permutation member of a universe-shaped set must raise, not get a table"),
    ("table-of-type-unchecked", CATALOG,
     "if {type(v) for p in s for v in p} == {int}:",
     "if True:",
     "True == 1 and 2.0 == 2 pass the lookups in S_3 and S_4, so a set holding them must raise"),
    ("table-id-not-capped", CATALOG,
     "min(len(threes), 4)",
     "len(threes)",
     "the last table holds the sets with four, five and six length-3 patterns"),
    ("zero-premise-dropped", CATALOG,
     "len(x.threes) < 6 and _zero_matches(x)",
     "_zero_matches(x)",
     "row 4.zero covers strict subsets of S_3 only, so the 24 sets holding all six stay uncovered"),
    ("universe-tau-loop-outermost", CATALOG,
     "        for k in sizes\n        for threes in itertools.combinations(S3, k)\n        for tau in S4\n",
     "        for tau in S4\n        for k in sizes\n        for threes in itertools.combinations(S3, k)\n",
     "expand_universe does not sort, so its loops must run in canonical order, tau innermost"),
    ("pair-fast-path-skips-threshold", CATALOG,
     "if family or values[vf - 1 :] != counts[vf:]:",
     "if family or values[vf:] != counts[vf + 1 :]:",
     "the one-step pair check must compare the count at n = valid_from too"),
    ("zero-conjecture-two-values", CATALOG,
     "for n0 in range(1, n_max - 1):",
     "for n0 in range(1, n_max):",
     "a zero conjecture needs three or more n to confirm it, not two"),
    ("set-key-without-length-sort", PERMS,
     "return (len(s), tuple(sorted(sorted(s), key=len)))",
     "return (len(s), tuple(sorted(s)))",
     "the canonical order lists a set's patterns by length first, as format_pattern_set does"),
    ("int-check-dropped", PERMS,
     "if type(value) is not int or value < least:",
     "if value < least:",
     "True == 1 and 2.0 == 2, but a length, power or n_max of either must raise ValueError"),
    ("literal-digits-not-ascii", PERMS,
     "elif body.isascii() and body.isdigit():",
     "elif body.isdigit():",
     "str.isdigit admits Arabic-Indic, fullwidth and superscript digits; a literal's are ASCII 0-9"),
    ("separated-letter-any-int", PERMS,
     "if not _INT.fullmatch(tok):",
     "if False:",
     "int() reads '+1' and non-ASCII digits, and fails on others with no position"),
    ("inverse-unchecked", "src/permpat/symmetry.py",
     "enumerate(check_permutation(p), 1)",
     "enumerate(p, 1)",
     "inverse((True, 2, 3)) must raise, not return (1, 2, 3)"),
    ("classify-set-as-representative", "src/permpat/cli.py",
     "format_pattern_set(orbit(table.pattern_set).representative)",
     "format_pattern_set(table.pattern_set)",
     "classify prints the orbit's representative, which need not be the set"),
    ("verify-mismatch-exits-zero", "src/permpat/cli.py",
     "            return 2\n",
     "            return 0\n",
     "verify exits 2 when it finds mismatches outside the pre-registered findings"),
    ("number-any-int", "src/permpat/cli.py",
     "if not _INT.fullmatch(text):",
     "if False:",
     "int() reads non-ASCII digits, underscores, '+' and padding, which no literal value takes"),
    ("verify-nmax-flag-from-zero", "src/permpat/cli.py",
     "type=lambda text: _length(text, 1)",
     "type=_length",
     "verify --nmax 0 is refused at its flag, which the error names"),
    ("closed-stdout-not-redirected", "src/permpat/cli.py",
     "        os.dup2(devnull, 1)\n",
     "",
     "the unwritten rest of stdout must go to /dev/null, or the flush at exit fails again with exit 120"),
    ("closed-stdout-flushed-at-exit", "src/permpat/cli.py",
     "        sys.stdout.flush()  # a closed stdout raises here, not at exit\n",
     "",
     "output still buffered when main returns is written at exit, where a closed stdout exits 120"),
    ("jobs-flag-from-zero", "src/permpat/cli.py",
     '_number(text, "jobs", 1)',
     '_number(text, "jobs", 0)',
     "--jobs 0 is refused at its flag, before the run starts"),
    ("superpatterns-standardized", "src/permpat/lifting.py",
     "    tau = check_permutation(tau)\n    if check_int(m, \"length\")",
     "    from .perms import standardize\n\n    tau = standardize(tau)\n    if check_int(m, \"length\")",
     "superpatterns reads tau as a permutation, so (True, 2) and (5, 9) raise as in pattern_words"),
    ("capital-generator", "src/permpat/symmetry.py",
     'if ch == "r":',
     'if ch in "rR":',
     "the generators are the lowercase r and i only"),
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
