"""Command-line surface.

Exit codes: 0 success, 1 usage error (bad literal, cap exceeded) or a failed
run (a worker process died), 2 when ``verify`` found formula/oracle
mismatches outside the pre-registered findings.  The hard cap on n (default
11) keeps runs desk-scale; override with the PERMPAT_NMAX_CAP environment
variable.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import Optional, Sequence

from . import catalog, lifting
from .enumeration import WorkerError, count_avoiders, enumerate_avoiders
from .formulas import render
from .perms import (
    _parse_word,
    contains,
    find_occurrence,
    format_pattern_set,
    format_permutation,
    parse_pattern_set,
    parse_permutation,
    standardize,
)
from .symmetry import orbit

DEFAULT_CAP = 11


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; the contract reserves 2 for
    # verification mismatches, so usage problems must exit 1 instead
    def error(self, message):
        raise UsageError(message)


def _cap() -> int:
    raw = os.environ.get("PERMPAT_NMAX_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"PERMPAT_NMAX_CAP is not an integer: {raw!r}")


def _check_cap(n: int) -> int:
    cap = _cap()
    if n > cap:
        raise UsageError(f"n={n} exceeds the hard cap {cap} (set PERMPAT_NMAX_CAP to override)")
    if n < 0:
        raise UsageError("n must be nonnegative")
    return n


def build_parser() -> _Parser:
    parser = _Parser(prog="permpat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("contains", help="test whether a permutation contains a pattern")
    p.add_argument("--perm", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--witness", action="store_true", help="print the least occurrence indices")

    p = sub.add_parser("standardize", help="rank the letters of a word")
    p.add_argument("--word", required=True)

    p = sub.add_parser("orbit", help="symmetry orbit of a pattern set, as JSON")
    p.add_argument("--set", dest="patterns", required=True)

    p = sub.add_parser("nu", help="length k+1 patterns containing a member of the set")
    p.add_argument("--set", dest="patterns", required=True)
    p.add_argument("--power", type=int, default=1)

    p = sub.add_parser("enumerate", help="list the avoiders of a pattern set")
    p.add_argument("--set", dest="patterns", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("lines", "json", "csv"), default="lines")

    p = sub.add_parser("count", help="count the avoiders of a pattern set")
    p.add_argument("--set", dest="patterns", required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("classify", help="catalog row and oracle counts for a pattern set")
    p.add_argument("--set", dest="patterns", required=True)
    p.add_argument("--nmax", type=int, default=9)

    p = sub.add_parser("verify", help="verify every table row against the oracle")
    p.add_argument("--nmax", type=int, default=9)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--jobs", type=int, default=None)

    return parser


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _run(args) -> int:
    if args.command == "contains":
        perm = parse_permutation(args.perm)
        pattern = parse_permutation(args.pattern)
        if args.witness:
            occ = find_occurrence(perm, pattern)
            print("none" if occ is None else " ".join(map(str, occ)))
        else:
            print("true" if contains(perm, pattern) else "false")
        return 0

    if args.command == "standardize":
        # standardize accepts arbitrary distinct letters, not just 1..n
        print(format_permutation(standardize(_parse_word(args.word))))
        return 0

    if args.command == "orbit":
        o = orbit(parse_pattern_set(args.patterns))
        print(json.dumps(o.to_json_dict(), indent=2))
        return 0

    if args.command == "nu":
        t = parse_pattern_set(args.patterns)
        if args.power < 1:
            raise UsageError("--power must be at least 1")
        image = lifting.lift_power(t, args.power)
        print(format_pattern_set(image))
        return 0

    if args.command == "enumerate":
        _check_cap(args.n)
        t = parse_pattern_set(args.patterns)
        avoiders = enumerate_avoiders(args.n, t)
        if args.format == "lines":
            for p in avoiders:
                print(format_permutation(p))
        elif args.format == "json":
            print(json.dumps({
                "set": format_pattern_set(t),
                "n": args.n,
                "count": len(avoiders),
                "avoiders": [format_permutation(p) for p in avoiders],
            }, indent=2))
        else:
            writer = csv.writer(sys.stdout)
            for p in avoiders:
                writer.writerow(p)
        return 0

    if args.command == "count":
        _check_cap(args.n)
        print(count_avoiders(args.n, parse_pattern_set(args.patterns)))
        return 0

    if args.command == "classify":
        _check_cap(args.nmax)
        entry, table = catalog.classify(parse_pattern_set(args.patterns), args.nmax)
        payload = {
            "set": format_pattern_set(table.pattern_set),
            "counts": list(table.counts),
            "entry": None,
        }
        if entry is not None:
            payload["entry"] = {
                "row_id": entry.row_id,
                "table": entry.source_table,
                "representative": format_pattern_set(entry.representative),
                "claimed_class_size": entry.claimed_class_size,
                "formula": render(entry.formula),
                "valid_from": entry.valid_from,
                "citation": entry.citation,
            }
        print(json.dumps(payload, indent=2))
        return 0

    if args.command == "verify":
        _check_cap(args.nmax)
        report = catalog.verify(args.nmax, jobs=args.jobs)
        if args.format == "json":
            _emit(json.dumps(report.to_json_dict(), indent=2), args.out)
        else:
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerows(report.to_csv_rows())
            _emit(buf.getvalue(), args.out)
        bad = report.unexpected_mismatches
        if bad:
            print(f"verification found {len(bad)} unexpected mismatches", file=sys.stderr)
            return 2
        return 0

    raise UsageError(f"unknown command {args.command!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except (UsageError, ValueError, WorkerError) as exc:
        print(f"permpat: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
