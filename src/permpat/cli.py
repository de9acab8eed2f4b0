"""Command-line surface.

Exit codes: 0 success, 1 usage error (bad literal or number, cap exceeded)
or a failed run (a dead worker process, an unwritable --out path, a stdout
that its reader closed, which alone prints no error line), 2 when a finding
of ``verify`` is not confirmed: a refuted pre-registered finding, a
formula/oracle mismatch or a row size off its claim.  The
hard cap on n (default 11), which for ``nu`` bounds k + power, keeps runs
desk-scale; override with the PERMPAT_NMAX_CAP environment variable.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import Optional, Sequence

from . import lifting
from .enumeration import WorkerError, count_avoiders, enumerate_avoiders
from .perms import (
    _INT,
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


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; the contract reserves 2 for
    # a failed verification, so usage problems must exit 1 instead
    def error(self, message):
        raise ValueError(message)


def _number(text: str, name: str, least: int) -> int:
    # the one reader of a number from outside, by the rule of a separated
    # literal value; argparse shows an ArgumentTypeError's text, not a ValueError's
    if not _INT.fullmatch(text):
        raise argparse.ArgumentTypeError(f"{name} is not an integer: {text!r}")
    value = int(text)
    if value < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise argparse.ArgumentTypeError(f"{name} must be {bound}, got {value}")
    return value


def _check_cap(n: int) -> int:
    cap = _number(os.environ.get("PERMPAT_NMAX_CAP", "11"), "PERMPAT_NMAX_CAP", 0)
    if n > cap:
        raise argparse.ArgumentTypeError(f"n={n} exceeds the hard cap {cap} (set PERMPAT_NMAX_CAP to override)")
    return n


def _length(text: str, least: int = 0) -> int:
    return _check_cap(_number(text, "n", least))


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
    p.add_argument("--power", type=lambda text: _number(text, "power", 1), default=1)

    p = sub.add_parser("enumerate", help="list the avoiders of a pattern set")
    p.add_argument("--set", dest="patterns", required=True)
    p.add_argument("--n", type=_length, required=True)
    p.add_argument("--format", choices=("lines", "json", "csv"), default="lines")

    p = sub.add_parser("count", help="count the avoiders of a pattern set")
    p.add_argument("--set", dest="patterns", required=True)
    p.add_argument("--n", type=_length, required=True)

    # argparse passes a default through the type only if it is a string
    p = sub.add_parser("classify", help="catalog row and oracle counts for a pattern set")
    p.add_argument("--set", dest="patterns", required=True)
    p.add_argument("--nmax", type=_length, default="9")

    p = sub.add_parser("verify", help="verify every table row against the oracle")
    p.add_argument("--nmax", type=lambda text: _length(text, 1), default="9")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--jobs", type=lambda text: _number(text, "jobs", 1), default=None)

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
    elif args.command == "standardize":
        # standardize accepts arbitrary distinct letters, not just 1..n
        print(format_permutation(standardize(_parse_word(args.word))))
    elif args.command == "orbit":
        o = orbit(parse_pattern_set(args.patterns))
        print(json.dumps(o.to_json_dict(), indent=2))
    elif args.command == "nu":
        t = parse_pattern_set(args.patterns)
        # the image is filtered out of all of S_{k+power}
        _check_cap(max(map(len, t), default=0) + args.power)
        image = lifting.lift_power(t, args.power)
        print(format_pattern_set(image))
    elif args.command == "enumerate":
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
            csv.writer(sys.stdout).writerows(avoiders)
    elif args.command == "count":
        print(count_avoiders(args.n, parse_pattern_set(args.patterns)))
    # only classify and verify read the tables, so only they build them
    elif args.command == "classify":
        from . import catalog
        from .formulas import render

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
                "representative": format_pattern_set(orbit(table.pattern_set).representative),
                "claimed_class_size": entry.claimed_class_size,
                "formula": render(entry.formula),
                "valid_from": entry.valid_from,
                "citation": entry.citation,
            }
        print(json.dumps(payload, indent=2))
    elif args.command == "verify":
        from . import catalog

        report = catalog.verify(args.nmax, jobs=args.jobs)
        if args.format == "json":
            _emit(json.dumps(report.to_json_dict(), indent=2), args.out)
        else:
            buf = io.StringIO()
            csv.writer(buf).writerows(report.to_csv_rows())
            _emit(buf.getvalue(), args.out)
        failed = [f for f in report.findings if f["status"] != "confirmed"]
        if report.unexpected_mismatches:
            print(f"verification found {len(report.unexpected_mismatches)} unexpected mismatches", file=sys.stderr)
        for f in failed:
            if f["kind"] != "unexpected-mismatch":
                print(f"verification found finding {f['id']} {f['status']}", file=sys.stderr)
        return 2 if failed else 0
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        code = _run(build_parser().parse_args(argv))
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the unwritten rest goes to /dev/null, or the flush at exit fails again (exit 120)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        return 1
    except (ValueError, argparse.ArgumentTypeError, WorkerError, OSError) as exc:
        print(f"permpat: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
