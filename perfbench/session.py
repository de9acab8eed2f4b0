"""One workload session in a fresh interpreter (started by run.py).

The session imports the package from ``src/`` of the checkout it runs in,
notes the moment it is ready, runs the workload once, and prints one JSON
line with its timings and answers.  ``_TABLE_CACHE`` therefore starts empty, as it does
for a user's command.  Nothing here reads or fills the package's private state.

    python3 -I perfbench/session.py verify --jobs 2 --report .perfbench/r.json
    python3 -I perfbench/session.py query-mix --seed 7 --trace .perfbench/spans.json
    python3 -I perfbench/session.py ready
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import permpat  # noqa: E402
import permpat.catalog  # noqa: E402
import permpat.cli  # noqa: E402

READY = time.perf_counter()

# the verify workloads run `permpat verify --nmax 9`; reference.json holds its digest
N_MAX = 9

from oracle import set_literal  # noqa: E402


def _peak_rss_kb() -> dict:
    # ru_maxrss is in KiB on Linux; the children are the pool workers
    return {
        "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }


def _verify(args):
    argv = ["verify", "--nmax", str(N_MAX), "--jobs", str(args.jobs), "--out", args.report]

    def run():
        try:
            return permpat.cli.main(argv)
        except Exception as exc:  # counted as a failed command by run.py
            return f"{type(exc).__name__}: {exc}"

    return run, lambda rc: {"rc": rc, "command": ["permpat", *argv[:-2]]}


# --- query mix ---------------------------------------------------------------

def _call(q):
    # every call is looked up on the package at call time, as a user's would be
    kind = q["kind"]
    if kind == "contains":
        return permpat.contains(q["perm"], q["pattern"])
    if kind == "find":
        return permpat.find_occurrence(q["perm"], q["pattern"])
    if kind == "redundant":
        return permpat.is_redundant(q["alpha"], q["tau"])
    if kind == "partition":
        return permpat.partition_into_classes([permpat.parse_pattern_set(s) for s in q["sets"]])
    s = permpat.parse_pattern_set(q["set"])
    if kind == "orbit":
        return permpat.orbit(s)
    if kind == "lift":
        return permpat.lift(s)
    if kind == "lift-power":
        return permpat.lift_power(s, q["power"])
    if kind == "enumerate":
        return permpat.enumerate_avoiders(q["n"], s)
    if kind == "classify":
        return permpat.catalog.classify(s, q["n"])
    return permpat.count_avoiders(q["n"], s)


def _orbit_json(o):
    return {"rep": set_literal(o.representative), "members": sorted(set_literal(m) for m in o.members)}


def encode(kind: str, out):
    """A JSON form of an answer, compared with the checker's."""
    if kind in ("contains", "redundant") or kind.startswith("count"):
        return out
    if kind == "find":
        return None if out is None else list(out)
    if kind == "orbit":
        return _orbit_json(out)
    if kind == "partition":
        return [_orbit_json(o) for o in out]
    if kind == "lift":
        return {"source": set_literal(out.source), "image": set_literal(out.image)}
    if kind == "lift-power":
        return set_literal(out)
    if kind == "enumerate":
        return ["".join(map(str, p)) for p in out]
    entry, table = out
    return {
        "set": set_literal(table.pattern_set),
        "counts": list(table.counts),
        "table": None if entry is None else entry.source_table,
    }


def _query_mix(args):
    import mix

    queries = mix.generate(args.seed)
    for q in queries:
        for key in ("perm", "pattern", "alpha", "tau"):
            if key in q:
                q[key] = tuple(q[key])
    latencies: list[float] = []
    answers: list = []

    def run():
        clock = time.perf_counter
        for q in queries:
            t0 = clock()
            try:
                out = _call(q)
            except Exception as exc:  # a failed query is counted, not fatal
                out = exc
            latencies.append(clock() - t0)
            answers.append(out)

    def finish(_):
        encoded = []
        for q, out in zip(queries, answers):
            try:
                if isinstance(out, Exception):
                    raise out
                encoded.append(encode(q["kind"], out))
            except Exception as exc:  # an exception or an answer of the wrong shape
                encoded.append({"error": f"{type(exc).__name__}: {exc}"})
        return {"latencies": latencies, "answers": encoded}

    return run, finish


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("ready", "verify", "query-mix"))
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--report", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", metavar="SPANS", default=None,
                        help="trace the session and write its spans to this file")
    args = parser.parse_args()

    out: dict = {"ready": READY, "package": permpat.__file__}
    if args.workload != "ready":
        run, finish = _verify(args) if args.workload == "verify" else _query_mix(args)
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
            run = tracer.span("bench.session", run)
        t0 = time.perf_counter()
        result = run()
        out["wall_s"] = time.perf_counter() - t0
        out["rss_kb"] = _peak_rss_kb()
        out.update(finish(result))
        if tracer is not None:
            out["trace"] = tracing.summarize(tracer)
            tracing.write_spans(tracer, args.trace)
    sys.stdout.write("\n" + json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
