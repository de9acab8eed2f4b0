"""permpat benchmark driver.

    python3 perfbench/run.py --workload verify-serial --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Every session is a fresh interpreter
(``session.py``) that imports the package from ``src/``, so the oracle's memo
starts empty as it does for a user; this process is the one closed-loop
client that starts them one at a time and checks what they return.

Workloads:

* ``verify-serial`` - ``permpat verify --nmax 9 --jobs 1``, the single-core
  baseline; oracle searches are nearly all of its time;
* ``verify-pool``   - the same command with ``--jobs 2``: the worker pool, its
  chunking and its load balance on both cores;
* ``query-mix``     - a seeded session of 1,500 library calls (see mix.py).

A run first spawns a few interpreters that only import the package (for
``setup_s``), then runs sessions until ``--seconds`` would be exceeded by one
more (always at least one), and reports medians.  Every answer is checked
after the timed region: verify reports against a reference digest, query
answers against the benchmark's own brute-force checker (oracle.py).  A
session that crashes, exits nonzero or times out counts as failed: all of its
queries on query-mix, its one command on verify.  With
``--trace 1`` the run instead makes one untraced and one traced session (plus
a traced serial one on ``verify-pool``) and reports per-layer figures.

The last line of standard output is the result object; the line before it
holds the workload's properties, the environment and the sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import mix  # noqa: E402
import oracle  # noqa: E402
from tracing import quantile  # noqa: E402

WORKLOADS = {"verify-serial": 1, "verify-pool": 2, "query-mix": None}
SETUP_SPAWNS = 10
# a run must end within 180 s; sessions share what is left of this
DEADLINE_S = 170.0
# the catalog's four table universes: 1, 2, 3 or 4-6 length-3 patterns plus
# one of length 4.  Fixed by the paper; a traced run recounts the first two
# from the program's own expand_universe.
VERIFY_UNIVERSE = {
    "universe_sets": 1512,
    "universe_orbits": 283,
    "sets_per_table": {"1": 144, "2": 360, "3": 480, "4": 528},
    "orbits_per_table": {"1": 30, "2": 66, "3": 84, "4": 103},
}


def _spawn(root: Path, args: list[str], deadline: float) -> dict:
    """Run one session; its setup time is spawn to ready.

    A session that times out, exits nonzero or prints no result comes back
    with an ``error``; its times are then the whole process's, so that a run
    still reports figures (marked incorrect).
    """
    cmd = [sys.executable, "-I", str(HERE / "session.py"), *args]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    error = None
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        error = f"session {args[0]} timed out"
    finally:
        # pool workers share the session's process group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    elapsed = time.perf_counter() - started
    lines = out.strip().splitlines()
    if error is None and (proc.returncode != 0 or not lines):
        error = f"session {args[0]} exited with {proc.returncode}: {err.strip()[-400:]}"
    if error is None:
        result = json.loads(lines[-1])
        package = Path(result["package"]).resolve()
        if root / "src" in package.parents:
            result["setup_s"] = result["ready"] - started
            result["process_s"] = elapsed
            return result
        error = f"session imported permpat from {package}, not from {root / 'src'}"
    return {
        "error": error, "setup_s": elapsed, "process_s": elapsed, "wall_s": elapsed,
        "latencies": [elapsed],
        "rss_kb": {"children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss},
    }


def _digest(report: dict) -> str:
    body = {k: v for k, v in report.items() if k not in ("elapsed_seconds", "jobs")}
    return hashlib.sha256(json.dumps(body, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _check_verify(result: dict, report_path: Path, reference: str) -> list[str]:
    if "error" in result:
        return [result["error"]]
    if result["rc"] != 0:
        return [f"verify returned {result['rc']}"]
    try:
        text = report_path.read_text()
        report_path.unlink()
        report = json.loads(text)
    except (OSError, ValueError) as exc:
        return [f"no readable report: {exc}"]
    result["report_bytes"] = len(text.encode())
    problems = []
    if report.get("unexpected_mismatches") != []:
        problems.append(f"unexpected mismatches: {report.get('unexpected_mismatches')}")
    if _digest(report) != reference:
        problems.append("report digest differs from the reference")
    return problems


def _environment(root: Path) -> dict:
    commit = None
    try:
        # the ceiling keeps git from finding a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "PERMPAT_NMAX_CAP": os.environ.get("PERMPAT_NMAX_CAP"),
    }


def _per_layer(traced: dict, untraced_wall: float, serial: dict | None) -> dict:
    """Per-layer metrics from one traced session (see README.md)."""
    t = traced["trace"]
    s, calls = t["s"], t["calls"]
    layer = t["layer_self_s"]
    wall = traced["wall_s"]
    enum_self = layer["enumeration"]
    m = {
        "enumeration.count_tables.s": (s.get("enumeration.count_tables", 0.0), "s"),
        "enumeration.count_tables.calls": (calls.get("enumeration.count_tables", 0), "count"),
        "enumeration.count_table.calls": (t["table_calls"], "count"),
        "enumeration.count_table.s": (s.get("enumeration.count_table", 0.0), "s"),
        "enumeration.count_table.search_ms_p50": (t["search_ms_p50"], "ms"),
        "enumeration.count_table.search_ms_p99": (t["search_ms_p99"], "ms"),
        "enumeration.count_table.repeat_share": (t["table_repeats"] / t["table_calls"] if t["table_calls"] else 0.0, "1"),
        "enumeration.avoiders": (t["avoiders"], "count"),
        "enumeration.ns_per_avoider": (enum_self * 1e9 / t["avoiders"] if t["avoiders"] else 0.0, "ns"),
        "enumeration.pool_efficiency": (0.0, "1"),
        "enumeration.enumerate_avoiders.calls": (calls.get("enumeration.enumerate_avoiders", 0), "count"),
        "enumeration.enumerate_avoiders.s": (s.get("enumeration.enumerate_avoiders", 0.0), "s"),
        "enumeration.enumerate_avoiders.perms_out": (t["perms_out"], "count"),
        "enumeration.count_avoiders.calls": (t["count_calls"], "count"),
        "enumeration.count_avoiders.s": (s.get("enumeration.count_avoiders", 0.0), "s"),
        "enumeration.count_avoiders.long_pattern_share": (
            t["long_count_calls"] / t["count_calls"] if t["count_calls"] else 0.0, "1"),
        "catalog.verify.s": (s.get("catalog.verify", 0.0), "s"),
        "catalog.verify.self_s": (t["self_s"].get("catalog.verify", 0.0), "s"),
        "catalog.expand_universe.s": (s.get("catalog.expand_universe", 0.0), "s"),
        "catalog.assign_entries.s": (s.get("catalog.assign_entries", 0.0), "s"),
        "catalog.universe_sets": (t["universe_sets"], "count"),
        "catalog.universe_orbits": (t["universe_orbits"], "count"),
        "catalog.classify.calls": (calls.get("catalog.classify", 0), "count"),
        "catalog.classify.s": (s.get("catalog.classify", 0.0), "s"),
        "formulas.evaluate.calls": (calls.get("formulas.evaluate", 0), "count"),
        "formulas.evaluate.s": (s.get("formulas.evaluate", 0.0), "s"),
        "formulas.render.s": (s.get("formulas.render", 0.0), "s"),
        "symmetry.orbit.calls": (calls.get("symmetry.orbit", 0), "count"),
        "symmetry.orbit.s": (s.get("symmetry.orbit", 0.0), "s"),
        "symmetry.partition_into_classes.s": (s.get("symmetry.partition_into_classes", 0.0), "s"),
        "perms.contains.calls": (calls.get("perms.contains", 0), "count"),
        "perms.contains.s": (s.get("perms.contains", 0.0), "s"),
        "perms.find_occurrence.s": (s.get("perms.find_occurrence", 0.0), "s"),
        "perms.parse_pattern_set.s": (s.get("perms.parse_pattern_set", 0.0), "s"),
        "lifting.lift.s": (s.get("lifting.lift", 0.0), "s"),
        "lifting.lift_power.s": (s.get("lifting.lift_power", 0.0), "s"),
        "lifting.is_redundant.s": (s.get("lifting.is_redundant", 0.0), "s"),
        "cli.main.s": (s.get("cli.main", 0.0), "s"),
        "cli.serialize.s": (s.get("cli.serialize", 0.0), "s"),
        "cli.report_bytes": (traced.get("report_bytes", 0), "bytes"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_ratio": (wall / untraced_wall, "1"),
        "trace.spans": (t["spans"], "count"),
    }
    for name, value in layer.items():
        m[f"{name}.self_s"] = (value, "s")
    if serial is not None:
        pooled = s.get("enumeration.count_tables", 0.0)
        serial_s = serial["trace"]["s"].get("enumeration.count_tables", 0.0)
        m["enumeration.pool_efficiency"] = (serial_s / (2 * pooled) if pooled else 0.0, "1")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "permpat" / "__init__.py").is_file():
        print(f"run.py: no permpat package under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    work = root / ".perfbench"
    work.mkdir(exist_ok=True)
    reference = json.loads((HERE / "reference.json").read_text())["verify_digest"]
    deadline = time.perf_counter() + DEADLINE_S

    jobs = WORKLOADS[args.workload]
    queries = mix.generate(args.seed) if jobs is None else None

    def session(trace: bool, session_jobs=jobs) -> dict:
        if queries is not None:
            argv = ["query-mix", "--seed", str(args.seed)]
        else:
            report = work / f"report-{os.getpid()}.json"
            argv = ["verify", "--jobs", str(session_jobs), "--report", str(report)]
        if trace:
            tag = "-serial" if session_jobs != jobs else ""
            argv += ["--trace", str(work / f"spans-{args.workload}{tag}.json")]
        result = _spawn(root, argv, deadline)
        result["problems"] = [] if queries is not None else _check_verify(result, report, reference)
        return result

    # an import-only spawn that fails is one failed operation
    readies = [_spawn(root, ["ready"], deadline) for _ in range(SETUP_SPAWNS)]
    sessions: list[dict] = []
    traced: list[dict] = []
    if args.trace:
        sessions.append(session(False))
        traced.append(session(True))
        if jobs == 2:
            traced.append(session(True, 1))
    else:
        began = time.perf_counter()
        while True:
            sessions.append(session(False))
            spent = time.perf_counter() - began
            if spent + statistics.median([r["process_s"] for r in sessions]) > args.seconds:
                break

    every = sessions + traced
    setups = [r["setup_s"] for r in readies + every]
    problems = [r["error"] for r in readies if "error" in r]
    attempted, failed = len(readies), len(problems)
    if queries is None:
        attempted += len(every)
        failed += sum(1 for r in every if r["problems"])
        for r in every:
            problems += r["problems"]
        latencies = [[r["wall_s"]] for r in sessions]
    else:
        avoiders = oracle.Avoiders()
        expected = [oracle.answer(q, avoiders) for q in queries]
        for r in every:
            attempted += len(queries)
            if "error" in r:
                failed += len(queries)
                problems.append(r["error"])
                continue
            for q, want, got in zip(queries, expected, r["answers"]):
                if got != want:
                    failed += 1
                    if len(problems) < 10:
                        problems.append(f"{q['kind']} {q.get('set', '')}: got {str(got)[:120]}, want {str(want)[:120]}")
        latencies = [r["latencies"] for r in sessions]

    walls = [r["wall_s"] for r in sessions]
    rss = [max(r["rss_kb"].values()) / 1024 for r in sessions]
    end_to_end = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        # percentiles per session, then their median, so that a slow stretch
        # of the host moves a few sessions' figures and not the run's
        "query_p50_ms": (statistics.median(statistics.median(x) for x in latencies) * 1e3, "ms"),
        "query_p99_ms": (statistics.median(quantile(x, 99) for x in latencies) * 1e3, "ms"),
    }
    if args.trace:
        # a failed traced session has no spans: the run is incorrect and has no per-layer figures
        metrics = {} if any("error" in r for r in traced) else _per_layer(
            traced[0], statistics.median(walls), traced[1] if len(traced) > 1 else None)
    else:
        metrics = end_to_end
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "failed_ratio": failed / attempted,
        "problems": problems,
        "samples": {"setup": len(setups), "sessions": len(sessions), "queries": sum(map(len, latencies))},
        "end_to_end": {k: v[0] for k, v in end_to_end.items()},
        "properties": mix.properties(queries) if queries is not None else {
            "command": next((r["command"] for r in every if "command" in r), None), **VERIFY_UNIVERSE},
        "environment": _environment(root),
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
