"""Run every workload and print each end-to-end metric with its unit.

    python3 perfbench/summary.py                      # one run per workload, seed 1
    python3 perfbench/summary.py --seeds 1-10         # medians and quartiles of ten runs
    python3 perfbench/summary.py --seeds 1-10 --trace --json perfbench/baseline.json

Run from the repository root.  Each run is ``run.py`` as BENCHMARK.json gives
it; the table shows the median over the seeds, the spread (distance between
the first and third quartile as a share of the median), the correctness
verdict and ``failed_ratio``.  ``--trace`` adds one traced run per workload
and ``--json`` writes everything, per-layer metrics included, to a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{' '.join(cmd)} failed with {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def _spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--json", default=None)
    args = parser.parse_args()

    seeds = _seeds(args.seeds)
    workloads = [w["name"] for w in SPEC["workloads"]]
    everything = {}
    for workload in workloads:
        runs = [_run(workload, seed, 0) for seed in seeds]
        attempted = sum(r["attempted"] for r, _ in runs)
        failed = sum(r["failed"] for r, _ in runs)
        print(f"\n{workload}: correct={all(r['correct'] for r, _ in runs)} "
              f"failed_ratio={failed / attempted:.4g} ({failed}/{attempted}) seeds={seeds[0]}..{seeds[-1]}", flush=True)
        rows = {}
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r, _ in runs]
            rows[name] = {
                "unit": metric["unit"], "median": statistics.median(values), "spread": _spread(values),
                "bound": metric["bound"], "values": values,
            }
            print(f"  {name:14s} {rows[name]['median']:12.6g} {metric['unit']:4s} "
                  f"spread {rows[name]['spread']:.3f} (bound {metric['bound']})", flush=True)
        everything[workload] = {
            "end_to_end": rows,
            "failed_ratio": failed / attempted,
            "samples": runs[-1][1]["samples"],
            "properties": runs[-1][1]["properties"],
            "environment": runs[-1][1]["environment"],
        }
        if args.trace:
            result, _ = _run(workload, seeds[0], 1)
            everything[workload]["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
    if args.json:
        Path(args.json).write_text(json.dumps(everything, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
