"""Run one workload with several seeds and report each metric's spread.

    python3 bench/spread.py --workload paper-sweep --seeds 0-9 --seconds 30

Runs ``run.py`` once per seed, one after the other, and prints for every
metric the median, the first and third quartiles (``statistics.quantiles``
with n=4) and the spread (Q3 - Q1) / median, plus the failed share.  The
values of every run are saved to
``bench/out/spread-<workload>-seeds<first>-<last>.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,5,11-13")
    p.add_argument("--seconds", default="30")
    args = p.parse_args()
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        p.error("quartiles need at least two seeds")

    runs = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, timeout=200)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else None}
        spread = f"{summary[name]['spread']:.3f}" if med else "-"
        print(f"{name:40s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {spread}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed shares: {sorted(shares)}")
    out = (BENCH_DIR / "out" /
           f"spread-{args.workload}-seeds{seeds[0]}-{seeds[-1]}.json")
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
