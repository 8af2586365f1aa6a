"""Quick self-test of the benchmark, in well under a minute.

    python3 bench/selftest.py

Runs every workload once at small size (``--small``: small inputs, one
round, one set-up probe), untraced and traced twice, and checks that:

* each run exits 0 with ``correct`` true and no failed operation;
* the untraced metrics are exactly BENCHMARK.json's end-to-end metrics, each
  above 0, and the traced metrics exactly its per-layer metrics;
* every count from the traced run is identical across the two traced runs;
* in a directory holding only BENCHMARK.json and ``bench/``, the benchmark
  exits non-zero without printing a result.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc: subprocess.CompletedProcess, label: str) -> dict:
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"FAIL {label}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise SystemExit(f"FAIL {label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"FAIL {label}: correct={result['correct']} "
                         f"failed={result['failed']}/{result['attempted']}")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        plain = result_of(run(ROOT, workload, 0), f"{workload} untraced")
        got = {k: v["unit"] for k, v in plain["metrics"].items()}
        if got != e2e:
            raise SystemExit(f"FAIL {workload}: end-to-end metrics {got}")
        zero = [k for k, v in plain["metrics"].items() if not v["value"] > 0]
        if zero:
            raise SystemExit(f"FAIL {workload}: metrics not above 0: {zero}")
        traced = [result_of(run(ROOT, workload, 1), f"{workload} traced")
                  for _ in range(2)]
        got = {k: v["unit"] for k, v in traced[0]["metrics"].items()}
        if got != layers:
            raise SystemExit(f"FAIL {workload}: per-layer metrics {got}")
        counts = [{k: v["value"] for k, v in t["metrics"].items()
                   if v["unit"] == "count"} for t in traced]
        if counts[0] != counts[1]:
            raise SystemExit(f"FAIL {workload}: counts differ between traced runs")
        print(f"ok {workload}: attempted {plain['attempted']}, "
              f"{sum(1 for v in counts[0].values() if v)} non-zero counts")

    bare = BENCH_DIR / "out" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(BENCH_DIR, bare / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            raise SystemExit("FAIL: the benchmark ran without the package sources")
        print("ok bare directory: exit", proc.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
