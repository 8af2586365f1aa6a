"""Benchmark entry point for quadfeat.

    python3 bench/run.py --workload paper-sweep --seed 0 --seconds 30 --trace 0

Runs one workload (see ``bench/README.md``) in worker processes of its own
with BLAS pinned to one thread, and prints one JSON object as the last line
of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from a traced run.  ``setup_s`` is the median
set-up time of several processes: the measured one plus ``SETUP_PROBES``
processes that only set up, half started before it and half after, since the
machine's speed drifts over seconds.  The full record of a run, machine facts
included, is written to ``bench/out/``.

This script uses the standard library only; numpy and quadfeat are loaded
by ``worker.py`` in the child processes, after the thread settings.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("paper-sweep", "anova-reweight", "cli-roundtrip")
SETUP_PROBES = 8
# every process must end well inside the 180 s a run may take
RUN_LIMIT_S = 170.0

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "build_s": "s",
    "eval_rows_per_s": "rows/s",
    "embed_rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the timed phase; whole rounds, at least one")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="small inputs and one set-up probe (self-test)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds < 0:
        p.error("--seconds must be non-negative")
    return args


def run_worker(args, deadline: float, setup_only: bool) -> dict:
    """Start one worker process, wait for it, return its JSON record."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.small:
        cmd.append("--small")
    if setup_only:
        cmd.append("--setup-only")
    # the worker measures its set-up from this instant (CLOCK_MONOTONIC is
    # shared by all processes of the machine)
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end_metrics(record: dict, setups: list[float]) -> dict:
    """Times are medians over the rounds; a rate is all the rows of a kind
    divided by all the time its calls took."""
    rounds = record["rounds"]

    def rate(kind):
        return (sum(r[f"{kind}_rows"] for r in rounds)
                / sum(r[f"{kind}_s"] for r in rounds))

    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "build_s": statistics.median(r["build_s"] for r in rounds),
        "eval_rows_per_s": rate("eval"),
        "embed_rows_per_s": rate("embed"),
        "peak_rss_mb": record["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "quadfeat" / "__init__.py").is_file():
        print(f"error: no quadfeat sources under {ROOT / 'src'}; run the "
              "benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        probes = 1 if args.small else SETUP_PROBES
        setups = [run_worker(args, deadline, setup_only=True)["setup_s"]
                  for _ in range(probes // 2)]
        record = run_worker(args, deadline, setup_only=False)
        setups.append(record["setup_s"])
        setups += [run_worker(args, deadline, setup_only=True)["setup_s"]
                   for _ in range(probes - probes // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        metrics = record["layer_metrics"]
    else:
        metrics = end_to_end_metrics(record, setups)
    result = {"correct": record["correct"], "attempted": record["attempted"],
              "failed": record["failed"], "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    full = dict(result, setup_samples_s=setups, **{
        k: record[k] for k in ("env", "checks", "rounds", "traced_rounds",
                               "layer_shares")})
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(full, indent=1))
    print(json.dumps({"env": record["env"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
