"""One workload in one process: set-up, timed rounds, checks.

Started by ``run.py``; prints one JSON record as its last line.  BLAS and
OpenMP are pinned to one thread before numpy loads.  ``--spawned-at`` is the
parent's ``time.monotonic()`` just before it started this process, so
``setup_s`` runs from process start to the first timed call.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def digest(value):
    """A comparable fingerprint of a round's result, exact to the bit."""
    if isinstance(value, np.ndarray):
        return hashlib.sha1(np.ascontiguousarray(value).tobytes()).hexdigest()
    if isinstance(value, dict):
        return {k: digest(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [digest(v) for v in value]
    if hasattr(value, "sub_maps"):
        return [(S, digest(fm)) for S, fm in value.sub_maps]
    if hasattr(value, "grid"):
        return [value.method, digest(value.grid.points), digest(value.grid.weights)]
    return value


def run_round(ops) -> tuple[dict, dict, int]:
    """Run one round; returns (timing record, results, failed calls)."""
    rec = {"wall_s": 0.0, "build_s": 0.0, "eval_s": 0.0, "embed_s": 0.0,
           "eval_rows": 0, "embed_rows": 0}
    results, failed = {}, 0
    for op in ops:
        t0 = time.perf_counter()
        try:
            value = op.call(results)
        except Exception:  # a failed call is counted; the script goes on
            failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        dt = time.perf_counter() - t0
        rec["wall_s"] += dt
        rec[f"{op.kind}_s"] += dt
        if op.kind != "build":
            rec[f"{op.kind}_rows"] += op.rows
        results[op.key] = op.keep(value) if op.keep else value
    return rec, results, failed


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spawned-at", type=float, required=True)
    args = p.parse_args()

    workdir = BENCH_DIR / "out" / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.small, workdir)
        ops = workload.ops()
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        rounds, traced_rounds, failed = [], [], 0
        first = fingerprint = None
        deterministic = True
        tracer = tracing.Tracer()
        start = time.perf_counter()
        # whole rounds until the time is up; a traced run alternates untraced
        # and traced rounds so the overhead is measured under the same load
        while True:
            for traced in ((False, True) if args.trace else (False,)):
                if traced:
                    tracer.install()
                try:
                    rec, results, bad = run_round(ops)
                finally:
                    tracer.uninstall()
                failed += bad
                if traced:
                    shares = {k: v / rec["wall_s"]
                              for k, v in tracer.layer_self_times().items()}
                    shares["outside the package"] = 1.0 - sum(shares.values())
                    traced_rounds.append({"wall_s": rec["wall_s"], "shares": shares,
                                          "layers": tracer.aggregate()})
                else:
                    rounds.append(rec)
                if first is None:
                    first, fingerprint = results, digest(results)
                elif digest(results) != fingerprint:
                    deterministic = False
            if time.perf_counter() - start >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        try:
            check_results = workload.check(first)
        except Exception as exc:  # a check that cannot run has failed
            traceback.print_exc(file=sys.stderr)
            check_results = [{"name": "checks ran", "ok": False, "detail": repr(exc)}]
        check_results.append({"name": "every round gave identical results",
                              "ok": deterministic, "detail": ""})
        for c in check_results:
            if not c["ok"]:
                print(f"check failed: {c['name']} {c['detail']}", file=sys.stderr)

        record = {
            "setup_s": setup_s,
            "rounds": rounds,
            "traced_rounds": traced_rounds,
            "attempted": len(ops) * (len(rounds) + len(traced_rounds)),
            "failed": failed,
            "correct": all(c["ok"] for c in check_results),
            "checks": check_results,
            "peak_rss_mb": peak_rss_mb,
            "layer_shares": {k: statistics.median(t["shares"][k] for t in traced_rounds)
                             for k in (traced_rounds[0]["shares"] if traced_rounds else ())},
            "env": machine_facts(),
        }
        if args.trace:
            record["layer_metrics"] = layer_metrics(rounds, traced_rounds)
            trace_file = (BENCH_DIR / "out" /
                          f"trace-{args.workload}-seed{args.seed}.jsonl")
            trace_file.write_text("".join(json.dumps(s) + "\n"
                                          for s in tracer.records()))
        print(json.dumps(record))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def layer_metrics(rounds: list[dict], traced_rounds: list[dict]) -> dict:
    """Medians over the traced rounds; the overhead against the untraced ones."""
    out = {}
    for name, unit in tracing.LAYER_METRICS.items():
        if name == "trace.overhead_s":
            value = (statistics.median(t["wall_s"] for t in traced_rounds)
                     - statistics.median(r["wall_s"] for r in rounds))
        else:
            value = statistics.median(t["layers"].get(name, 0) for t in traced_rounds)
        out[name] = {"value": value, "unit": unit}
    return out


if __name__ == "__main__":
    raise SystemExit(main())
