"""Command-line interface.

Subcommands: build (construct and serialize a feature map), eval (error
report for one map), sweep (methods x parameters grid to CSV) and embed
(dataset to feature CSV, through ``FeatureMap.embed_batch``).
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .featuremaps import save_feature_map
from .harness import (
    CLI_METHODS,
    REPORT_HEADER,
    ErrorReport,
    SweepConfig,
    build_anova_map,
    build_method_map,
    error_stats,
    load_csv,
    reports_to_csv,
    round_ms,
    sweep,
    write_reports,
)
from .kernels import GaussianKernel, load_anova


def _add_common_flags(p: argparse.ArgumentParser, lists: bool = False) -> None:
    # sweep takes comma-separated lists for method/D/diameter/seed and
    # validates them downstream; the other subcommands take scalars
    if lists:
        p.add_argument("--method", type=str, default="rff")
        p.add_argument("--D", type=str, default="1000",
                       help="feature counts, comma separated")
        p.add_argument("--diameter", type=str, default="1.0",
                       help="region diameters M, comma separated")
        p.add_argument("--seed", type=str, default="0",
                       help="seeds, comma separated")
    else:
        p.add_argument("--method", choices=CLI_METHODS, default="rff")
        p.add_argument("--D", type=int, default=1000,
                       help="feature count (quadrature points)")
        p.add_argument("--diameter", type=float, default=1.0,
                       help="region diameter M")
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d", type=int, default=None, help="input dimension")
    p.add_argument("--L", type=int, default=8,
                   help="one-dimensional rule size for dense/subsampled grids")
    p.add_argument("--level", type=int, default=2, help="sparse grid level A")
    p.add_argument("--degree", type=int, default=2,
                   help="polynomial exactness degree R")
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--n-eval", type=int, default=100_000)
    p.add_argument("--data", type=str, default=None, help="dataset CSV path")
    p.add_argument("--pairs", type=int, default=500,
                   help="training pairs for reweighting")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="fixed l1 penalty for reweighting (otherwise chosen "
                        "on the l1 path to keep at most --D points)")
    p.add_argument("--anova", type=str, default=None,
                   help="ANOVA structure JSON path")
    p.add_argument("--out", type=str, default=None, help="output path")


def _build_map(args, data=None):
    """Returns (feature map, exact kernel, effective gamma)."""
    if args.anova:
        # the structure file owns gamma for ANOVA kernels
        kernel = load_anova(args.anova)
        fm = build_anova_map(kernel, args.method, args.D, args.seed,
                             L=args.L, level=args.level, degree=args.degree,
                             data=data, pairs=args.pairs, lam=args.lam)
        return fm, kernel, kernel.base.gamma
    if args.d is None:
        raise SystemExit("--d is required without --anova")
    fm = build_method_map(args.method, args.d, args.D, args.gamma, args.seed,
                          L=args.L, level=args.level, degree=args.degree,
                          data=data, pairs=args.pairs, lam=args.lam)
    return fm, GaussianKernel(args.gamma), args.gamma


def cmd_build(args) -> int:
    if args.anova:
        raise SystemExit("build serializes plain maps; ANOVA maps are composed in memory")
    data = load_csv(args.data) if args.data else None
    fm, _, _ = _build_map(args, data)
    out = args.out or "featuremap.json"
    save_feature_map(fm, out)
    print(f"wrote {out}: method={fm.method} d={fm.d} D={fm.count}")
    return 0


def cmd_eval(args) -> int:
    data = load_csv(args.data) if args.data else None
    t0 = time.perf_counter()
    fm, kernel, gamma = _build_map(args, data)
    build_ms = round_ms(t0)
    t1 = time.perf_counter()
    max_err, rms = error_stats(fm, kernel, args.diameter, args.n_eval,
                               args.seed)
    report = ErrorReport(
        method=args.method, d=fm.d, D=fm.count, gamma=gamma,
        M=args.diameter, max_err=max_err, rms_err=rms, n_eval=args.n_eval,
        seed=args.seed, build_ms=build_ms, embed_ms=round_ms(t1))
    text = REPORT_HEADER + "\n" + report.csv_row() + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_sweep(args) -> int:
    if not args.config and args.d is None:
        raise SystemExit("sweep requires --d or --config")
    if args.config:
        with open(args.config) as fh:
            cfg = SweepConfig.from_dict(json.load(fh))
    else:
        raw = {
            "methods": args.method.split(","),
            "d": args.d,
            "gamma": args.gamma,
            "D": [int(v) for v in str(args.D).split(",")],
            "M": [float(v) for v in str(args.diameter).split(",")],
            "seeds": [int(v) for v in str(args.seed).split(",")],
            "n_eval": args.n_eval,
            "L": args.L,
            "level": args.level,
            "degree": args.degree,
            "pairs": args.pairs,
        }
        if args.data:
            raw["data"] = args.data
        if args.lam is not None:
            raw["lam"] = args.lam
        cfg = SweepConfig.from_dict(raw)
    reports = sweep(cfg)
    if args.out:
        write_reports(reports, args.out)
        print(f"wrote {args.out}: {len(reports)} rows")
    else:
        sys.stdout.write(reports_to_csv(reports))
    return 0


def cmd_embed(args) -> int:
    if not args.data:
        raise SystemExit("embed requires --data")
    ds = load_csv(args.data)
    if args.d is None and not args.anova:
        args.d = ds.d
    fm, _, _ = _build_map(args, ds)
    features = fm.embed_batch(ds.rows)
    out = args.out or "features.csv"
    np.savetxt(out, features, delimiter=",")
    print(f"wrote {out}: {features.shape[0]} rows x {features.shape[1]} features")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="quadfeat",
        description="Quadrature feature maps for shift-invariant kernels")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("build", cmd_build), ("eval", cmd_eval),
                     ("sweep", cmd_sweep), ("embed", cmd_embed)):
        p = sub.add_parser(name)
        _add_common_flags(p, lists=(name == "sweep"))
        if name == "sweep":
            p.add_argument("--config", type=str, default=None,
                           help="sweep config JSON path")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
