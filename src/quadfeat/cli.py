"""Command-line interface.

Subcommands: build (construct and serialize a feature map), eval (error
report for one map), sweep (methods x parameters grid to CSV) and embed
(dataset to feature CSV, through ``FeatureMap.embed_batch``).

Every subcommand turns the same flags into one validated ``SweepConfig``
(``sweep --config`` reads it from JSON), so a bad value raises
``ConfigError`` naming its config key before any map is built.  ``eval``
is a one-cell sweep; it and ``sweep`` make their rows through
``harness.sweep``.  ``build`` and ``embed`` refuse more than one method, D
or seed.  ``--anova structure.json`` switches eval, sweep and embed to the
file's ANOVA kernel, which sets d and gamma; build refuses it.

``embed`` streams: it embeds and writes the rows in blocks of at most
``PHASE_BUFFER`` feature entries, so its memory does not grow with the
number of rows.  Data that fit in one block give the same bytes as one
``np.savetxt`` of the whole feature matrix.  Past one block, BLAS tiles the
last rows of a block differently from the same rows inside the whole
matrix, so those rows can differ in the last bit (79 of 20 000 rows, by at
most 8e-17, for 16 columns and 500 points).
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import ConfigError
from .featuremaps import PHASE_BUFFER, save_feature_map
from .harness import (
    CLI_METHODS,
    SweepConfig,
    build_map,
    load_csv,
    reports_to_csv,
    sweep,
)

# (flag, sweep config key, element type, default, help).  Flags left unset
# take SweepConfig's defaults.  With --anova, the structure file sets d and
# gamma, and those two flags are ignored.
FLAGS = (
    ("--method", "methods", str, "rff",
     "methods, comma separated: " + ", ".join(CLI_METHODS)),
    ("--D", "D", int, "1000",
     "feature counts (quadrature points), comma separated"),
    ("--diameter", "M", float, "1.0", "region diameters M, comma separated"),
    ("--seed", "seeds", int, "0", "seeds, comma separated"),
    ("--d", "d", int, None, "input dimension"),
    ("--L", "L", int, None, "1-D rule size of dense/subsampled grids (8)"),
    ("--level", "level", int, None, "sparse grid level A (2)"),
    ("--degree", "degree", int, None, "polynomial exactness degree R (2)"),
    ("--gamma", "gamma", float, "0.5", "kernel bandwidth"),
    ("--n-eval", "n_eval", int, None, "error samples per cell (100000)"),
    ("--data", "data", str, None, "dataset CSV path"),
    ("--pairs", "pairs", int, None, "training pairs for reweighting (500)"),
    ("--lambda", "lam", float, None, "fixed l1 penalty for reweighting "
     "(otherwise the l1 path keeps at most --D points)"),
    ("--anova", "anova", str, None, "ANOVA structure JSON path"),
)
LISTS = ("methods", "D", "M", "seeds")
MAP_KEYS = ("methods", "D", "seeds")  # what build and embed make one map of


def _parse(text: str, key: str, kind):
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"sweep config key {key!r}: {text!r} does not parse "
                          f"as {kind.__name__}", key=key) from None


def _config(args, single=()) -> SweepConfig:
    """The validated sweep config of a command's flags (or of ``--config``),
    with one value for each key in ``single``."""
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = SweepConfig.from_dict(json.load(fh))
    else:
        if args.d is None and args.anova is None:
            raise SystemExit(f"{args.command} requires --d or --anova")
        raw = {}
        for _, key, kind, _, _ in FLAGS:
            text = getattr(args, key)
            if text is None or (args.anova and key in ("d", "gamma")):
                continue
            raw[key] = ([_parse(v, key, kind) for v in text.split(",")]
                        if key in LISTS else _parse(text, key, kind))
        cfg = SweepConfig.from_dict(raw)
    for key in single:
        if len(getattr(cfg, key)) != 1:
            raise ConfigError(f"{args.command} takes one value of sweep config "
                              f"key {key!r}, got {getattr(cfg, key)}", key=key)
    return cfg


def _one_map(cfg: SweepConfig, data=None):
    return build_map(cfg, cfg.kernel(), cfg.methods[0], cfg.D[0], cfg.seeds[0],
                     data)


def _report(cfg: SweepConfig, out) -> int:
    reports = sweep(cfg)
    if not out:
        sys.stdout.write(reports_to_csv(reports))
        return 0
    with open(out, "w") as fh:
        fh.write(reports_to_csv(reports))
    print(f"wrote {out}: {len(reports)} rows")
    return 0


def cmd_build(args) -> int:
    if args.anova:
        raise SystemExit("build serializes plain maps; ANOVA maps are composed in memory")
    cfg = _config(args, MAP_KEYS)
    fm = _one_map(cfg, load_csv(cfg.data) if cfg.data else None)
    out = args.out or "featuremap.json"
    save_feature_map(fm, out)
    print(f"wrote {out}: method={fm.method} d={fm.d} D={fm.count}")
    return 0


def cmd_eval(args) -> int:
    return _report(_config(args, MAP_KEYS + ("M",)), args.out)


def cmd_sweep(args) -> int:
    return _report(_config(args), args.out)


def cmd_embed(args) -> int:
    if not args.data:
        raise SystemExit("embed requires --data")
    ds = load_csv(args.data)
    if args.d is None:
        args.d = str(ds.d)
    fm = _one_map(_config(args, MAP_KEYS), ds)
    out = args.out or "features.csv"
    n, width = ds.rows.shape[0], 2 * fm.count
    block = max(1, PHASE_BUFFER // max(1, width))
    if n <= block:
        # one block goes to np.savetxt by path, the call bench/tracing.py
        # sizes its output from
        np.savetxt(out, fm.embed_batch(ds.rows), delimiter=",")
    else:
        with open(out, "w") as fh:
            for start in range(0, n, block):
                np.savetxt(fh, fm.embed_batch(ds.rows[start:start + block]),
                           delimiter=",")
    print(f"wrote {out}: {n} rows x {width} features")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="quadfeat",
        description="Quadrature feature maps for shift-invariant kernels")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("build", cmd_build), ("eval", cmd_eval),
                     ("sweep", cmd_sweep), ("embed", cmd_embed)):
        p = sub.add_parser(name)
        for flag, key, _, default, text in FLAGS:
            p.add_argument(flag, dest=key, default=default, help=text)
        p.add_argument("--out", type=str, default=None, help="output path")
        if name == "sweep":
            p.add_argument("--config", type=str, default=None,
                           help="sweep config JSON path")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
