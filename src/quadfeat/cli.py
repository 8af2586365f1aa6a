"""Command-line interface.

Subcommands: build (construct and serialize a feature map), eval (error
report for one map), sweep (methods x parameters grid to CSV) and embed
(dataset to feature CSV, through ``FeatureMap.embed_batch``).

Every subcommand turns the same flags into one validated ``SweepConfig``
(``sweep --config`` reads it from JSON), so a bad value raises
``ConfigError`` naming its config key before any map is built; so does
``--data`` whose width is not the config's ``d``
(``harness.config_dataset``).  ``eval`` is a one-cell sweep; it and
``sweep`` make their rows through ``harness.sweep``.  ``build`` and
``embed`` refuse more than one method, D or seed.  ``--anova
structure.json`` switches eval, sweep and embed to the file's ANOVA kernel,
which sets d and gamma; build refuses it.

``embed`` streams the features: it embeds and writes the rows in blocks
of at most ``EMBED_BLOCK`` (2^20) feature entries, so the features' memory
does not grow with the number of rows (the dataset itself is read whole).
Inside ``embed_batch`` each such block is worked through in smaller row
blocks of at most ``featuremaps.BLOCK`` (2^15) phase entries, which stay
in cache, with one phase product per inner block.  Each
block is written as exactly the bytes of ``np.savetxt(fh, Z, delimiter=",")``
for that block's embedding ``Z``: numpy's default ``'%.18e'``, commas
between values and a newline after each row.  ``_write_csv`` produces them
with whole-array numpy operations, ``_CHUNK`` values at a time, as
fixed-width records whose exponent field is one byte narrower in a chunk
without a three-digit exponent, in about 0.074 s per 10^6 embedding
values where ``np.savetxt`` takes 0.87 s (medians of 5 alternated runs
on one core of a 2-core AVX512 VM).  Data that fit in one block give the
bytes of one ``np.savetxt`` of the whole feature matrix.  Past one block,
a row can sit at another place in its inner block than it does in a
whole-matrix embedding, and BLAS tiles the rows of a product by their
place, so such rows can differ in the last bit.  None of 20 000 rows did for 16 columns
and 500 points, with one or two BLAS threads; 30 of 195 rows did for 40
columns and 500 points, embedded 5 places off their block position.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .errors import ConfigError
from .featuremaps import save_feature_map
from .harness import (
    CLI_METHODS,
    SweepConfig,
    build_map,
    config_dataset,
    load_csv,
    reports_to_csv,
    sweep,
)

# feature entries ``embed`` embeds and writes at once
EMBED_BLOCK = 2**20

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
    fm = _one_map(cfg, config_dataset(cfg))
    out = args.out or "featuremap.json"
    save_feature_map(fm, out)
    points = f" ({fm.grid.count} points)" if fm.count < fm.grid.count else ""
    print(f"wrote {out}: method={fm.method} d={fm.d} D={fm.count}{points}")
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
    cfg = _config(args, MAP_KEYS)
    fm = _one_map(cfg, config_dataset(cfg, ds))
    out = args.out or "features.csv"
    n, width = ds.rows.shape[0], 2 * fm.count
    block = max(1, EMBED_BLOCK // max(1, width))
    with open(out, "wb") as fh:
        for start in range(0, n, block):
            _write_csv(fh, fm.embed_batch(ds.rows[start:start + block]))
    print(f"wrote {out}: {n} rows x {width} features")
    return 0


# '%.18e' text of one float64, a comma or newline after it, as a fixed-width
# record; field dN ends with the N-th of the 18 digits after the point, and
# ``exp`` holds the exponent's whole text: 'e-05' in the 4 bytes of a chunk
# whose exponents all have two digits, 'e-05' and 'e+100' in the 5 bytes of
# any other chunk.  Bytes a value does not use (the sign of a positive value,
# the fifth exponent byte of a two-digit exponent) stay NUL and are cut
# before writing.
def _record(width: int) -> np.dtype:
    return np.dtype({
        "names": ["sign", "lead", "point", "d2", "d6", "d10", "d14", "d18",
                  "exp", "sep"],
        "formats": ["u1", "u1", "u1", "<u2", "<u4", "<u4", "<u4", "<u4",
                    f"S{width}", "u1"],
        "offsets": [0, 1, 2, 3, 5, 9, 13, 17, 21, 21 + width],
        "itemsize": 22 + width})


_RECORDS = (_record(4), _record(5))  # indexed by "some exponent has 3 digits"
_CHUNK = 2**14  # values formatted at once; their temporaries stay in cache
# 10^k for k = 18 - e, |x| in [1e-280, 1e280] and e up to one off; the split
# of 10^300 still stays finite
_KMIN, _KMAX = -265, 300
_E0 = 18 - _KMIN  # the tables' index of e = 0; e is at _E0 - e


def _split(a):
    """Dekker's split of a into two halves of 26 bits each."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _tables():
    """The tables of the writer, all indexed as noted:

    - Dekker-split double-double 10^k for k in [_KMIN, _KMAX], as three
      arrays (high half of the leading double, its low half, the trailing
      double), at k - _KMIN;
    - the exponent text of e = 18 - k at the same index, _E0 - e, as 'S4'
      (read only where |e| < 100) and 'S5';
    - the ASCII digits of 0..9999 as '<u4' and of 0..99 as '<u2'.
    """
    pow10 = []
    for k in range(_KMIN, _KMAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den  # correctly rounded, as is the division below
        n, d = hi.as_integer_ratio()
        pow10.append((hi, (num * d - n * den) / (den * d)))
    hi, lo = np.array(pow10).T
    exponents = np.array([f"e{_E0 - i:+03d}".encode()
                          for i in range(_KMAX - _KMIN + 1)], "S5")
    digits = np.frombuffer("".join(f"{i:04d}" for i in range(10**4)).encode(),
                           "<u4")
    return (_split(hi) + (lo,), (exponents.astype("S4"), exponents),
            digits, (digits[:100] >> 16).astype("<u2"))


def _scaled(a, i):
    """a * 10^k, i = k - _KMIN, as an unevaluated sum p + lo, within a few
    1e-32 relative: Dekker's exact two-product against the leading double of
    10^k, plus a times its trailing double."""
    bh, bl, c = (t[i] for t in _tables()[0])
    p = a * (bh + bl)
    ah, al = _split(a)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err + a * c


def _format(v, buf: np.ndarray) -> np.ndarray:
    """The '%.18e' texts of ``v`` as records in the uint8 buffer ``buf``:
    every field filled but ``sep``, in the narrower record unless some
    value's exponent has three digits.

    The 19 significant digits are m = round(|x| 10^(18 - e)) for the decimal
    exponent e.  Written by Python's ``'%.18e' % x`` instead: inf, nan,
    |x| outside [1e-280, 1e280] (nonzero), where 10^(18 - e) or Dekker's
    split would leave the float range, and fractions within 1e-6 of a half,
    exact ties included, which the double-double cannot round with
    certainty.
    """
    _, exponents, digits4, digits2 = _tables()
    a = np.abs(v)
    zero = a == 0
    ok = (a >= 1e-280) & (a <= 1e280)
    a = np.where(ok, a, 1.0)
    i = _E0 - np.floor(np.log10(a)).astype(np.intp)
    p, lo = _scaled(a, i)
    # log10 can be one off next to a power of ten, and only there; so only a
    # product outside [1e18, 1e19) or within 1e-7 of either end is checked.
    # The unrounded product decides, since the rounded one can cross 1e18 or
    # 1e19 where it does not
    near = np.flatnonzero((p < 1.0000001e18) | (p > 0.9999999e19))
    pn, ln = p[near], lo[near]
    step = ((pn - 1e19) + ln >= 0).astype(np.intp) - ((pn - 1e18) + ln < 0)
    moved, step = near[step != 0], step[step != 0]
    if moved.size:
        i[moved] -= step
        p[moved], lo[moved] = _scaled(a[moved], i[moved])
    # p is an integer below 2^64; the int64 round of lo wraps into uint64.
    # m < 10^19: only a double within 5e-20 relative below a power of ten
    # would round up to it, and none in range is that close
    fl = np.floor(lo)
    frac = lo - fl
    m = p.astype(np.uint64) + (fl + (frac > 0.5)).astype(np.int64).view(np.uint64)
    m[zero] = 0  # zeros went through as 1.0, so their e is 0 already
    fallback = np.flatnonzero(~(ok | zero) | (np.abs(frac - 0.5) < 1e-6))
    texts = [("%.18e" % v[j]).encode() for j in fallback]
    # |e| >= 100, here or in a text: 'e+100' has 4 bytes after the 'e'
    wide = bool(max(i.max() - _E0, _E0 - i.min()) >= 100
                or any(len(t.partition(b"e")[2]) > 3 for t in texts))
    rec = buf[:v.size * _RECORDS[wide].itemsize].view(_RECORDS[wide])
    for name in ("d18", "d14", "d10", "d6"):
        q = m // np.uint64(10**4)
        rec[name] = digits4[(m - q * np.uint64(10**4)).view(np.intp)]
        m = q
    q = m // np.uint64(100)
    rec["d2"] = digits2[(m - q * np.uint64(100)).view(np.intp)]
    rec["lead"] = q + ord("0")
    rec["point"] = ord(".")
    rec["sign"] = np.signbit(v) * np.uint8(ord("-"))
    rec["exp"] = exponents[wide][i]
    raw = buf[:rec.nbytes].reshape(-1, rec.itemsize)
    for j, text in zip(fallback, texts):
        raw[j, :-1] = 0
        raw[j, :len(text)] = np.frombuffer(text, np.uint8)
    return rec


def _write_csv(fh, Z: np.ndarray) -> None:
    """Write the (n, c) float array ``Z`` to the binary file ``fh`` as
    exactly the bytes of ``np.savetxt(fh, Z, delimiter=",")``: with no
    columns, an empty line per row."""
    cols = Z.shape[1]
    if cols == 0:
        fh.write(b"\n" * Z.shape[0])
        return
    flat = np.ascontiguousarray(Z, dtype=float).ravel()
    buf = np.empty(min(_CHUNK, flat.size) * _RECORDS[1].itemsize, np.uint8)
    for start in range(0, flat.size, _CHUNK):
        rec = _format(flat[start:start + _CHUNK], buf)
        rec["sep"] = ord(",")
        rec["sep"][(cols - 1 - start) % cols::cols] = ord("\n")
        fh.write(rec.tobytes().replace(b"\0", b""))


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
