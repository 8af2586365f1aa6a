"""Evaluation layer: datasets, empirical error measurement, method sweeps.

Displacements for the max-error estimate are drawn with direction uniform
on the sphere and radius uniform on [0, M]; the same (direction, fraction)
draws are reused across diameters for a fixed seed, so sample sets are
nested scalings and the estimate is reproducible per seed.  The desk-scale
default is 1e5 samples (the full-scale 1e6 is one flag away).
"""
from __future__ import annotations

import csv
import io
import itertools
import math
import time
from dataclasses import dataclass, fields
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, CsvParseError
from .featuremaps import (
    METHOD_TAGS,
    AnovaFeatureMap,
    FeatureMap,
    qmc_halton,
    rff,
    subsampled_feature_map,
)
from .grids import dense_grid, sparse_grid, subsample_dense_grid
from .kernels import AnovaKernel, GaussianKernel, load_anova
from .quad1d import MAX_RULE_SIZE
from .solvers import _displacements, bisect_lambda, construct_poly_exact

CLI_METHODS = tuple(METHOD_TAGS)


@dataclass(frozen=True)
class ErrorReport:
    """One (method, D, M) measurement cell.

    ``build_ms`` is the time spent building the feature map for this row;
    a sweep row that reuses a map built for an earlier row reports 0.
    ``embed_ms`` is the time spent evaluating the error (sampling the
    displacements and computing the exact and approximate kernels), under
    the name the fixed report header gives it.
    """

    method: str
    d: int
    D: int
    gamma: float
    M: float
    max_err: float
    rms_err: float
    n_eval: int
    seed: int
    build_ms: int
    embed_ms: int

    def __post_init__(self):
        if self.max_err < 0 or self.rms_err < 0:
            raise ValueError("error measures must be non-negative")

    def csv_row(self) -> str:
        """The fields in ``REPORT_HEADER`` order; floats print as their
        shortest round-tripping repr."""
        return ",".join(str(getattr(self, f.name)) for f in fields(self))


REPORT_HEADER = ",".join(f.name for f in fields(ErrorReport))


@dataclass(frozen=True)
class Dataset:
    rows: np.ndarray
    source: str = ""

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise ValueError("dataset must be a non-empty (n, d) array")
        if not np.isfinite(rows).all():
            raise ValueError("dataset entries must be finite")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]


def load_csv(path: str) -> Dataset:
    """Comma-separated reals, one row per line; a non-numeric first row is
    treated as a header.  Ragged, non-numeric or non-finite (nan, inf) data
    raises CsvParseError with the offending 1-based line number."""
    rows = []
    width = None
    with open(path, newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            try:
                values = [float(c) for c in cells]
            except ValueError:
                if lineno == 1:
                    continue  # header
                raise CsvParseError(
                    f"{path}: non-numeric cell at line {lineno}", line=lineno)
            if not all(map(math.isfinite, values)):
                raise CsvParseError(
                    f"{path}: non-finite cell at line {lineno}", line=lineno)
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise CsvParseError(
                    f"{path}: expected {width} columns at line {lineno}, "
                    f"got {len(values)}", line=lineno)
            rows.append(values)
    if not rows:
        raise CsvParseError(f"{path}: no data rows", line=1)
    return Dataset(np.array(rows), source=path)


def sample_pairs(ds: Dataset, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n uniform-with-replacement row pairs with distinct row indices."""
    if ds.n < 2:
        raise ValueError("need at least 2 rows to sample pairs")
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    i = rng.integers(0, ds.n, size=n)
    j = rng.integers(0, ds.n - 1, size=n)
    j = j + (j >= i)  # skip the diagonal, still uniform over the rest
    return ds.rows[i], ds.rows[j]


def displacement_sample(d: int, M: float, n: int, seed: int) -> np.ndarray:
    """n vectors with |u| <= M: uniform direction, radius fraction uniform."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= M < math.inf:
        raise ValueError(f"M must be non-negative and finite, got {M!r}")
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n, d))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    fractions = rng.uniform(size=(n, 1))
    return dirs / norms * fractions * M


def error_stats(fm, kernel, M: float, n: int, seed: int) -> tuple[float, float]:
    """(max, rms) of |k - k~| over one displacement sample set."""
    U = displacement_sample(fm.d, M, n, seed)
    diff = kernel.value(U) - fm.approx(U)
    return float(np.abs(diff).max()), float(np.sqrt(np.mean(diff**2)))


def max_error_empirical(fm, kernel, M: float, n: int, seed: int) -> float:
    """Empirical sup of |k - k~| over n displacements in the M-ball."""
    return error_stats(fm, kernel, M, n, seed)[0]


def rms_error(fm, kernel, pairs) -> float:
    """Root mean squared error of k~ against k over explicit pairs, given
    and checked as in ``reweight``."""
    U = _displacements(pairs)
    diff = kernel.value(U) - fm.approx(U)
    return float(np.sqrt(np.mean(diff**2)))


def synthetic_mixture(n: int, seed: int, d: int = 40, components: int = 4,
                      side: float = 2.0) -> Dataset:
    """Gaussian mixture with unit covariance and means on a simplex of the
    given side length (stand-in for licensed speech data at d = 40)."""
    if components > d:
        raise ValueError("need d >= components for the simplex embedding")
    rng = np.random.default_rng(seed)
    means = np.zeros((components, d))
    for i in range(components):
        means[i, i] = side / math.sqrt(2.0)
    labels = rng.integers(0, components, size=n)
    rows = means[labels] + rng.standard_normal((n, d))
    return Dataset(rows, source=f"synthetic_mixture(n={n}, seed={seed})")


def _integer(value, key: str) -> int:
    """``value`` as an int, if it is integral (2 and 2.0, not 2.7, "2" or True)."""
    if not isinstance(value, bool) and (isinstance(value, (int, np.integer)) or (
            isinstance(value, float) and value.is_integer())):
        return int(value)
    raise ConfigError(f"sweep config key {key!r} must be an integer, got {value!r}",
                      key=key)


def _real(value, key: str) -> float:
    """``value`` as a float, if it is a number (2 and 0.5, not "0.5" or True)."""
    if not isinstance(value, bool) and isinstance(
            value, (int, float, np.integer, np.floating)):
        return float(value)
    raise ConfigError(f"sweep config key {key!r} must be a number, got {value!r}",
                      key=key)


@dataclass
class SweepConfig:
    """Validated sweep grid.  Cell order is methods x D x M x seeds.

    ``anova`` names an ANOVA structure file; the cells then measure that
    kernel, and the file sets ``d`` and ``gamma``.
    """

    methods: list[str]
    d: int
    gamma: float
    D: list[int]
    M: list[float]
    seeds: list[int]
    n_eval: int = 100_000
    L: int = 8
    level: int = 2
    degree: int = 2
    data: Optional[str] = None
    pairs: int = 500
    anova: Optional[str] = None

    _KEYS = ("methods", "d", "gamma", "D", "M", "seeds", "n_eval", "L",
             "level", "degree", "data", "pairs", "anova")

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepConfig":
        for key in raw:
            if key not in cls._KEYS:
                raise ConfigError(f"unknown sweep config key {key!r}", key=key)
        if raw.get("anova") is not None:
            try:
                structure = load_anova(str(raw["anova"]))
            except (OSError, ValueError) as exc:  # unreadable file, bad JSON
                raise ConfigError(f"sweep config key 'anova': {exc}",
                                  key="anova") from None
            raw = dict(raw)
            for key, value in (("d", structure.d), ("gamma", structure.base.gamma)):
                if raw.setdefault(key, value) != value:
                    raise ConfigError(
                        f"sweep config key {key!r} is {raw[key]!r}, but the ANOVA "
                        f"structure file gives {value!r}", key=key)
        for key in ("methods", "d", "gamma", "D", "M", "seeds"):
            if key not in raw:
                raise ConfigError(f"missing sweep config key {key!r}", key=key)
        for key in ("methods", "D", "M", "seeds"):  # [8] or (8,), not [], 8 or "rff"
            if not isinstance(raw[key], (list, tuple)) or not raw[key]:
                raise ConfigError(f"sweep config key {key!r} must be a non-empty "
                                  f"list, got {raw[key]!r}", key=key)
        cfg = cls(
            methods=[str(m) for m in raw["methods"]],
            d=_integer(raw["d"], "d"),
            gamma=_real(raw["gamma"], "gamma"),
            D=[_integer(v, "D") for v in raw["D"]],
            M=[_real(v, "M") for v in raw["M"]],
            seeds=[_integer(v, "seeds") for v in raw["seeds"]],
        )
        for key in ("n_eval", "L", "level", "degree", "pairs"):
            if key in raw:
                setattr(cfg, key, _integer(raw[key], key))
        for key in ("data", "anova"):
            if raw.get(key) is not None:
                setattr(cfg, key, str(raw[key]))
        for m in cfg.methods:
            if m not in CLI_METHODS:
                raise ConfigError(f"unknown method {m!r}", key="methods")
        for key, low in (("d", 1), ("D", 1), ("n_eval", 1), ("pairs", 1), ("M", 0),
                         ("seeds", 0), ("L", 1), ("level", 0), ("degree", 0)):
            if min(np.atleast_1d(getattr(cfg, key))) < low:
                raise ConfigError(f"sweep config key {key!r} must be >= {low}", key=key)
        for key, ok, rule in (
                ("gamma", 0 < cfg.gamma < math.inf, "positive and finite"),
                ("M", all(map(math.isfinite, cfg.M)), "finite"),
                ("L", cfg.L <= MAX_RULE_SIZE, f"<= {MAX_RULE_SIZE}"),
                ("level", cfg.level <= math.log2(MAX_RULE_SIZE),
                 f"<= log2({MAX_RULE_SIZE}), so that 2^level <= {MAX_RULE_SIZE}"),
                ("degree", cfg.degree % 2 == 0, "even")):
            if not ok:
                raise ConfigError(f"sweep config key {key!r} must be {rule}", key=key)
        return cfg

    def kernel(self) -> Union[GaussianKernel, AnovaKernel]:
        """The exact kernel every cell is measured against."""
        return load_anova(self.anova) if self.anova else GaussianKernel(self.gamma)


def config_dataset(config: SweepConfig,
                   ds: Optional[Dataset] = None) -> Optional[Dataset]:
    """The dataset ``config.data`` names (``ds`` when the caller has read it
    already), or None without one.  A dataset whose width is not ``config.d``
    raises ConfigError keyed ``d``, naming both, before any map is built."""
    if not config.data:
        return None
    if ds is None:
        ds = load_csv(config.data)
    if ds.d != config.d:
        raise ConfigError(f"sweep config key 'd' is {config.d}, but "
                          f"{config.data} has {ds.d} columns", key="d")
    return ds


def build_method_map(method: str, d: int, D: int, gamma: float, seed: int,
                     L: int = 8, level: int = 2, degree: int = 2,
                     data: Optional[Dataset] = None, pairs: int = 500) -> FeatureMap:
    """Construct one feature map by CLI method name."""
    if method == "rff":
        return rff(d, D, gamma, seed)
    if method == "qmc":
        return qmc_halton(d, D, gamma)
    if method == "dense":
        return FeatureMap(dense_grid(L, d), "dense", gamma)
    if method == "sparse":
        return FeatureMap(sparse_grid(level, d), "sparse", gamma)
    if method == "subsampled":
        return subsampled_feature_map(L, d, D, gamma, seed)
    if method == "poly-exact":
        return FeatureMap(construct_poly_exact(d, degree, D, seed),
                          "poly_exact", gamma)
    if method == "reweighted":
        if data is None:
            raise ConfigError("reweighted method needs a dataset", key="data")
        return _reweighted_map(L, d, D, gamma, seed, sample_pairs(data, pairs, seed))
    raise ConfigError(f"unknown method {method!r}", key="methods")


def _reweighted_map(L: int, d: int, D: int, gamma: float, seed: int,
                    train: tuple[np.ndarray, np.ndarray]) -> FeatureMap:
    """Reweighted draws of 4 D points from the L-point lattice, at most D of
    them kept: the support ``bisect_lambda`` selects on the l1 path."""
    pool = subsample_dense_grid(L, d, 4 * D, seed)
    grid = bisect_lambda(pool, train, GaussianKernel(gamma), D).grid
    return FeatureMap(grid, "reweighted", gamma)


def build_anova_map(kernel: AnovaKernel, method: str, D_S: int, seed: int,
                    L: int = 8, level: int = 2, degree: int = 2,
                    data: Optional[Dataset] = None,
                    pairs: int = 500) -> AnovaFeatureMap:
    """Per-subset feature maps for an ANOVA kernel, one seed stream each.

    ``D_S`` is the per-subset feature count; the composite has
    sum over S of D_S quadrature points.  The reweighted method fits each
    sub-kernel on its own coordinates, reusing one shared draw of training
    pairs across subsets, and keeps at most ``D_S`` points of each, as in
    ``build_method_map``.
    """
    gamma = kernel.base.gamma
    train = sample_pairs(data, pairs, seed) if data is not None else None
    sub_maps = []
    for si, S in enumerate(kernel.subsets):
        sub_seed = seed * 100_003 + si
        dim = len(S)
        if method == "reweighted":
            if train is None:
                raise ConfigError("reweighted method needs a dataset", key="data")
            idx = np.array(S) - 1
            fm = _reweighted_map(L, dim, D_S, gamma, sub_seed,
                                 (train[0][:, idx], train[1][:, idx]))
        else:
            fm = build_method_map(method, dim, D_S, gamma, sub_seed,
                                  L=L, level=level, degree=degree)
        sub_maps.append((S, fm))
    return AnovaFeatureMap(tuple(sub_maps), kernel.d)


def build_map(config: SweepConfig, kernel: Union[GaussianKernel, AnovaKernel],
              method: str, D: int, seed: int, data: Optional[Dataset] = None):
    """One cell's feature map: ``build_anova_map`` for an ANOVA kernel,
    ``build_method_map`` for the Gaussian one."""
    options = dict(L=config.L, level=config.level, degree=config.degree,
                   data=data, pairs=config.pairs)
    if isinstance(kernel, AnovaKernel):
        return build_anova_map(kernel, method, D, seed, **options)
    return build_method_map(method, config.d, D, config.gamma, seed, **options)


def _build_key(method: str, D: int, seed: int) -> tuple:
    """What a sweep cell's map depends on besides the sweep-wide settings:
    qmc ignores the seed, dense and sparse grids ignore both D and seed."""
    if method in ("dense", "sparse"):
        return (method,)
    if method == "qmc":
        return (method, D)
    return (method, D, seed)


def sweep(config: SweepConfig | dict) -> list[ErrorReport]:
    """One ErrorReport per (method, D, M, seed) cell, in config order; the
    one maker of report rows, for ``quadfeat eval`` and ``quadfeat sweep``.

    Each map is built once, for the first cell that needs it, and only that
    cell's row carries the build time.
    """
    if isinstance(config, dict):
        config = SweepConfig.from_dict(config)
    data = config_dataset(config)
    kernel = config.kernel()
    reports = []
    built: dict[tuple, FeatureMap | AnovaFeatureMap] = {}
    for method, D, M, seed in itertools.product(config.methods, config.D,
                                                config.M, config.seeds):
        key = _build_key(method, D, seed)
        build_ms = 0
        if key not in built:
            t0 = time.perf_counter()
            built[key] = build_map(config, kernel, method, D, seed, data)
            build_ms = round_ms(t0)
        fm = built[key]
        t1 = time.perf_counter()
        max_err, rms = error_stats(fm, kernel, M, config.n_eval, seed)
        reports.append(ErrorReport(
            method=method, d=config.d, D=fm.count, gamma=config.gamma, M=M,
            max_err=max_err, rms_err=rms, n_eval=config.n_eval, seed=seed,
            build_ms=build_ms, embed_ms=round_ms(t1)))
    return reports


def round_ms(t0: float) -> int:
    return int(round((time.perf_counter() - t0) * 1000))


def reports_to_csv(reports: Sequence[ErrorReport]) -> str:
    lines = [REPORT_HEADER]
    lines.extend(r.csv_row() for r in reports)
    return "\n".join(lines) + "\n"


def strip_timing_columns(csv_text: str) -> str:
    """Drop build_ms/embed_ms so determinism can be compared byte-for-byte."""
    out = io.StringIO()
    for row in csv.reader(io.StringIO(csv_text)):
        if row:
            print(",".join(row[:-2]), file=out)
    return out.getvalue()
