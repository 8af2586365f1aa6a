"""Feature maps built from quadrature rules, plus the randomized baselines.

A FeatureMap wraps a grid over the unit (standard normal) spectrum with a
bandwidth gamma; the effective frequencies are sqrt(2 gamma) times the
stored points, so one grid serves every bandwidth.  The kernel estimate is

    k~(x - y) = sum_i a_i cos(w_i'(x - y)),

which works for signed weights too.  Dense and Smolyak grids carry a
record of the rule they expand, and for them the estimate is computed in
factored form by ``grids.structured_cos_sum`` (a product, or a signed sum
of products, of one-dimensional cosine sums).  Every other rule takes the
generic path, one cosine per point per displacement, computed in blocks
of displacements through one reused phase buffer.  The explicit real
embedding

    z(x) = [sqrt(a_i) cos(w_i'x)]_i ++ [sqrt(a_i) sin(w_i'x)]_i

needs non-negative weights and satisfies <z(x), z(y)> = k~(x - y).
Feature counts are always quoted as D quadrature points (the embedding has
2D real coordinates).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import EmbeddingUnsupportedError
from .grids import (
    GridQuadrature,
    grid_from_json,
    grid_to_json,
    structured_cos_sum,
    subsample_dense_grid,
)
from .kernels import AnovaKernel

METHOD_TAGS = ("rff", "qmc", "dense", "sparse", "subsampled", "poly_exact",
               "reweighted", "anova")

MAX_DISTINCT_VALUES = 64

# phase entries (displacements x points) the generic estimator holds at once
PHASE_BUFFER = 2**20


@dataclass(frozen=True)
class FeatureMap:
    """A grid packaged for embedding data at bandwidth gamma."""

    grid: GridQuadrature
    method: str
    gamma: float

    def __post_init__(self):
        if self.method not in METHOD_TAGS:
            raise ValueError(f"unknown method tag {self.method!r}")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")

    @property
    def d(self) -> int:
        return self.grid.d

    @property
    def count(self) -> int:
        return self.grid.count

    @cached_property
    def frequencies(self) -> np.ndarray:
        return self.grid.points * math.sqrt(2.0 * self.gamma)

    @cached_property
    def _sqrt_weights(self) -> np.ndarray:
        if not self.grid.nonnegative:
            raise EmbeddingUnsupportedError(
                "negative quadrature weights admit no real embedding; "
                "use approx_kernel instead")
        return np.sqrt(self.grid.weights)

    def approx(self, u: np.ndarray) -> float | np.ndarray:
        """k~ at displacement(s) u, shape (d,) or (n, d).

        Factored from ``grid.structure`` when the grid has one, otherwise
        summed over the points.
        """
        u = np.asarray(u, dtype=float)
        single = u.ndim == 1
        U = np.atleast_2d(u)
        if U.shape[1] != self.d:
            raise ValueError(f"expected dimension {self.d}, got {U.shape[1]}")
        if self.grid.structure is not None:
            out = structured_cos_sum(self.grid.structure,
                                     U * math.sqrt(2.0 * self.gamma))
        elif self.count == 0:
            out = np.zeros(U.shape[0])
        else:
            out = self._approx_points(U)
        return float(out[0]) if single else out

    def _approx_points(self, U: np.ndarray) -> np.ndarray:
        rows = max(1, min(U.shape[0], PHASE_BUFFER // self.count))
        F = self.frequencies.T
        P = np.empty((rows, self.count))
        out = np.empty(U.shape[0])
        for start in range(0, U.shape[0], rows):
            block = U[start:start + rows]
            phases = P[:block.shape[0]]
            np.matmul(block, F, out=phases)
            np.cos(phases, out=phases)
            out[start:start + rows] = phases @ self.grid.weights
        return out

    def approx_kernel(self, x: np.ndarray, y: np.ndarray) -> float:
        """k~(x, y) = sum_i a_i cos(w_i'(x - y))."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != (self.d,) or y.shape != (self.d,):
            raise ValueError(f"inputs must have shape ({self.d},)")
        return float(self.approx(x - y))

    def embed(self, x: np.ndarray) -> np.ndarray:
        """Real features [sqrt(a) cos(w'x)] ++ [sqrt(a) sin(w'x)], length 2D."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.d,):
            raise ValueError(f"input must have shape ({self.d},)")
        phases = self.frequencies @ x
        s = self._sqrt_weights
        return np.concatenate([s * np.cos(phases), s * np.sin(phases)])

    def embed_batch(self, X: np.ndarray) -> np.ndarray:
        """Row-wise embedding of an (n, d) data matrix, giving (n, 2D)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        phases = X @ self.frequencies.T
        s = self._sqrt_weights
        return np.hstack([np.cos(phases) * s, np.sin(phases) * s])


def rff(d: int, D: int, gamma: float, seed: int) -> FeatureMap:
    """Random Fourier features: D i.i.d. spectral samples, weights 1/D."""
    if d < 1 or D < 1:
        raise ValueError("d and D must be positive")
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((D, d))
    grid = GridQuadrature(points, np.full(D, 1.0 / D),
                          provenance=f"rff(d={d}, D={D}, seed={seed})")
    return FeatureMap(grid, "rff", gamma)


def _primes(count: int) -> list[int]:
    # enough of a sieve for the first 1000 primes (1000th prime is 7919)
    limit = 8000
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    primes = np.flatnonzero(sieve)
    if count > primes.size:
        raise ValueError(f"prime table covers only {primes.size} dimensions")
    return primes[:count].tolist()


def radical_inverse(n: int, base: int) -> float:
    """Van der Corput digit reversal of n in the given base."""
    f, r = 1.0, 0.0
    while n > 0:
        f /= base
        r += f * (n % base)
        n //= base
    return r


def halton_points(d: int, D: int) -> np.ndarray:
    """First D unscrambled Halton points in (0, 1)^d, index starting at 1."""
    if d > 1000:
        raise ValueError("Halton prime table is bounded at d = 1000")
    bases = _primes(d)
    return np.array([[radical_inverse(n, b) for b in bases]
                     for n in range(1, D + 1)])


# Rational approximation of the standard normal quantile (absolute error
# below 1.2e-9 on its own), sharpened by one Newton step on the CDF.
_ICDF_A = (-3.969683028665376e+01, 2.209460984245205e+02,
           -2.759285104469687e+02, 1.383577518672690e+02,
           -3.066479806614716e+01, 2.506628277459239e+00)
_ICDF_B = (-5.447609879822406e+01, 1.615858368580409e+02,
           -1.556989798598866e+02, 6.680131188771972e+01,
           -1.328068155288572e+01)
_ICDF_C = (-7.784894002430293e-03, -3.223964580411365e-01,
           -2.400758277161838e+00, -2.549732539343734e+00,
           4.374664141464968e+00, 2.938163982698783e+00)
_ICDF_D = (7.784695709041462e-03, 3.224671290700398e-01,
           2.445134137142996e+00, 3.754408661907416e+00)

_norm_cdf_scalar = np.frompyfunc(lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0)), 1, 1)


def norm_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF via erfc (elementwise)."""
    return _norm_cdf_scalar(np.asarray(x, dtype=float)).astype(float)


def _inv_norm_raw(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    out = np.empty_like(p)
    a, b, c, dd = _ICDF_A, _ICDF_B, _ICDF_C, _ICDF_D
    p_low, p_high = 0.02425, 1 - 0.02425

    low = p < p_low
    high = p > p_high
    mid = ~(low | high)

    if mid.any():
        q = p[mid] - 0.5
        r = q * q
        num = ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
        den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        out[mid] = num * q / den
    if low.any():
        q = np.sqrt(-2.0 * np.log(p[low]))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((dd[0] * q + dd[1]) * q + dd[2]) * q + dd[3]) * q + 1.0
        out[low] = num / den
    if high.any():
        q = np.sqrt(-2.0 * np.log1p(-p[high]))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((dd[0] * q + dd[1]) * q + dd[2]) * q + dd[3]) * q + 1.0
        out[high] = -num / den
    return out


def inv_norm_cdf(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile, Newton-refined past the test tolerances."""
    p = np.asarray(p, dtype=float)
    if ((p <= 0) | (p >= 1)).any():
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    x = _inv_norm_raw(p)
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return x - (norm_cdf(x) - p) / pdf


def qmc_halton(d: int, D: int, gamma: float) -> FeatureMap:
    """Quasi-Monte-Carlo features: Halton points through the normal quantile."""
    if d < 1 or D < 1:
        raise ValueError("d and D must be positive")
    points = inv_norm_cdf(halton_points(d, D))
    grid = GridQuadrature(points, np.full(D, 1.0 / D),
                          provenance=f"qmc_halton(d={d}, D={D})")
    return FeatureMap(grid, "qmc", gamma)


def subsampled_feature_map(L: int, d: int, D: int, gamma: float,
                           seed: int) -> FeatureMap:
    """Weight-proportional subsample of the L^d dense grid as a feature map."""
    return FeatureMap(subsample_dense_grid(L, d, D, seed), "subsampled", gamma)


def distinct_values_per_coordinate(fm: FeatureMap) -> list[np.ndarray]:
    """Distinct frequency values per coordinate (bitwise equality)."""
    return [np.unique(fm.frequencies[:, j]) for j in range(fm.d)]


def can_fast_embed(fm: FeatureMap, max_distinct: int = MAX_DISTINCT_VALUES) -> bool:
    return all(v.size <= max_distinct for v in distinct_values_per_coordinate(fm))


def embed_grid_fast(fm: FeatureMap, X: np.ndarray,
                    max_distinct: int = MAX_DISTINCT_VALUES) -> np.ndarray:
    """Grid-structured embedding with n * d * V multiplies instead of n * d * D.

    Each data column is multiplied by each distinct node value once; the
    phases w_i'x are then assembled by indexed sums.  Falls back to the
    generic embedding when some coordinate has more than ``max_distinct``
    distinct values (see ``can_fast_embed`` for the flag).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != fm.d:
        raise ValueError(f"expected dimension {fm.d}, got {X.shape[1]}")
    freqs = fm.frequencies
    groups = []
    for j in range(fm.d):
        vals, inverse = np.unique(freqs[:, j], return_inverse=True)
        if vals.size > max_distinct:
            return fm.embed_batch(X)
        groups.append((vals, inverse))
    phases = np.zeros((X.shape[0], fm.count))
    for j, (vals, inverse) in enumerate(groups):
        per_value = X[:, j:j + 1] * vals[None, :]
        phases += per_value[:, inverse]
    s = fm._sqrt_weights
    return np.hstack([np.cos(phases) * s, np.sin(phases) * s])


@dataclass(frozen=True)
class AnovaFeatureMap:
    """Concatenation of per-subset feature maps approximating an ANOVA sum."""

    sub_maps: tuple[tuple[tuple[int, ...], FeatureMap], ...]
    d: int

    def __post_init__(self):
        for S, fm in self.sub_maps:
            if fm.d != len(S):
                raise ValueError(f"sub-map dimension {fm.d} does not match |S|={len(S)}")
            if max(S) > self.d or min(S) < 1:
                raise ValueError(f"subset {S} outside 1..{self.d}")

    @property
    def count(self) -> int:
        return sum(fm.count for _, fm in self.sub_maps)

    def approx(self, u: np.ndarray) -> float | np.ndarray:
        u = np.asarray(u, dtype=float)
        total = 0.0 if u.ndim == 1 else np.zeros(u.shape[0])
        for S, fm in self.sub_maps:
            idx = np.array(S) - 1
            total = total + fm.approx(u[..., idx])
        return float(total) if u.ndim == 1 else total

    def approx_kernel(self, x: np.ndarray, y: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return float(self.approx(x - y))

    def embed(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        parts = [fm.embed(x[np.array(S) - 1]) for S, fm in self.sub_maps]
        return np.concatenate(parts)

    def embed_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        parts = [fm.embed_batch(X[:, np.array(S) - 1]) for S, fm in self.sub_maps]
        return np.hstack(parts)


def anova_compose(kernel: AnovaKernel,
                  constructor: Callable[[int, int], FeatureMap],
                  D_S: int) -> AnovaFeatureMap:
    """Feature map for an ANOVA kernel from per-subset sub-maps.

    ``constructor(dim, D_S)`` must return a FeatureMap over ``dim``
    dimensions; the composite estimate is the sum of sub-map estimates on
    the restricted coordinates, and the embedding is their concatenation
    (total length sum over S of 2 D_S).
    """
    sub_maps = tuple((S, constructor(len(S), D_S)) for S in kernel.subsets)
    return AnovaFeatureMap(sub_maps, kernel.d)


def feature_map_to_json(fm: FeatureMap) -> dict:
    payload = grid_to_json(fm.grid)
    payload["method"] = fm.method
    payload["gamma"] = fm.gamma
    return payload


def feature_map_from_json(payload: dict) -> FeatureMap:
    grid = grid_from_json(payload)
    return FeatureMap(grid, str(payload["method"]), float(payload["gamma"]))


def save_feature_map(fm: FeatureMap, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(feature_map_to_json(fm), fh)


def load_feature_map(path: str) -> FeatureMap:
    with open(path) as fh:
        return feature_map_from_json(json.load(fh))
