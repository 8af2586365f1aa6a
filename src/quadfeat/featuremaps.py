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
of displacements through one reused phase buffer.  Both paths take their
cosines from half the phase, cos x = 2 / (1 + tan^2(x/2)) - 1
(``grids._cos_from_half``), because numpy's float64 tangent is vectorized
where its cosine is not; the estimate then differs from the np.cos sum by
a few eps times sum_i |a_i|.  The explicit real embedding

    z(x) = [sqrt(a_i) cos(w_i'x)]_i ++ [sqrt(a_i) sin(w_i'x)]_i

needs non-negative weights and satisfies <z(x), z(y)> = k~(x - y).
Feature counts are always quoted as D quadrature points (the embedding has
2D real coordinates).  Every embedding is written once, into its final
columns: the half-phases w_i'x / 2 go straight into the sine half of the
output, both halves are taken from their one tangent t by
cos x = 2 / (1 + t^2) - 1 and sin x = 2t / (1 + t^2) (``_cos_from_half``
again), and both are scaled in place, so the peak allocation is the
(n, 2D) output itself.  Each feature lies within 4 eps sqrt(a_i)
(absolute) of the np.cos/np.sin formula above.  Callers may
pass that output (``out=``), for instance a column slice of a wider array
or an ``np.memmap``; an ANOVA map hands each sub-map its slice of one
composite output.

The baselines are random Fourier features (i.i.d. normal points) and QMC
features, Halton points mapped through ``statistics.NormalDist``'s quantile.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from statistics import NormalDist
from typing import Callable

import numpy as np

from .errors import EmbeddingUnsupportedError, config_field
from .grids import (
    GridQuadrature,
    _cos_from_half,
    grid_from_json,
    grid_to_json,
    structured_cos_sum,
    subsample_dense_grid,
)
from .kernels import AnovaKernel, GaussianKernel, _number

# each CLI method name -> the tag its feature maps carry
METHOD_TAGS = {"rff": "rff", "qmc": "qmc", "dense": "dense", "sparse": "sparse",
               "subsampled": "subsampled", "poly-exact": "poly_exact",
               "reweighted": "reweighted"}

# phase entries (displacements x points) the generic estimator holds at once
PHASE_BUFFER = 2**20


class _MapShell:
    """What FeatureMap and AnovaFeatureMap share: the input checks and the
    single-pair and single-row forms of their ``approx`` and ``embed_batch``.
    """

    def _check_width(self, width: int) -> None:
        if width != self.d:
            raise ValueError(f"expected dimension {self.d}, got {width}")

    def _rows(self, u, what: str = "displacements") -> tuple[np.ndarray, bool]:
        """``u`` as an (n, d) float array, and whether it was one (d,) row;
        other ranks and widths are refused."""
        u = np.asarray(u, dtype=float)
        if u.ndim not in (1, 2):
            raise ValueError(f"{what} must have shape ({self.d},) or "
                             f"(n, {self.d}), got shape {u.shape}")
        self._check_width(u.shape[-1])
        return np.atleast_2d(u), u.ndim == 1

    def approx_kernel(self, x: np.ndarray, y: np.ndarray) -> float:
        """k~(x, y) = k~(x - y)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != (self.d,) or y.shape != (self.d,):
            raise ValueError(f"inputs must have shape ({self.d},)")
        return float(self.approx(x - y))

    def embed(self, x: np.ndarray) -> np.ndarray:
        """The embedding of one point, a row of ``embed_batch``: length 2D."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.d,):
            raise ValueError(f"input must have shape ({self.d},)")
        return self.embed_batch(x[None, :])[0]


@dataclass(frozen=True)
class FeatureMap(_MapShell):
    """A grid packaged for embedding data at bandwidth gamma."""

    grid: GridQuadrature
    method: str
    gamma: float

    def __post_init__(self):
        if self.method not in METHOD_TAGS.values():
            raise ValueError(f"unknown method tag {self.method!r}")
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma!r}")

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
        U, single = self._rows(u)
        if self.grid.structure is not None:
            out = structured_cos_sum(self.grid.structure,
                                     U * math.sqrt(2.0 * self.gamma))
        else:
            out = self._approx_points(U)
        return float(out[0]) if single else out

    def _approx_points(self, U: np.ndarray) -> np.ndarray:
        # the buffer takes the half-phases w_i'u / 2 (halving is exact) and
        # then their doubled-angle cosines, from numpy's vectorized tangent
        rows = max(1, min(U.shape[0], PHASE_BUFFER // max(1, self.count)))
        F = 0.5 * self.frequencies.T
        P = np.empty((rows, self.count))
        out = np.empty(U.shape[0])
        for start in range(0, U.shape[0], rows):
            block = U[start:start + rows]
            half = P[:block.shape[0]]
            np.matmul(block, F, out=half)
            _cos_from_half(half)
            out[start:start + rows] = half @ self.grid.weights
        return out

    def embed_batch(self, X: np.ndarray, *,
                    out: np.ndarray | None = None) -> np.ndarray:
        """Row-wise real features [sqrt(a) cos(w'x)] ++ [sqrt(a) sin(w'x)]
        of an (n, d) data matrix, giving (n, 2D).

        The features are written into ``out`` when it is given (a float64
        array of shape (n, 2D); strided views and memmaps are fine), else
        into a new array, and that array is returned.  Inputs are checked
        before anything is written.  Each feature lies within 4 eps sqrt(a_i)
        of the np.cos/np.sin formula.
        """
        X, _ = self._rows(X, "inputs")
        s = self._sqrt_weights
        out = _embedding_output(out, (X.shape[0], 2 * self.count))
        # the half-phases w_i'x / 2 go into the sine half, and both halves
        # come from their one tangent
        cos, sin = out[:, :self.count], out[:, self.count:]
        np.matmul(X, 0.5 * self.frequencies.T, out=sin)
        _cos_from_half(sin, cos)
        cos *= s
        sin *= s
        return out


def _embedding_output(out: np.ndarray | None, shape: tuple[int, int]) -> np.ndarray:
    """``out`` checked against ``shape``, or a new array of that shape."""
    if out is None:
        return np.empty(shape)
    if not isinstance(out, np.ndarray) or out.dtype != np.float64 \
            or out.shape != shape:
        raise ValueError(f"out must be a float64 array of shape {shape}")
    return out


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
    """First D unscrambled Halton points in (0, 1)^d, index starting at 1.

    ``radical_inverse`` on every (index, base) pair at once: the digit loop
    runs until every index is used up, and a spent index only adds zeros,
    so each entry is bitwise the scalar result.
    """
    if d > 1000:
        raise ValueError("Halton prime table is bounded at d = 1000")
    bases = np.array(_primes(d))
    n = np.repeat(np.arange(1, D + 1)[:, None], d, axis=1)
    f, r = np.ones((D, d)), np.zeros((D, d))
    while n.any():
        f /= bases
        r += f * (n % bases)
        n //= bases
    return r


_inv_cdf = np.vectorize(NormalDist().inv_cdf, otypes=[float])


def inv_norm_cdf(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile, elementwise, by ``statistics.NormalDist``
    (Wichura's AS 241, accurate to about 1e-16 relative)."""
    p = np.asarray(p, dtype=float)
    if ((p <= 0) | (p >= 1)).any():
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    return _inv_cdf(p)


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


def embed_grid_fast(fm: FeatureMap, X: np.ndarray) -> np.ndarray:
    """Grid-structured embedding with n * d * V multiplies instead of n * d * D.

    Each data column is multiplied by each distinct node value once; the
    phases w_i'x are then assembled by indexed sums.  It agrees with
    ``fm.embed_batch(X)`` to rounding, and is slower on every map measured.
    It keeps np.cos and np.sin, so it is also an oracle independent of
    ``embed_batch``'s half-angle identities.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != fm.d:
        raise ValueError(f"expected dimension {fm.d}, got {X.shape[1]}")
    phases = np.zeros((X.shape[0], fm.count))
    for j in range(fm.d):
        vals, inverse = np.unique(fm.frequencies[:, j], return_inverse=True)
        phases += (X[:, j:j + 1] * vals[None, :])[:, inverse]
    s = fm._sqrt_weights
    return np.hstack([np.cos(phases) * s, np.sin(phases) * s])


@dataclass(frozen=True)
class AnovaFeatureMap(_MapShell):
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
        """The sum of the sub-map estimates at displacement(s) u, shape (d,)
        or (n, d)."""
        U, single = self._rows(u)
        total = np.zeros(U.shape[0])
        for S, fm in self.sub_maps:
            total += fm.approx(U[:, np.array(S) - 1])
        return float(total[0]) if single else total

    def embed_batch(self, X: np.ndarray, *,
                    out: np.ndarray | None = None) -> np.ndarray:
        """The sub-map embeddings side by side, each written by its sub-map
        into its own columns of one (n, 2 * count) output."""
        X, _ = self._rows(X, "inputs")
        for _, fm in self.sub_maps:
            fm._sqrt_weights  # a signed sub-map refuses before anything is written
        out = _embedding_output(out, (X.shape[0], 2 * self.count))
        start = 0
        for S, fm in self.sub_maps:
            stop = start + 2 * fm.count
            fm.embed_batch(X[:, np.array(S) - 1], out=out[:, start:stop])
            start = stop
        return out


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
    """The map of a ``feature_map_to_json`` payload; a bad field raises
    ConfigError keyed by the field, as in ``grid_from_json``."""
    field = functools.partial(config_field, payload, where="feature map file")
    grid = grid_from_json(payload)
    gamma = field("gamma", lambda g: GaussianKernel(_number(g)).gamma)
    return field("method", lambda m: FeatureMap(grid, m, gamma))


def save_feature_map(fm: FeatureMap, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(feature_map_to_json(fm), fh)


def load_feature_map(path: str) -> FeatureMap:
    with open(path) as fh:
        return feature_map_from_json(json.load(fh))
