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
2D real coordinates).  Plain and ANOVA maps share one embedding kernel
(``_embed``), in which a plain map is one part and an ANOVA map has one
part per sub-map.  Each part first writes its half-phases w_i'x / 2, one
product over the whole input, into the sine columns of the output; a
product per row block would change their last bits.  Then the rows are
taken in blocks of at most ``BLOCK`` phase entries: a block's half-phases
of every part are gathered into one contiguous scratch array, both halves
come from their one tangent t by cos x = 2 / (1 + t^2) - 1 and
sin x = 2t / (1 + t^2) (``_cos_from_half`` again), are scaled by sqrt(a_i)
and are written back to their final columns.  The passes are blocked
because numpy's tangent is about a third slower on the strided columns of
the output than on a contiguous array, and because each of the passes over
an output larger than the cache would go to memory; a block's two scratch
arrays stay in a core's L2 cache.  So the peak allocation is the (n, 2D)
output plus a fixed scratch of 2 ``BLOCK`` entries (more only when one row
holds more than ``BLOCK`` points).  Each feature lies within 4 eps
sqrt(a_i) (absolute) of the np.cos/np.sin formula above.  Callers may pass
that output (``out=``), for instance a column slice of a wider array or an
``np.memmap``.  Inputs with a NaN or infinite entry are refused, naming the
first such row, before anything is written.

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

# phase entries (rows x points) one blocked pass holds at once: the generic
# estimator's buffer, and each of the embedding kernel's two scratch arrays
BLOCK = 2**15


def _block_rows(count: int) -> int:
    """Rows of ``count`` points each that one block of ``BLOCK`` entries holds."""
    return max(1, BLOCK // max(1, count))


class _MapShell:
    """What FeatureMap and AnovaFeatureMap share: the input checks and the
    single-pair and single-row forms of their ``approx`` and ``embed_batch``.
    """

    def _check_width(self, width: int) -> None:
        if width != self.d:
            raise ValueError(f"expected dimension {self.d}, got {width}")

    def _rows(self, u, what: str = "displacements") -> tuple[np.ndarray, bool]:
        """``u`` as an (n, d) float array, and whether it was one (d,) row;
        other ranks and widths, and NaN or infinite entries, are refused."""
        u = np.asarray(u, dtype=float)
        if u.ndim not in (1, 2):
            raise ValueError(f"{what} must have shape ({self.d},) or "
                             f"(n, {self.d}), got shape {u.shape}")
        self._check_width(u.shape[-1])
        U = np.atleast_2d(u)
        finite = np.isfinite(U).all(axis=1)
        if not finite.all():
            raise ValueError(f"{what} must be finite; row "
                             f"{np.argmin(finite)} is not")
        return U, u.ndim == 1

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
        summed over the points.  A NaN or infinite displacement raises
        ValueError naming its row.
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
        rows = max(1, min(U.shape[0], _block_rows(self.count)))
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
        (shape, width, and that every entry is finite) before anything is
        written.  Each feature lies within 4 eps sqrt(a_i) of the
        np.cos/np.sin formula.
        """
        X, _ = self._rows(X, "inputs")
        return _embed(X, ((slice(None), self),), out)


def _embed(X: np.ndarray, parts, out: np.ndarray | None) -> np.ndarray:
    """The embeddings of ``parts``, (input columns, FeatureMap) pairs, side
    by side: part p takes X[:, columns] and fills the next 2 count_p
    columns of ``out`` (checked, or a new array), cosines then sines.

    The half-phases go into the sine columns by one product per part over
    the whole input; then, a block of rows at a time, all parts' half-phases
    are gathered into one contiguous scratch array, turned into both halves
    and scaled there, and written back.
    """
    s = np.concatenate([fm._sqrt_weights for _, fm in parts])  # signed maps refuse here
    n, total = X.shape[0], s.size
    if out is None:
        out = np.empty((n, 2 * total))
    elif not isinstance(out, np.ndarray) or out.dtype != np.float64 \
            or out.shape != (n, 2 * total):
        raise ValueError(f"out must be a float64 array of shape {(n, 2 * total)}")
    spans = []  # (sine columns of out, cosine columns of out, scratch columns)
    start = 0
    for columns, fm in parts:
        cos = slice(2 * start, 2 * start + fm.count)
        sin = slice(cos.stop, cos.stop + fm.count)
        np.matmul(X[:, columns], 0.5 * fm.frequencies.T, out=out[:, sin])
        spans.append((sin, cos, slice(start, start + fm.count)))
        start += fm.count
    rows = max(1, min(n, _block_rows(total)))
    H, C = np.empty((rows, total)), np.empty((rows, total))
    for first in range(0, n, rows):
        block = out[first:first + rows]
        h, c = H[:block.shape[0]], C[:block.shape[0]]
        for sin, _, part in spans:
            h[:, part] = block[:, sin]
        _cos_from_half(h, c)
        c *= s
        h *= s
        for sin, cos, part in spans:
            block[:, cos] = c[:, part]
            block[:, sin] = h[:, part]
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

    @cached_property
    def _parts(self) -> tuple[tuple[np.ndarray, FeatureMap], ...]:
        """Each sub-map with the 0-based input columns of its subset."""
        return tuple((np.array(S) - 1, fm) for S, fm in self.sub_maps)

    def approx(self, u: np.ndarray) -> float | np.ndarray:
        """The sum of the sub-map estimates at displacement(s) u, shape (d,)
        or (n, d)."""
        U, single = self._rows(u)
        total = np.zeros(U.shape[0])
        for columns, fm in self._parts:
            total += fm.approx(U[:, columns])
        return float(total[0]) if single else total

    def embed_batch(self, X: np.ndarray, *,
                    out: np.ndarray | None = None) -> np.ndarray:
        """The sub-map embeddings side by side in one (n, 2 * count) output,
        bitwise what each sub-map's ``embed_batch`` gives; ``out`` and the
        checks are as for ``FeatureMap.embed_batch``."""
        X, _ = self._rows(X, "inputs")
        return _embed(X, self._parts, out)


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
