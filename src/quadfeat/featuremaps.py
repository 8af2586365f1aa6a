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
a few eps times sum_i |a_i|.  The generic path also estimates at several
scales s U of one displacement array in the same pass
(``_scaled_estimates``, which ``error_curve`` uses for a sweep's
diameters): where a scale is exactly 2^k times the one before it, the
block's cosines are doubled in place, cos 2x = 2 cos^2 x - 1, instead of
taken from a new tangent, at most ``MAX_DOUBLINGS`` times from one
tangent.  Each doubling can multiply the cosines' absolute error by 4, so
such an estimate stays within 5 4^k eps sum_i |a_i| of the one-scale
estimate; every other scale's estimate is bitwise the one-scale one.
The explicit real embedding

    z(x) = [sqrt(a_i) cos(w_i'x)]_i ++ [sqrt(a_i) sin(w_i'x)]_i

needs non-negative weights and satisfies <z(x), z(y)> = k~(x - y).
A map's feature count D is its number of cosine terms, and its embedding
has 2D real coordinates.  cos is even, so a point w and its twin -w are
one term of summed weight: a map folds its rule's twins once
(``grids.fold_twins``) and estimates and embeds with the terms that are
left.  A poly-exact rule [P; -P], [a/2; a/2] has D = |P|, and a
subsampled grid at small d loses the twins it drew.  Dense and Smolyak
maps are not folded: their D is their point count, and their factored
estimate folds each one-dimensional rule instead.  Their JSON files keep
the structure record, so a map read back estimates by the same factored
path, bitwise.

A map caches one array for its frequencies: half of them, w_i / 2, as a
read-only C-contiguous (d, D) array (``_half_frequencies``; halving is
exact, and ``frequencies`` is rebuilt from it on demand).  Every phase
product, in the estimator and in the embedding alike, is a block of rows
times that array, X[block] @ (w / 2), giving the half-phases w_i'x / 2 that
the tangent identities take, in blocks of ``_block_rows(D)`` rows, at most
``BLOCK`` phase entries.  The rows are C-contiguous (``_rows`` copies only
inputs that are not), so a row's phases depend on its values and on its
place in its block, not on the input's layout.  Plain and ANOVA maps share
one embedding kernel (``_embed``), in which a plain map is one part and an
ANOVA map has one part per sub-map.  It takes one part at a time, a block
of that part's rows at a time: the block's half-phases go into a scratch
array, both halves come from their one tangent t by
cos x = 2 / (1 + t^2) - 1 and sin x = 2t / (1 + t^2) (``_cos_from_half``
again), are scaled by sqrt(a_i), and are written to the part's cosine and
sine columns once.  So an ANOVA map's embedding is, by construction,
bitwise the side-by-side embeddings of its sub-maps, and a run of whole
row blocks embeds alone as it does inside a larger batch.  The two scratch arrays, of ``BLOCK``
entries each, stay in a core's L2 cache, where numpy's tangent is faster
than on the strided columns of the output.  The peak allocation is the
(n, 2D) output plus that fixed scratch (one row each when a part has more
than ``BLOCK`` cosine terms) and, for an ANOVA map, a buffer that gathers
a block's subset columns.  Each feature lies within 4 eps sqrt(a_i)
(absolute) of the np.cos/np.sin formula above at the same phases; phases
formed by another product differ from these by rounding.  Callers may
pass that output (``out=``), for instance a column slice of a wider array
or an ``np.memmap``.  Inputs with a NaN or infinite entry are refused,
naming the first such row, before anything is written.

The baselines are random Fourier features (i.i.d. normal points) and QMC
features, Halton points mapped through the normal quantile (``inv_norm_cdf``,
the standard library's ``statistics.NormalDist().inv_cdf`` on each entry).
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
    BLOCK,
    GridQuadrature,
    _block_rows,
    _cos_from_half,
    fold_twins,
    grid_from_json,
    grid_to_json,
    restore_structure,
    structured_cos_sum,
    subsample_dense_grid,
)
from .kernels import AnovaKernel, GaussianKernel, _number

# each CLI method name -> the tag its feature maps carry
METHOD_TAGS = {"rff": "rff", "qmc": "qmc", "dense": "dense", "sparse": "sparse",
               "subsampled": "subsampled", "poly-exact": "poly_exact",
               "reweighted": "reweighted"}

# doublings c <- 2 c^2 - 1 that one tangent's cosines may take: each can
# multiply their absolute error by up to 4
MAX_DOUBLINGS = 3


def _doublings(scales) -> list[int]:
    """For each of the ascending ``scales``, the k >= 1 in-place doublings
    that take the cosines at the scale before it to its own, or 0 where it
    needs a new tangent: k is taken when the scale is exactly 2^k times the
    one before (multiplying by 2^k is exact in floating point) and its chain
    has taken at most ``MAX_DOUBLINGS`` doublings since its tangent."""
    steps, used = [], MAX_DOUBLINGS
    for prev, s in zip([math.nan, *scales], scales):
        k = next((k for k in range(1, MAX_DOUBLINGS - used + 1)
                  if prev * 2.0**k == s), 0)
        used = used + k if k else 0
        steps.append(k)
    return steps


def _double_cos(c: np.ndarray) -> np.ndarray:
    """cos 2x = 2 cos^2 x - 1 of the cosines c, written over c and returned."""
    np.square(c, out=c)
    c *= 2.0
    c -= 1.0
    return c


class _MapShell:
    """What FeatureMap and AnovaFeatureMap share: the input checks and the
    single-pair and single-row forms of their ``approx`` and ``embed_batch``.
    """

    def _check_width(self, width: int) -> None:
        if width != self.d:
            raise ValueError(f"expected dimension {self.d}, got {width}")

    def _rows(self, u, what: str = "displacements") -> tuple[np.ndarray, bool]:
        """``u`` as a C-contiguous (n, d) float array (a copy only when it is
        not one already, so the phase products see one layout), and whether
        it was one (d,) row; other ranks and widths, and NaN or infinite
        entries, are refused."""
        u = np.asarray(u, dtype=float)
        if u.ndim not in (1, 2):
            raise ValueError(f"{what} must have shape ({self.d},) or "
                             f"(n, {self.d}), got shape {u.shape}")
        self._check_width(u.shape[-1])
        U = np.ascontiguousarray(np.atleast_2d(u))
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

    @cached_property
    def _terms(self) -> tuple[np.ndarray, np.ndarray]:
        """The points and weights of the estimate's cosine terms: the first
        of each pair of twins w, -w with the summed weight, since
        a cos(w'u) + b cos(-w'u) = (a + b) cos(w'u), and the grid's own
        arrays when it has no twins or has a ``structure`` record."""
        g = self.grid
        if g.structure is None:
            keep, weights = fold_twins(g.points, g.weights)
            if keep.size < g.count:
                return g.points[keep], weights
        return g.points, g.weights

    @property
    def count(self) -> int:
        """D, the number of cosine terms (the grid's points less its twins)."""
        return self._terms[0].shape[0]

    @property
    def weights(self) -> np.ndarray:
        """The weight a_i of each cosine term, in the order of ``frequencies``."""
        return self._terms[1]

    @cached_property
    def _half_frequencies(self) -> np.ndarray:
        """Half of every frequency, w_i / 2, as one read-only C-contiguous
        (d, count) array: the operand of every phase product, whose rows
        X[block] @ it are the half-phases w_i'x / 2.  It is the one array a
        map caches for its frequencies."""
        half = np.multiply(self._terms[0].T, 0.5 * math.sqrt(2.0 * self.gamma),
                           out=np.empty((self.d, self.count)))
        half.flags.writeable = False
        return half

    @property
    def frequencies(self) -> np.ndarray:
        """The frequencies w_i = sqrt(2 gamma) p_i, (count, d): a new array,
        twice ``_half_frequencies`` transposed (halving and doubling are
        exact)."""
        return 2.0 * self._half_frequencies.T

    @cached_property
    def _sqrt_weights(self) -> np.ndarray:
        if not self.grid.nonnegative:
            raise EmbeddingUnsupportedError(
                "negative quadrature weights admit no real embedding; "
                "use approx_kernel instead")
        return np.sqrt(self.weights)

    def approx(self, u: np.ndarray) -> float | np.ndarray:
        """k~ at displacement(s) u, shape (d,) or (n, d).

        Factored from ``grid.structure`` when the grid has one, otherwise
        summed over the ``count`` cosine terms.  A NaN or infinite
        displacement raises ValueError naming its row.
        """
        U, single = self._rows(u)
        out = self._estimate(U)
        return float(out[0]) if single else out

    def _estimate(self, U: np.ndarray) -> np.ndarray:
        """k~ at each row of an (n, d) array that ``_rows`` has checked."""
        if self.grid.structure is not None:
            return structured_cos_sum(self.grid.structure,
                                      U * math.sqrt(2.0 * self.gamma))
        return self._scaled_estimates(U, (1.0,))[0]

    def _scaled_estimates(self, U: np.ndarray, scales) -> np.ndarray:
        """k~ at s U for each of the ascending, distinct ``scales``, one row
        each, summed over the cosine terms whatever the grid's structure.

        One pass over U in blocks of ``_block_rows(count)`` rows, through one
        buffer: in each block the scales are taken in order.  A scale that
        ``_doublings`` chains to the one before it takes that one's cosines
        by k in-place doublings c <- 2 c^2 - 1 (``_double_cos``); any other
        scale takes the block's half-phases (s U[block]) @ (w / 2) and their
        cosines from the tangent, which are bitwise those of a one-scale
        call on s U.  Only a doubled row differs from that, by at most
        5 4^k eps sum_i |a_i|.
        """
        n = U.shape[0]
        rows = max(1, min(n, _block_rows(self.count)))
        P = np.empty((rows, self.count))
        # the block's rows times s, for each tangent scale but 1
        X = np.empty((rows, self.d)) if any(s != 1.0 for s in scales) else None
        out = np.empty((len(scales), n))
        steps = _doublings(scales)
        for start in range(0, n, rows):
            block = slice(start, start + rows)
            x = U[block]
            half = P[:x.shape[0]]
            for s, k, estimate in zip(scales, steps, out):
                for _ in range(k):
                    _double_cos(half)
                if not k:
                    xs = x if s == 1.0 else np.multiply(x, s, out=X[:x.shape[0]])
                    np.matmul(xs, self._half_frequencies, out=half)
                    _cos_from_half(half)
                np.matmul(half, self.weights, out=estimate[block])
        return out

    def embed_batch(self, X: np.ndarray, *,
                    out: np.ndarray | None = None) -> np.ndarray:
        """Row-wise real features [sqrt(a) cos(w'x)] ++ [sqrt(a) sin(w'x)]
        of an (n, d) data matrix over the D = ``count`` cosine terms, giving
        (n, 2D).

        The features are written into ``out`` when it is given (a float64
        array of shape (n, 2D); strided views and memmaps are fine), else
        into a new array, and that array is returned.  Inputs are checked
        (shape, width, and that every entry is finite) before anything is
        written.  Each feature lies within 4 eps sqrt(a_i) of the
        np.cos/np.sin formula at the same phases.
        """
        X, _ = self._rows(X, "inputs")
        return _embed(X, ((slice(None), self),), out)


def _embed(X: np.ndarray, parts, out: np.ndarray | None) -> np.ndarray:
    """The embeddings of ``parts``, (input columns, FeatureMap) pairs, side
    by side: part p takes X[:, columns] and fills the next 2 count_p
    columns of ``out`` (checked, or a new array), cosines then sines.

    One part at a time, in blocks of ``_block_rows(count_p)`` rows: the
    block's half-phases, X[block, columns] @ ``_half_frequencies``, go into
    one scratch array, both halves come from their tangent there (the
    cosines into the other scratch array), are scaled by sqrt(a_i), and are
    written to the part's cosine and sine columns once.  A part's features
    are therefore bitwise those of its map embedded alone.  Index columns
    (an ANOVA subset) are gathered a block at a time into a third, small
    buffer, so nothing is allocated inside the loop.
    """
    roots = [fm._sqrt_weights for _, fm in parts]  # signed maps refuse here
    n, total = X.shape[0], sum(fm.count for _, fm in parts)
    if out is None:
        out = np.empty((n, 2 * total))
    elif not isinstance(out, np.ndarray) or out.dtype != np.float64 \
            or out.shape != (n, 2 * total):
        raise ValueError(f"out must be a float64 array of shape {(n, 2 * total)}")
    steps = [max(1, min(n, _block_rows(fm.count))) for _, fm in parts]
    size = max([BLOCK] + [fm.count for _, fm in parts])
    H, C = np.empty(size), np.empty(size)
    G = np.empty(max([step * fm.d for step, (columns, fm) in zip(steps, parts)
                      if not isinstance(columns, slice)], default=0))
    start = 0
    for (columns, fm), s, step in zip(parts, roots, steps):
        count, width = fm.count, fm.d
        cos = slice(2 * start, 2 * start + count)
        sin = slice(cos.stop, cos.stop + count)
        for first in range(0, n, step):
            m = min(step, n - first)
            x = X[first:first + m]
            if not isinstance(columns, slice):
                # "clip" writes into G directly; the default "raise" would
                # allocate a buffer for out on every block
                x = np.take(x, columns, axis=1, mode="clip",
                            out=G[:m * width].reshape(m, width))
            h, c = H[:m * count].reshape(m, count), C[:m * count].reshape(m, count)
            np.matmul(x, fm._half_frequencies, out=h)
            _cos_from_half(h, c)
            c *= s
            h *= s
            out[first:first + m, cos] = c
            out[first:first + m, sin] = h
        start += count
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

    Column j is ``radical_inverse`` of the indices 1..D in the j-th prime,
    all indices at once and one column at a time, the prime a scalar
    divisor: each column's digit loop runs until the largest index, D, is
    used up, and a spent index only adds zeros, so each entry is bitwise
    the scalar result.
    """
    if d > 1000:
        raise ValueError("Halton prime table is bounded at d = 1000")
    out = np.empty((D, d))
    for j, base in enumerate(_primes(d)):
        n, f, r = np.arange(1, D + 1), 1.0, np.zeros(D)
        while n.any():
            f /= base
            n, digit = np.divmod(n, base)
            r += f * digit
        out[:, j] = r
    return out


def inv_norm_cdf(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile, elementwise: ``statistics.NormalDist().inv_cdf``
    (Wichura's AS 241, accurate to about 1e-16 relative) on each entry, so
    every value is the standard library's, bitwise."""
    p = np.asarray(p, dtype=float)
    if not ((p > 0) & (p < 1)).all():
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    return np.fromiter(map(NormalDist().inv_cdf, p.ravel().tolist()), float,
                       p.size).reshape(p.shape)


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
    F = fm.frequencies
    for j in range(fm.d):
        vals, inverse = np.unique(F[:, j], return_inverse=True)
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
            if len(set(S)) != len(S):
                raise ValueError(f"subset {S} has repeated indices")

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
            total += fm._estimate(U.take(columns, axis=1))
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
    (total length twice the sum of the sub-maps' ``count``: 2 D_S per
    subset for sub-maps of D_S cosine terms, such as rff).
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
    ConfigError keyed by the field, as in ``grid_from_json``.  A dense or
    sparse map's file without a ``structure`` record, as written before
    grids kept theirs, gets the record whose rule has its d and D points,
    checked against its points as a stored record is."""
    field = functools.partial(config_field, payload, where="feature map file")
    grid = grid_from_json(payload)
    gamma = field("gamma", lambda g: GaussianKernel(_number(g)).gamma)
    fm = field("method", lambda m: FeatureMap(grid, m, gamma))
    if fm.method in ("dense", "sparse") and grid.structure is None:
        fm = FeatureMap(restore_structure(grid, fm.method), fm.method, gamma)
    return fm


def save_feature_map(fm: FeatureMap, path: str) -> None:
    # one write of the whole text: json.dump writes it in thousands of pieces,
    # which takes about twice as long for a poly-exact map's points
    with open(path, "w") as fh:
        fh.write(json.dumps(feature_map_to_json(fm)))


def load_feature_map(path: str) -> FeatureMap:
    with open(path) as fh:
        return feature_map_from_json(json.load(fh))
