"""Multi-dimensional quadrature point sets for the standard normal spectrum.

Three constructions:

* dense tensor grids: every combination of one-dimensional nodes, weight
  equal to the product of the per-dimension weights (L^d points);
* Smolyak sparse grids of level A, built by the combination technique as
  a signed sum of tensor blocks of the rules of size 2^m (level 0 uses
  the single-point rule);
* weight-proportional subsampling, which draws points i.i.d. with
  probability proportional to weight and assigns 1/D per draw, merging
  duplicates.  A lattice variant draws directly from the tensor-product
  law so grids far beyond the materialization cap can still be subsampled.

The Hermite rules of sizes 1, 2, 4, ..., 2^A share no node, so each point
of a Smolyak grid lies in exactly one tensor block, no weight cancels and
no points need merging; every point of the combination-technique rule is
kept, however small its weight.  In one dimension the level-A grid is the
2^A-point Gauss rule itself.  Dense grids and Smolyak blocks come from one
tensor builder, ``_append_coordinate``, applied one coordinate at a time.

The dense and Smolyak constructors also record the rule they expand in the
grid's ``structure`` field, and ``structured_cos_sum`` evaluates the kernel
estimate sum_i a_i cos(w_i'v) from that record as a product (dense) or a
signed sum of products (Smolyak) of one-dimensional cosine sums, without
touching the materialized points.  Each one-dimensional sum folds the
rule's mirror pairs, so an L-point rule costs floor(L/2) cosines.  The
record is not serialized, and every grid derived from another
(subsampled, reweighted, loaded) carries none.

Every cosine of the kernel estimate, here and on the generic path in
``featuremaps``, comes from ``_cos_from_half`` by the half-angle identity
cos x = 2 / (1 + tan^2(x/2)) - 1: numpy's float64 tangent is vectorized on
AVX512 CPUs where its cosine is not.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridSizeError
from .quad1d import gauss_hermite, normal_moment

DEFAULT_POINT_CAP = 10_000_000
DEFAULT_CONSTRAINT_CAP = 1_000_000
MERGE_DECIMALS = 12


@dataclass(frozen=True)
class GridQuadrature:
    """Point set {w_i} with weights {a_i} approximating the spectral integral.

    Weights may be negative only for sparse-grid rules; ``nonnegative``
    records the sign status.  ``normalized`` tracks whether the weights
    are contracted to sum to 1 (true for every constructor except the
    data-reweighted one, whose least-squares objective sets the scale).
    ``structure`` is set only by ``dense_grid`` (``("dense", L)``) and
    ``sparse_grid`` (``("sparse", A)``); see ``structured_cos_sum``.
    """

    points: np.ndarray
    weights: np.ndarray
    provenance: str = ""
    normalized: bool = True
    structure: tuple | None = field(default=None, init=False, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be a (D, d) array")
        if w.shape != (pts.shape[0],):
            raise ValueError("weights must match the number of points")
        if not (np.isfinite(pts).all() and np.isfinite(w).all()):
            raise ValueError("points and weights must be finite")
        # an empty rule can only come out of reweighting, which is unnormalized
        if self.normalized and abs(w.sum() - 1.0) > 1e-10:
            raise ValueError(f"weights sum to {w.sum()!r}, expected 1 within 1e-10")
        _check_unique_rows(pts)
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def nonnegative(self) -> bool:
        return bool(self.count == 0 or self.weights.min() >= 0.0)


def _check_unique_rows(points: np.ndarray) -> None:
    if points.shape[0] < 2:
        return
    rounded = np.round(points, MERGE_DECIMALS)
    order = np.lexsort(rounded.T[::-1])
    srt = rounded[order]
    if (np.abs(np.diff(srt, axis=0)).max(axis=1) == 0.0).any():
        raise ValueError("duplicate points after merging")


def _append_coordinate(points, weights, rule):
    """Pair every (point, weight) with every node of ``rule`` in a new last coordinate."""
    n, L = points.shape[0], rule.point_count
    return (np.column_stack([np.repeat(points, L, axis=0), np.tile(rule.nodes, n)]),
            np.multiply.outer(weights, rule.weights).ravel())


def dense_grid(L: int, d: int, cap: int = DEFAULT_POINT_CAP) -> GridQuadrature:
    """Tensor product of the L-point one-dimensional rule over d dimensions.

    Produces L^d points with positive product weights; exact for every
    monomial whose per-coordinate degree is at most 2L - 1.
    """
    if L < 1 or d < 1:
        raise ValueError("L and d must be positive")
    total = L**d
    if total > cap:
        raise GridSizeError(
            f"dense grid would need L^d = {total} points (cap {cap})",
            requested=total,
            cap=cap,
        )
    rule = gauss_hermite(L)
    points, weights = np.zeros((1, 0)), np.ones(1)
    for _ in range(d):
        points, weights = _append_coordinate(points, weights, rule)
    g = GridQuadrature(points, weights, provenance=f"dense(L={L}, d={d})")
    object.__setattr__(g, "structure", ("dense", L))
    return g


def _level_rule(m: int):
    """Rule backing level m of the sparse construction: size 2^m, level 0 is size 1."""
    return gauss_hermite(1 if m == 0 else 2**m)


def _cos_from_half(h: np.ndarray) -> np.ndarray:
    """Overwrite the half-angles h with cos(2h) = 2 / (1 + tan^2 h) - 1 and
    return h.

    numpy (2.x, x86-64) runs float64 ``tan`` in a SIMD loop on AVX512 CPUs
    but ``cos`` in scalar libm, so there these five in-place passes are
    several times cheaper than ``np.cos(2 * h)``.  The result is within a
    few eps (absolute) of it: |tan h| of a double stays below about 1e16,
    so tan^2 h cannot overflow, and near the poles 2 / (1 + tan^2 h) is tiny.
    """
    np.tan(h, out=h)
    np.square(h, out=h)
    h += 1.0
    np.divide(2.0, h, out=h)
    h -= 1.0
    return h


def _cos_sum_1d(rule, V: np.ndarray) -> np.ndarray:
    """g(t) = sum_l a_l cos(x_l t) of a one-dimensional rule, elementwise in V.

    The rule is mirror-symmetric and cos is even, so each pair of nodes
    +-x_l is one cosine of doubled weight, and the middle node of an odd
    rule (x = 0) adds its weight: floor(L/2) cosines in all.
    """
    L = rule.point_count
    out = np.full_like(V, rule.weights[L // 2] if L % 2 else 0.0)
    h = np.empty_like(V)
    for x, a in zip(rule.nodes[(L + 1) // 2:], rule.weights[(L + 1) // 2:]):
        np.multiply(V, 0.5 * x, out=h)
        _cos_from_half(h)
        h *= 2.0 * a
        out += h
    return out


def structured_cos_sum(structure: tuple, V: np.ndarray) -> np.ndarray:
    """sum_i a_i cos(w_i'v) for each row v of the (n, d) array V, from a
    grid's ``structure`` record instead of its points.

    ``("dense", L)``: the tensor rule factors over coordinates, giving
    prod_j g_L(v_j) at n d floor(L/2) cosines.  ``("sparse", A)``: the
    Smolyak sum sum_{|m| <= A} prod_j Delta_{m_j}(v_j), with Delta_0 = 1
    and Delta_m = g_{2^m} - g_{2^{m-1}} (g_1 = 1), is accumulated one
    coordinate at a time by total level (Smolyak 1963; Gerstner & Griebel
    1998), at n d (2^A - 1) cosines and O(d A^2) products per row.
    """
    kind, level = structure
    if kind == "dense":
        return np.prod(_cos_sum_1d(gauss_hermite(level), V), axis=1)
    # level 0 is the one-point rule at the origin, so g_1 = 1
    g = np.stack([np.ones_like(V)] + [_cos_sum_1d(_level_rule(m), V)
                                      for m in range(1, level + 1)], axis=2)
    delta = g[:, :, 1:] - g[:, :, :-1]
    # T[:, r] sums prod_j Delta_{m_j}(v_j) over the coordinates seen so far,
    # for the multi-indices of total level exactly r
    T = np.zeros((V.shape[0], level + 1))
    T[:, 0] = 1.0
    for j in range(V.shape[1]):
        prev = T.copy()
        for m in range(1, level + 1):
            T[:, m:] += prev[:, :level + 1 - m] * delta[:, j, m - 1:m]
    return T.sum(axis=1)


def _level_multi_indices(d: int, A: int):
    """All m in N^d with sum(m) <= A, lexicographic."""

    def rec(prefix, remaining, dims_left):
        if dims_left == 0:
            yield tuple(prefix)
            return
        for v in range(remaining + 1):
            yield from rec(prefix + [v], remaining - v, dims_left - 1)

    yield from rec([], A, d)


def sparse_grid(A: int, d: int, cap: int = DEFAULT_POINT_CAP) -> GridQuadrature:
    """Smolyak sparse grid up to total level A, by the combination technique.

    Level m in one dimension is the 2^m-point rule (level 0 the origin).
    The grid is the sum of the tensor blocks rule(l_1) x ... x rule(l_d)
    with A - d < |l| <= A, block l weighted by (-1)^(A - |l|) C(d - 1,
    A - |l|) (Gerstner & Griebel 1998).  Each point lies in exactly one
    block, so nothing is merged and nothing cancels: the grid keeps every
    point of the rule, and in one dimension it is the 2^A-point Gauss rule.
    The blocks are built one coordinate at a time, grouped by total level,
    and points come in lexicographic order.  Point count obeys
    D <= 3^A * C(d + A, A).
    """
    if A < 0 or d < 1:
        raise ValueError("A must be >= 0 and d positive")
    if 2**A > 200:
        raise ValueError(f"level A = {A} needs a 2^A-point rule beyond the 200-node bound")
    rules = [_level_rule(m) for m in range(A + 1)]
    lowest = max(0, A - d + 1)
    # counts[r]: points of total level r over the coordinates seen so far
    counts = [1] + [0] * A
    for _ in range(d):
        counts = [sum(counts[r - m] * rules[m].point_count for m in range(r + 1))
                  for r in range(A + 1)]
    total = sum(counts[lowest:])
    if total > cap:
        raise GridSizeError(f"sparse grid would need {total} points (cap {cap})",
                            requested=total, cap=cap)
    # the same recursion on the points and weights themselves
    levels = [(np.zeros((1, 0)), np.ones(1))] + [(np.zeros((0, 0)), np.zeros(0))] * A
    for _ in range(d):
        extended = []
        for r in range(A + 1):
            parts = [_append_coordinate(*levels[r - m], rules[m]) for m in range(r + 1)]
            extended.append((np.concatenate([p for p, _ in parts]),
                             np.concatenate([w for _, w in parts])))
        levels = extended
    points = np.concatenate([levels[r][0] for r in range(lowest, A + 1)])
    weights = np.concatenate([(-1) ** (A - r) * math.comb(d - 1, A - r) * levels[r][1]
                              for r in range(lowest, A + 1)])
    order = np.lexsort(points.T[::-1])
    if points.shape[0] > (3**A) * math.comb(d + A, A):
        raise AssertionError("sparse grid exceeded its theoretical count bound")
    g = GridQuadrature(points[order], weights[order], provenance=f"sparse(A={A}, d={d})")
    object.__setattr__(g, "structure", ("sparse", A))
    return g


def subsample_grid(g: GridQuadrature, D: int, seed: int) -> GridQuadrature:
    """Draw D points i.i.d. proportionally to weight, 1/D each, merging repeats."""
    if not g.nonnegative:
        raise ValueError("subsampling requires non-negative weights")
    if D < 1:
        raise ValueError("D must be positive")
    rng = np.random.default_rng(seed)
    p = g.weights / g.weights.sum()
    draws = rng.choice(g.count, size=D, replace=True, p=p)
    idx, counts = np.unique(draws, return_counts=True)
    return GridQuadrature(
        g.points[idx],
        counts / D,
        provenance=f"subsampled(D={D}, seed={seed}) of {g.provenance}",
    )


def subsample_dense_grid(L: int, d: int, D: int, seed: int) -> GridQuadrature:
    """Subsample the L^d dense grid without materializing it.

    Product weights make the grid's weight distribution a product law, so
    a draw is d independent categorical picks from the one-dimensional
    rule.  Matches subsample_grid(dense_grid(L, d), D, seed) in
    distribution for any L^d, including sizes far beyond the cap.
    """
    if L < 1 or d < 1 or D < 1:
        raise ValueError("L, d, D must be positive")
    rule = gauss_hermite(L)
    rng = np.random.default_rng(seed)
    idx = rng.choice(L, size=(D, d), replace=True, p=rule.weights)
    rows, counts = np.unique(idx, axis=0, return_counts=True)
    return GridQuadrature(
        rule.nodes[rows],
        counts / D,
        provenance=f"subsampled_dense(L={L}, d={d}, D={D}, seed={seed})",
    )


def moment_multi_indices(d: int, R: int, cap: int = DEFAULT_CONSTRAINT_CAP):
    """All exponent vectors r in N^d with sum(r) <= R, after a size check."""
    n_constraints = math.comb(d + R, d)
    if n_constraints > cap:
        raise GridSizeError(
            f"{n_constraints} moment constraints exceed the cap {cap}",
            requested=n_constraints,
            cap=cap,
        )
    return list(_level_multi_indices(d, R))


def monomial_matrix(points: np.ndarray, indices) -> np.ndarray:
    """Rows prod_l (w_i)_l^{r_l} for each exponent vector r, columns the points."""
    D, d = points.shape
    max_deg = max((max(r) for r in indices), default=0)
    powers = np.ones((d, max_deg + 1, D))
    for p in range(1, max_deg + 1):
        powers[:, p] = powers[:, p - 1] * points.T
    out = np.empty((len(indices), D))
    for row, r in enumerate(indices):
        acc = np.ones(D)
        for l, rl in enumerate(r):
            if rl:
                acc = acc * powers[l, rl]
        out[row] = acc
    return out


def moment_targets(indices) -> np.ndarray:
    """Analytic normal moments prod_l (r_l - 1)!! (zero when any r_l is odd)."""
    return np.array(
        [math.prod(normal_moment(rl) for rl in r) for r in indices]
    )


def exactness_residual(
    g: GridQuadrature, R: int, cap: int = DEFAULT_CONSTRAINT_CAP
) -> float:
    """Worst moment-matching error over all total degrees <= R."""
    if R < 0:
        raise ValueError("R must be non-negative")
    indices = moment_multi_indices(g.d, R, cap=cap)
    M = monomial_matrix(g.points, indices)
    achieved = M @ g.weights
    return float(np.abs(achieved - moment_targets(indices)).max())


def grid_to_json(g: GridQuadrature) -> dict:
    return {
        "d": g.d,
        "D": g.count,
        "points": g.points.tolist(),
        "weights": g.weights.tolist(),
        "nonnegative": g.nonnegative,
        "provenance": g.provenance,
    }


def grid_from_json(payload: dict) -> GridQuadrature:
    points = np.array(payload["points"], dtype=float)
    if points.size == 0:
        points = points.reshape(0, int(payload["d"]))
    return GridQuadrature(
        points,
        np.array(payload["weights"], dtype=float),
        provenance=str(payload.get("provenance", "")),
        normalized=abs(sum(payload["weights"]) - 1.0) <= 1e-10,
    )


def save_grid(g: GridQuadrature, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(grid_to_json(g), fh)


def load_grid(path: str) -> GridQuadrature:
    with open(path) as fh:
        return grid_from_json(json.load(fh))
