"""Multi-dimensional quadrature point sets for the standard normal spectrum.

Dense tensor grids (L^d points, product weights) and Smolyak sparse grids
of level A are one construction.  A grid's ``structure`` record names a
family of one-dimensional rules by level m and a total level A: the
2^m-point rules, m = 0..A, for ("sparse", A), and the one L-point rule
with A = 0 for ("dense", L), so a dense grid is the level-0 rule over
[L].  Both rules are sums over multi-indices m in N^d by total level |m|
(Smolyak 1963; Gerstner & Griebel 1998), and one recursion, ``_by_level``,
carries one value per total level through the coordinates.  It counts a
grid's points for the size cap, builds its points and weights with the
tensor builder ``_append_coordinate``, accumulates the factored kernel
estimate of ``structured_cos_sum``, and lists ``moment_multi_indices``.
The Hermite rules of sizes 1, 2, 4, ..., 2^A share no node, so each point
of a Smolyak grid lies in exactly one tensor block, no weight cancels, and
every point is kept, however small its weight; in one dimension the
level-A grid is the 2^A-point Gauss rule itself.

``structured_cos_sum`` evaluates the estimate sum_i a_i cos(w_i'v) from the
``structure`` record as sums of products of one-dimensional cosine sums,
without touching the points; each one-dimensional sum folds the rule's
mirror pairs, so an L-point rule costs floor(L/2) cosines.  The record is
not serialized, and every grid derived from another (subsampled,
reweighted, loaded) carries none.  Every other rule is folded by
``fold_twins`` wherever it is estimated or refit: cos is even, so a point
w and its twin -w are one cosine term of summed weight, found by one sort
of the rows up to sign.  A poly-exact rule [P; -P], [a/2; a/2] folds to
(P, a) that way, and a subsampled grid or a reweighting pool loses the
twins it drew.  Weight-proportional subsampling draws points i.i.d. with
probability proportional to weight, 1/D per draw, merging duplicates; a
lattice variant draws from the tensor-product law, so grids far beyond
the materialization cap can still be subsampled.

Every cosine of the kernel estimate, here and on the generic path in
``featuremaps``, and both halves of every embedding come from
``_cos_from_half`` by the half-angle identities cos x = 2 / (1 + t^2) - 1
and sin x = 2t / (1 + t^2), t = tan(x/2): numpy's float64 tangent is
vectorized on AVX512 CPUs where its cosine and sine are not.
"""
from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, GridSizeError, config_field
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


def _strictly_increasing(rows: np.ndarray) -> bool:
    """Whether each row is lexicographically greater than the one before."""
    prev, nxt = rows[:-1], rows[1:]
    # the first differing column, or column 0 of two equal rows
    first = np.argmax(prev != nxt, axis=1)[:, None]
    return bool(np.take_along_axis(nxt > prev, first, axis=1).all())


def _check_unique_rows(points: np.ndarray) -> None:
    if points.shape[0] < 2:
        return
    rounded = np.round(points, MERGE_DECIMALS)
    # dense and Smolyak grids arrive sorted, and sorted distinct rows are
    # accepted in one pass; anything else is sorted first
    if _strictly_increasing(rounded):
        return
    order = np.lexsort(rounded.T[::-1])
    srt = rounded[order]
    if (np.abs(np.diff(srt, axis=0)).max(axis=1) == 0.0).any():
        raise ValueError("duplicate points after merging")


def fold_twins(points: np.ndarray, weights: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """The rows that stay cosine terms, ascending, and their weights.

    cos is even, so of each pair of rows w, -w (entries of -0.0 count as
    0.0) the first is kept with the summed weight; the origin is its own
    twin and stays one row.  The rows are distinct, as in every grid.  A
    row is negated when its first nonzero entry is negative, so twins
    become equal, and one stable sort of the rows as byte strings (one
    comparison per pair of rows, not one pass per coordinate) brings each
    pair together in row order.
    """
    p = points + 0.0  # -0.0 -> 0.0, so equal rows have equal bytes
    lead = p[np.arange(p.shape[0]), np.argmax(p != 0.0, axis=1)]
    unsigned = np.where(lead[:, None] < 0.0, 0.0 - p, p)
    row = np.dtype((np.void, unsigned.itemsize * unsigned.shape[1]))
    order = np.argsort(unsigned.view(row)[:, 0], kind="stable")
    srt = unsigned[order]
    first = np.ones(p.shape[0], dtype=bool)
    first[1:] = (srt[1:] != srt[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    keep = order[starts]
    ascending = np.argsort(keep)
    return keep[ascending], np.add.reduceat(weights[order], starts)[ascending]


def _append_coordinate(points, weights, rule):
    """Pair every (point, weight) with every node of ``rule`` in a new last coordinate."""
    n, L = points.shape[0], rule.point_count
    return (np.column_stack([np.repeat(points, L, axis=0), np.tile(rule.nodes, n)]),
            np.multiply.outer(weights, rule.weights).ravel())


def _by_level(levels, d, extend, join):
    """Carry one value per total level through d coordinates: after
    coordinate j, level r is join([extend(levels[r - m], m, j) for m = 0..r])."""
    for j in range(d):
        levels = [join([extend(levels[r - m], m, j) for m in range(r + 1)])
                  for r in range(len(levels))]
    return levels


def _family(structure: tuple):
    """A ``structure`` record's rules by level m and its total level A:
    ([L-point rule], 0) or ([2^m-point rules, m = 0..A], A)."""
    kind, level = structure
    if kind == "dense":
        return [gauss_hermite(level)], 0
    return [gauss_hermite(2**m) for m in range(level + 1)], level


def _concat(parts):
    """One (points, weights) pair from a list of them, uncopied if alone."""
    return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))


def _structured_grid(structure: tuple, d: int, cap: int,
                     provenance: str) -> GridQuadrature:
    """The rule of ``structure`` in d dimensions, checked against ``cap``: the
    tensor blocks rule(m_1) x ... x rule(m_d) of total level A - d < r <= A,
    level r weighted by (-1)^(A - r) C(d - 1, A - r), points lexicographic."""
    rules, A = _family(structure)
    lowest = max(0, A - d + 1)
    counts = _by_level([1] + [0] * A, d,
                       lambda c, m, j: c * rules[m].point_count, sum)
    total = sum(counts[lowest:])
    if total > cap:
        raise GridSizeError(f"{provenance} would need {total} points (cap {cap})",
                            requested=total, cap=cap)
    levels = _by_level([(np.zeros((1, 0)), np.ones(1))]
                       + [(np.zeros((0, 0)), np.zeros(0))] * A, d,
                       lambda block, m, j: _append_coordinate(*block, rules[m]),
                       _concat)
    points, weights = _concat(
        [(levels[r][0], (-1) ** (A - r) * math.comb(d - 1, A - r) * levels[r][1])
         for r in range(lowest, A + 1)])
    if A and d > 1:  # more than one block: interleave them
        order = np.lexsort(points.T[::-1])
        points, weights = points[order], weights[order]
    g = GridQuadrature(points, weights, provenance=provenance)
    object.__setattr__(g, "structure", structure)
    return g


def dense_grid(L: int, d: int, cap: int = DEFAULT_POINT_CAP) -> GridQuadrature:
    """Tensor product of the L-point one-dimensional rule over d dimensions:
    L^d points with positive product weights, exact for every monomial
    whose per-coordinate degree is at most 2L - 1."""
    if L < 1 or d < 1:
        raise ValueError("L and d must be positive")
    return _structured_grid(("dense", L), d, cap, f"dense(L={L}, d={d})")


def sparse_grid(A: int, d: int, cap: int = DEFAULT_POINT_CAP) -> GridQuadrature:
    """Smolyak sparse grid up to total level A over the 2^m-point rules
    (level 0 the origin; 2^A <= 200), by the combination technique of
    ``_structured_grid``.  Each point lies in exactly one tensor block, so
    nothing is merged and nothing cancels; in one dimension the grid is the
    2^A-point Gauss rule.  Point count obeys D <= 3^A * C(d + A, A).
    """
    if A < 0 or d < 1:
        raise ValueError("A must be >= 0 and d positive")
    return _structured_grid(("sparse", A), d, cap, f"sparse(A={A}, d={d})")


def _cos_from_half(h: np.ndarray, cos: np.ndarray | None = None) -> np.ndarray:
    """cos(2h) = 2 / (1 + tan^2 h) - 1 of the half-angles h, written over h
    and returned; with ``cos`` (h's shape, not overlapping it), the cosines go
    there and h is overwritten by sin(2h) = 2 tan h / (1 + tan^2 h), from the
    same tangent.  The cosines are bitwise the same either way.

    numpy (2.x, x86-64) runs float64 ``tan`` in a SIMD loop on AVX512 CPUs
    but ``cos`` and ``sin`` in scalar libm, so there these in-place passes
    are several times cheaper than ``np.cos(2 * h)`` (and ``np.sin``).  Both
    stay within a few eps (absolute) of them: |tan h| of a double stays
    below about 1e16, so tan^2 h cannot overflow, and near the poles
    2 / (1 + tan^2 h) is tiny.
    """
    t = np.tan(h, out=h)
    c = h if cos is None else cos
    np.square(t, out=c)
    c += 1.0
    np.divide(2.0, c, out=c)
    if cos is not None:
        t *= c
    c -= 1.0
    return c


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

    With g_m the cosine sum of the record's rule m (``_family``),
    Delta_0 = g_0 and Delta_m = g_m - g_{m-1}, the rule's estimate is the
    sum over |m| <= A of prod_j Delta_{m_j}(v_j) (Smolyak 1963; Gerstner &
    Griebel 1998), accumulated one coordinate at a time by total level.  A
    dense grid (A = 0) is the product prod_j g_L(v_j), at n d floor(L/2)
    cosines; a Smolyak grid costs n d (2^A - 1) cosines and O(d A^2)
    products per row.
    """
    rules, _ = _family(structure)
    g = [_cos_sum_1d(rule, V) for rule in rules]
    delta = g[:1] + [g[m] - g[m - 1] for m in range(1, len(g))]
    T = _by_level([np.ones(len(V))] + [np.zeros(len(V))] * (len(g) - 1), V.shape[1],
                  lambda t, m, j: t * delta[m][:, j], sum)
    # the levels summed as rows of one array, in numpy's reduction order
    return np.stack(T, axis=1).sum(axis=1)


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


def moment_multi_indices(d: int, R: int, cap: int = DEFAULT_CONSTRAINT_CAP,
                         even: bool = False):
    """All exponent vectors r in N^d with sum(r) <= R, or with ``even`` only
    those of even sum(r), after a size check."""
    step = 2 if even else 1
    # C(d - 1 + k, k) vectors of total degree k; all of them sum to C(d + R, d)
    n_constraints = sum(math.comb(d - 1 + k, k) for k in range(0, R + 1, step))
    if n_constraints > cap:
        raise GridSizeError(
            f"{n_constraints} moment constraints exceed the cap {cap}",
            requested=n_constraints,
            cap=cap,
        )
    levels = _by_level([[()]] + [[]] * R, d, lambda rs, m, j: [r + (m,) for r in rs],
                       lambda parts: [r for part in parts for r in part])
    return sorted(r for level in levels[::step] for r in level)


def _max_degree(indices) -> int:
    return max((max(r) for r in indices), default=0)


def _product_matrix(table: np.ndarray, indices) -> np.ndarray:
    """Rows prod_l table[l, r_l] for each exponent vector r, columns the
    points: ``table`` is (d, degree + 1, D), one row of values per coordinate
    and per-coordinate degree, and factors of degree 0 are taken as 1."""
    out = np.empty((len(indices), table.shape[2]))
    for row, r in enumerate(indices):
        acc = out[row]
        acc[:] = 1.0
        for l, rl in enumerate(r):
            if rl:
                acc *= table[l, rl]
    return out


def monomial_matrix(points: np.ndarray, indices) -> np.ndarray:
    """Rows prod_l (w_i)_l^{r_l} for each exponent vector r, columns the points."""
    D, d = points.shape
    powers = np.ones((d, _max_degree(indices) + 1, D))
    for p in range(1, powers.shape[1]):
        powers[:, p] = powers[:, p - 1] * points.T
    return _product_matrix(powers, indices)


def hermite_matrix(points: np.ndarray, indices) -> np.ndarray:
    """Rows prod_l h_{r_l}((w_i)_l) for each exponent vector r, columns the
    points, with h_k = He_k / sqrt(k!) the probabilists' Hermite polynomials
    normalized to be orthonormal under N(0, 1) (Gautschi 2004).

    h_0 = 1, h_1(x) = x and sqrt(k + 1) h_{k+1} = x h_k - sqrt(k) h_{k-1}.
    Row r is monomial row r plus a combination of rows of lower total degree,
    and the normal expectation of row r is 1 for r = 0 and 0 otherwise.
    """
    D, d = points.shape
    table = np.ones((d, _max_degree(indices) + 1, D))
    x = points.T
    for k in range(1, table.shape[1]):
        table[:, k] = x * table[:, k - 1]
        if k > 1:
            table[:, k] -= math.sqrt(k - 1) * table[:, k - 2]
            table[:, k] /= math.sqrt(k)
    return _product_matrix(table, indices)


def moment_targets(indices) -> np.ndarray:
    """Analytic normal moments prod_l (r_l - 1)!! (zero when any r_l is odd)."""
    moments = np.array([normal_moment(k) for k in range(_max_degree(indices) + 1)])
    # integer factors whose products stay below 2^53 through R = 30, so
    # every product is exact in any order
    return moments[np.array(indices, dtype=np.intp)].prod(axis=1)


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
    """The grid as a JSON object; ``"D"`` is the point count."""
    payload = {
        "d": g.d,
        "D": g.count,
        "points": g.points.tolist(),
        "weights": g.weights.tolist(),
        "nonnegative": g.nonnegative,
        "provenance": g.provenance,
    }
    return payload


def _finite_array(value) -> np.ndarray:
    array = np.array(value, dtype=float)
    if not np.isfinite(array).all():
        raise ValueError("entries must be finite")
    return array


def _point_rows(value) -> np.ndarray:
    points = _finite_array(value)
    if points.size and points.ndim != 2:
        raise ValueError(f"expected a list of point rows, got shape {points.shape}")
    return points


def grid_from_json(payload: dict) -> GridQuadrature:
    """The grid of a ``grid_to_json`` payload.  A missing, ill-typed or
    non-finite field, a repeated point, or a ``d``, ``D`` or ``weights``
    unlike the points raises ConfigError.  Other keys are ignored:
    ``nonnegative`` is read off the weights, and the sign-symmetry flag of
    older poly-exact files is redundant, since ``fold_twins`` finds their
    twins."""
    field = functools.partial(config_field, payload, where="grid file")
    points = field("points", _point_rows)
    d, D = field("d", operator.index), field("D", operator.index)
    if points.size == 0 and d >= 0:
        points = points.reshape(0, d)
    weights = field("weights", _finite_array)
    for key, value, size in (("d", d, points.shape[-1]), ("D", D, points.shape[0]),
                             ("weights", weights.shape, (points.shape[0],))):
        if value != size:
            raise ConfigError(f"grid file: field {key!r} gives {value}, but the "
                              f"points give {size}", key=key)
    try:
        return GridQuadrature(points, weights,
                              provenance=str(payload.get("provenance", "")),
                              normalized=abs(sum(weights.tolist()) - 1.0) <= 1e-10)
    except ValueError as exc:  # all the grid checks beyond the above: repeated rows
        raise ConfigError(f"grid file: field 'points': {exc}", key="points") from None


def save_grid(g: GridQuadrature, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(grid_to_json(g)))


def load_grid(path: str) -> GridQuadrature:
    with open(path) as fh:
        return grid_from_json(json.load(fh))
