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
mirror pairs, so an L-point rule costs floor(L/2) cosines.  JSON keeps
the record, and a grid read back is rebuilt from it and checked against
the stored points; every grid derived from another (subsampled,
reweighted) carries none.  Every other rule is folded by
``fold_twins`` wherever it is estimated or refit: cos is even, so a point
w and its twin -w are one cosine term of summed weight, found by one sort
of the rows up to sign.  A poly-exact rule [P; -P], [a/2; a/2] folds to
(P, a) that way, and a subsampled grid or a reweighting pool loses the
twins it drew.  Weight-proportional subsampling draws points i.i.d. with
probability proportional to weight, 1/D per draw, merging duplicates; a
lattice variant draws from the tensor-product law, so grids far beyond
the materialization cap can still be subsampled.

Whole rows are ordered by one sort of them as byte strings
(``_row_bytes``), not by one pass per coordinate: the duplicate-point
check of every grid, the twin fold, the interleaving of a Smolyak grid's
tensor blocks (rows of one-byte node ranks, whose byte order is their
lexicographic order) and the merge of a lattice subsample's repeated
draws (rows of one-byte node indices).

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
from .quad1d import MAX_RULE_SIZE, gauss_hermite, normal_moment

DEFAULT_POINT_CAP = 10_000_000
DEFAULT_CONSTRAINT_CAP = 1_000_000
MERGE_DECIMALS = 12
# entries (rows x columns) one blocked pass holds at once: the generic
# estimator's phase buffer, each of the embedding kernel's two scratch
# arrays in ``featuremaps``, and the factor buffer of ``_product_matrix``
BLOCK = 2**15


def _block_rows(count: int) -> int:
    """Rows of ``count`` entries each that one block of ``BLOCK`` entries holds."""
    return max(1, BLOCK // max(1, count))


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


def _row_bytes(rows: np.ndarray) -> np.ndarray:
    """The rows of a C-contiguous 2-D array as one byte string each, so that
    one sort or comparison handles whole rows, not one pass per column.
    Equal rows have equal bytes once -0.0 is folded into 0.0, and rows of
    uint8 sort as byte strings in lexicographic order."""
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]


def _check_unique_rows(points: np.ndarray) -> None:
    """Raise ValueError naming the first row that repeats an earlier one
    after rounding to ``MERGE_DECIMALS`` decimals."""
    n, d = points.shape
    if n < 2:
        return
    if d:
        rounded = np.round(points, MERGE_DECIMALS)
        # dense and Smolyak grids arrive sorted, and sorted distinct rows are
        # accepted in one pass; anything else is sorted as byte strings
        if _strictly_increasing(rounded):
            return
        rounded += 0.0  # -0.0 -> 0.0, so equal rows have equal bytes
        keys = _row_bytes(rounded)
        order = np.argsort(keys, kind="stable")
        srt = keys[order]
        repeats = np.flatnonzero(srt[1:] == srt[:-1])
        if not repeats.size:
            return
        # the stable sort puts each repeat right after an earlier equal row
        k = repeats[np.argmin(order[repeats + 1])]
        first, second = order[k], order[k + 1]
    else:  # every row is the empty row
        first, second = 0, 1
    raise ValueError(f"duplicate points after merging: rows {first} and {second} "
                     f"are equal to {MERGE_DECIMALS} decimals")


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
    order = np.argsort(_row_bytes(unsigned), kind="stable")
    srt = unsigned[order]
    first = np.ones(p.shape[0], dtype=bool)
    first[1:] = (srt[1:] != srt[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    keep = order[starts]
    ascending = np.argsort(keep)
    return keep[ascending], np.add.reduceat(weights[order], starts)[ascending]


def _append_coordinate(rows, weights, nodes, node_weights):
    """Pair every (row, weight) with every node, in a new last coordinate."""
    n, L = rows.shape[0], nodes.size
    return (np.column_stack([np.repeat(rows, L, axis=0), np.tile(nodes, n)]),
            np.multiply.outer(weights, node_weights).ravel())


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


def _point_count(structure: tuple, d: int) -> int:
    """The point count of ``structure``'s rule in d dimensions: the sizes of
    its tensor blocks of total level A - d < r <= A."""
    kind, level = structure
    sizes, A = (([level], 0) if kind == "dense"
                else ([2**m for m in range(level + 1)], level))
    counts = _by_level([1] + [0] * A, d, lambda c, m, j: c * sizes[m], sum)
    return sum(counts[max(0, A - d + 1):])


def _structured_grid(structure: tuple, d: int, cap: int,
                     provenance: str) -> GridQuadrature:
    """The rule of ``structure`` in d dimensions, checked against ``cap``: the
    tensor blocks rule(m_1) x ... x rule(m_d) of total level A - d < r <= A,
    level r weighted by (-1)^(A - r) C(d - 1, A - r), points lexicographic."""
    rules, A = _family(structure)
    lowest = max(0, A - d + 1)
    total = _point_count(structure, d)
    if total > cap:
        raise GridSizeError(f"{provenance} would need {total} points (cap {cap})",
                            requested=total, cap=cap)
    # the blocks are built as rows of node ranks among all the family's
    # nodes, which its rules do not share, so rows of ranks sort as the
    # points do; at most 2^8 - 1 nodes (2^A <= 200), so a rank is one byte
    nodes = np.concatenate([rule.nodes for rule in rules])
    by_value = np.argsort(nodes, kind="stable")
    rank = np.empty(nodes.size, dtype=np.uint8)
    rank[by_value] = np.arange(nodes.size)
    ranks = np.split(rank, np.cumsum([rule.point_count for rule in rules])[:-1])
    levels = _by_level([(np.zeros((1, 0), np.uint8), np.ones(1))]
                       + [(np.zeros((0, 0), np.uint8), np.zeros(0))] * A, d,
                       lambda block, m, j: _append_coordinate(*block, ranks[m],
                                                              rules[m].weights),
                       _concat)
    rows, weights = _concat(
        [(levels[r][0], (-1) ** (A - r) * math.comb(d - 1, A - r) * levels[r][1])
         for r in range(lowest, A + 1)])
    if A and d > 1:  # more than one block: interleave them
        order = np.argsort(_row_bytes(rows), kind="stable")
        rows, weights = rows[order], weights[order]
    points = nodes[by_value][rows]
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
    # L <= 200, so a node index is one byte, and the distinct rows of bytes
    # come out in the lexicographic order of the index rows
    keys, counts = np.unique(_row_bytes(idx.astype(np.uint8)), return_counts=True)
    return GridQuadrature(
        rule.nodes[keys.view(np.uint8).reshape(-1, d)],
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
    levels = _by_level([[()]] + [[]] * R, d, lambda rs, m, j: [r + (m,) for r in rs],
                       lambda parts: [r for part in parts for r in part])
    return sorted(r for level in levels for r in level)


def _max_degree(indices) -> int:
    return max((max(r) for r in indices), default=0)


def _product_matrix(table: np.ndarray, indices) -> np.ndarray:
    """Rows prod_l table[:, r_l, l] for each exponent vector r, columns the
    points, as the transpose of a C-contiguous (D, rows) array: M.T needs
    no copy.  ``table`` is a C-contiguous (D, degree + 1, d) array, one
    value per point, per-coordinate degree and coordinate, whose degree-0
    entries are 1.

    Each row's factors of nonzero degree are taken in coordinate order, and
    a row with fewer of them than the most any row has is padded with
    degree-0 factors of 1.  So, a block of ``_block_rows(rows)`` points at a
    time, factor f of every row is gathered into one reused buffer and
    multiplied in, and each entry is the product of its factors in
    coordinate order, exactly as a loop over the rows that multiplies them
    into 1 would form it.
    """
    D, K, d = table.shape
    r = np.array(indices, dtype=np.intp).reshape(len(indices), d)
    width = int((r > 0).sum(axis=1).max(initial=1))
    # the coordinates of each row's nonzero degrees first, in order
    coords = np.argsort(r == 0, axis=1, kind="stable")[:, :width]
    degrees = np.take_along_axis(r, coords, axis=1)
    columns = np.where(degrees > 0, degrees * d + coords, 0)
    flat = table.reshape(D, K * d)
    out = np.empty((D, len(indices)))
    step = _block_rows(len(indices))
    factor = np.empty((min(step, D), len(indices)))
    # mode="clip" (the columns are in range) lets take write to ``out``
    # without a buffer of its own
    for first in range(0, D, step):
        src = flat[first:first + step]
        block = np.take(src, columns[:, 0], axis=1, mode="clip",
                        out=out[first:first + step])
        for f in range(1, width):
            block *= np.take(src, columns[:, f], axis=1, mode="clip",
                             out=factor[:len(block)])
    return out.T


def monomial_matrix(points: np.ndarray, indices) -> np.ndarray:
    """Rows prod_l (w_i)_l^{r_l} for each exponent vector r, columns the
    points: a (rows, D) array, the transpose of a C-contiguous one."""
    D, d = points.shape
    powers = np.ones((D, _max_degree(indices) + 1, d))
    for p in range(1, powers.shape[1]):
        powers[:, p] = powers[:, p - 1] * points
    return _product_matrix(powers, indices)


def hermite_matrix(points: np.ndarray, indices) -> np.ndarray:
    """Rows prod_l h_{r_l}((w_i)_l) for each exponent vector r, columns the
    points, with h_k = He_k / sqrt(k!) the probabilists' Hermite polynomials
    normalized to be orthonormal under N(0, 1) (Gautschi 2004).  The
    (rows, D) array is the transpose of a C-contiguous (D, rows) one, so
    ``nnls`` takes its columns as the rows of M.T without a copy.

    h_0 = 1, h_1(x) = x and sqrt(k + 1) h_{k+1} = x h_k - sqrt(k) h_{k-1}.
    Row r is monomial row r plus a combination of rows of lower total degree,
    and the normal expectation of row r is 1 for r = 0 and 0 otherwise.
    """
    D, d = points.shape
    table = np.ones((D, _max_degree(indices) + 1, d))
    for k in range(1, table.shape[1]):
        table[:, k] = points * table[:, k - 1]
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


def moment_residual(points: np.ndarray, weights: np.ndarray, indices) -> float:
    """Worst moment-matching error of the rule (points, weights) over the
    exponent vectors ``indices``."""
    achieved = monomial_matrix(points, indices) @ weights
    return float(np.abs(achieved - moment_targets(indices)).max())


def exactness_residual(
    g: GridQuadrature, R: int, cap: int = DEFAULT_CONSTRAINT_CAP
) -> float:
    """Worst moment-matching error over all total degrees <= R."""
    if R < 0:
        raise ValueError("R must be non-negative")
    return moment_residual(g.points, g.weights, moment_multi_indices(g.d, R, cap=cap))


def grid_to_json(g: GridQuadrature) -> dict:
    """The grid as a JSON object; ``"D"`` is the point count, and a dense or
    Smolyak grid adds its ``structure`` record as ``["dense", L]`` or
    ``["sparse", A]``."""
    payload = {
        "d": g.d,
        "D": g.count,
        "points": g.points.tolist(),
        "weights": g.weights.tolist(),
        "nonnegative": g.nonnegative,
        "provenance": g.provenance,
    }
    if g.structure is not None:
        payload["structure"] = list(g.structure)
    return payload


def restore_structure(g: GridQuadrature, kind: str) -> GridQuadrature:
    """``g`` with the record ``(kind, level)``, kind "dense" or "sparse", whose
    rule has g's dimension and point count, checked as ``grid_from_json``
    checks a stored record; for files written before grids kept theirs.  No
    such level raises ConfigError keyed ``structure``."""
    # every level whose rules exist: L <= MAX_RULE_SIZE, or 2^A <= it
    levels = (range(1, MAX_RULE_SIZE + 1) if kind == "dense"
              else range(MAX_RULE_SIZE.bit_length()))
    if g.d >= 1:
        for level in levels:
            count = _point_count((kind, level), g.d)
            if count == g.count:
                return _rebuilt([kind, level], g.points, g.weights)
            if count > g.count:
                break
    raise ConfigError(f"grid file: no {kind} grid in d={g.d} has {g.count} points",
                      key="structure")


def _rebuilt(structure, points: np.ndarray, weights: np.ndarray) -> GridQuadrature:
    """The grid of a ``structure`` record, which must give exactly the stored
    points and weights; a record it cannot build or whose rule differs
    raises ConfigError keyed ``structure``."""
    def refuse(why):
        return ConfigError(f"grid file: field 'structure': {structure!r} {why}",
                           key="structure")
    if not (isinstance(structure, list) and len(structure) == 2
            and structure[0] in ("dense", "sparse")
            and type(structure[1]) is int):
        raise refuse("is not [\"dense\", L] or [\"sparse\", A]")
    kind, level = structure
    build = dense_grid if kind == "dense" else sparse_grid
    try:  # a record of more points than stored fails the cap before building
        g = build(level, points.shape[1], cap=points.shape[0])
    except (ValueError, GridSizeError) as exc:
        raise refuse(f"builds no grid here: {exc}") from None
    if not (g.points.shape == points.shape
            and g.points.tobytes() == points.tobytes()
            and g.weights.tobytes() == weights.tobytes()):
        raise refuse("gives other points or weights than the file's")
    return g


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
    unlike the points raises ConfigError.  A ``structure`` record is rebuilt
    by ``dense_grid`` or ``sparse_grid`` and must give the stored points and
    weights bit for bit, or ConfigError keyed ``structure`` is raised; the
    rebuilt grid, record included, is returned.  Other keys are ignored:
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
    if "structure" in payload:
        return _rebuilt(payload["structure"], points, weights)
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
