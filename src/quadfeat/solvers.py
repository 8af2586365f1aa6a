"""Non-negative least squares and the two NNLS-backed rule constructors.

``nnls`` is a Lawson-Hanson active-set solver working on the normal
equations.  It keeps the inverse of the passive Gram matrix M_P'M_P in a
preallocated buffer and updates it in place: a column entering the
passive set borders the inverse through its Schur complement, a column
leaving it is removed by a rank-one downdate.  One outer step therefore
costs O(nk + k^2) on top of the O(np) gradient, with k the passive-set
size, and no p x p Gram matrix is ever formed.  Each passive solve is
refined once against M_P so that update errors do not accumulate.  A
column that is numerically dependent on the passive set is passed over
for that step, as in Lawson & Hanson (1974, ch. 23).

On top of it sit

* ``construct_poly_exact``: random spectral candidates reweighted to match
  every normal moment of total degree <= R, and
* ``reweight``: data-adaptive weights minimizing the empirical mean
  squared kernel error over sampled pairs, with an optional l1 penalty,
  and ``bisect_lambda``, which picks the penalty for a target support
  size.  Every penalized fit is read off the exact nonnegative-lasso path
  (positive LARS), walked from the largest useful penalty down, one
  entering or leaving column per step; the path reuses the passive-set
  inverse and its updates, and each step costs O(np).  Lawson-Hanson
  solves the unpenalized fits.  Both fold mirror pairs w, -w of the
  candidates into one column first.

Reweighted grids keep their fitted scale: the least-squares objective
governs, so the weights are deliberately not renormalized to sum to 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConstructionError, ConvergenceError
from .grids import (
    GridQuadrature,
    moment_multi_indices,
    moment_targets,
    monomial_matrix,
)
from .kernels import AnovaKernel, GaussianKernel, kernel_values

# an entering column whose Schur complement is below this fraction of its
# squared norm lies numerically in the span of the passive columns
_DEPENDENT = 1e-12
POLY_EXACT_TOL = 1e-8  # worst moment violation a poly-exact rule may keep


@dataclass(frozen=True)
class NnlsSolution:
    """Solution of min ||Ma - b||^2 s.t. a >= 0."""

    a: np.ndarray
    residual_norm: float
    active_set: tuple[int, ...]
    iterations: int
    objectives: tuple[float, ...]


def nnls(M: np.ndarray, b: np.ndarray, tol: float = 1e-10,
         max_iter: Optional[int] = None) -> NnlsSolution:
    """Lawson-Hanson NNLS with an updated inverse of the passive Gram matrix.

    KKT at exit: gradient components on the support vanish to within
    ``tol * ||M^T b||`` and are non-negative off the support, except on
    columns numerically dependent on the support.  Raises
    ConvergenceError (best iterate attached) past ``max_iter`` outer
    iterations, default 3p.
    """
    return _lawson_hanson(np.asarray(M, dtype=float), np.asarray(b, dtype=float),
                          tol=tol, max_iter=max_iter)


class _PassiveSet:
    """Passive columns of M and the inverse of their Gram matrix.

    ``rows[:k]`` holds the passive columns as contiguous rows and
    ``inv[:k, :k]`` the inverse of ``rows[:k] @ rows[:k].T``; both live in
    buffers sized for the largest possible passive set, min(n, p).
    """

    def __init__(self, MT: np.ndarray, b: np.ndarray, MTb: np.ndarray):
        p, n = MT.shape
        cap = min(n, p)
        self.MT, self.b, self.MTb = MT, b, MTb
        self.idx = np.empty(cap, dtype=np.intp)
        self.rows = np.empty((cap, n))
        self.inv = np.empty((cap, cap))
        self.k = 0

    @property
    def indices(self) -> np.ndarray:
        return self.idx[:self.k]

    def add(self, j: int) -> bool:
        """Border the inverse with column j; False, and the set unchanged,
        if j is numerically dependent on the passive columns."""
        k = self.k
        col = self.MT[j]
        g = float(col @ col)
        c = self.rows[:k] @ col
        h = self.inv[:k, :k] @ c
        s = g - float(c @ h)
        if k == self.idx.size or not s > _DEPENDENT * g:
            return False
        self.inv[:k, :k] += np.outer(h / s, h)
        self.inv[:k, k] = self.inv[k, :k] = -h / s
        self.inv[k, k] = 1.0 / s
        self.rows[k] = col
        self.idx[k] = j
        self.k = k + 1
        return True

    def remove(self, positions: np.ndarray) -> None:
        """Drop the passive columns at ``positions`` by rank-one downdates."""
        for i in np.sort(positions)[::-1]:
            last = self.k - 1
            if i != last:
                # move column i to the end, then peel off the last row/column
                swap = [i, last]
                self.inv[swap, :self.k] = self.inv[swap[::-1], :self.k]
                self.inv[:self.k, swap] = self.inv[:self.k, swap[::-1]]
                self.rows[swap] = self.rows[swap[::-1]]
                self.idx[swap] = self.idx[swap[::-1]]
            e = self.inv[:last, last]
            self.inv[:last, :last] -= np.outer(e / self.inv[last, last], e)
            self.k = last

    def reset(self, start: np.ndarray) -> bool:
        """Make ``start`` the passive set, inverting its Gram matrix afresh;
        False (and the set left empty) if that matrix is singular."""
        k = start.size
        self.idx[:k] = start
        np.take(self.MT, start, axis=0, out=self.rows[:k])
        try:
            self.inv[:k, :k] = np.linalg.inv(self.rows[:k] @ self.rows[:k].T)
        except np.linalg.LinAlgError:
            return False
        self.k = k
        return True

    def solve(self, shift: float) -> np.ndarray:
        """Minimizer of 0.5||M_P z - b||^2 + shift 1'z, refined once."""
        P, H = self.rows[:self.k], self.inv[:self.k, :self.k]
        z = H @ (self.MTb[self.indices] - shift)
        z += H @ (P @ (self.b - P.T @ z) - shift)
        return z

    def fit(self, z: np.ndarray) -> np.ndarray:
        """M_P z, the fitted values of passive coefficients z."""
        return self.rows[:self.k].T @ z


def _lawson_hanson(M: np.ndarray, b: np.ndarray, tol: float,
                   max_iter: Optional[int],
                   start: Optional[np.ndarray] = None) -> NnlsSolution:
    """Minimize 0.5||Ma - b||^2 subject to a >= 0.

    ``start`` is an optional initial passive set.  Non-positive
    coefficients are dropped from it until the least-squares fit on the
    rest is strictly positive, which is a valid Lawson-Hanson iterate.
    """
    if M.ndim != 2 or b.shape != (M.shape[0],):
        raise ValueError("M must be (n, p) and b length n")
    if tol <= 0:
        raise ValueError("tol must be positive")
    n, p = M.shape
    if max_iter is None:
        max_iter = 3 * p
    MT = np.ascontiguousarray(M.T)
    MTb = MT @ b
    scale = float(np.linalg.norm(MTb)) or 1.0
    a = np.zeros(p)
    Ma = np.zeros(n)
    ps = _PassiveSet(MT, b, MTb)
    objectives: list[float] = []
    outer = 0

    def current_objective():
        r = Ma - b
        return 0.5 * float(r @ r)

    def solution():
        active = tuple(np.flatnonzero(a == 0.0).tolist())
        return NnlsSolution(a.copy(), float(np.linalg.norm(Ma - b)), active,
                            outer, tuple(objectives))

    if start is not None and ps.reset(np.asarray(start, dtype=np.intp)):
        while ps.k:
            z = ps.solve(0.0)
            if z.min() > 0.0:
                a[ps.indices] = z
                Ma = ps.fit(z)
                break
            ps.remove(np.flatnonzero(z <= 0.0))

    while True:
        objectives.append(current_objective())
        w = MTb - MT @ Ma
        w[ps.indices] = -np.inf
        if not p or w.max() <= tol * scale:
            return solution()
        j = int(np.argmax(w))
        if outer >= max_iter:
            raise ConvergenceError(
                f"NNLS did not converge within {max_iter} iterations",
                iterations=outer, best=solution())
        outer += 1
        while not ps.add(j):
            # Lawson & Hanson's rule: a dependent column cannot lower the
            # unpenalized objective, so it is passed over for this step
            w[j] = -np.inf
            j = int(np.argmax(w))
            if w[j] <= tol * scale:
                return solution()

        inner = 0
        while True:
            inner += 1
            if inner > p + 1:
                raise ConvergenceError(
                    "NNLS inner loop cycled", iterations=outer, best=solution())
            z = ps.solve(0.0)
            P = ps.indices
            if z.min() > 0.0:
                a[P] = z
                break
            ap = a[P]
            neg = z <= 0.0
            alpha = float(np.min(ap[neg] / (ap[neg] - z[neg])))
            ap = ap + alpha * (z - ap)
            keep = ap > 1e-15 * float(np.abs(ap).max())
            a[P] = np.where(keep, ap, 0.0)
            ps.remove(np.flatnonzero(~keep))
            if not ps.k:
                break
        Ma = ps.fit(a[ps.indices])


def construct_poly_exact(d: int, R: int, D: int, seed: int) -> GridQuadrature:
    """Polynomially-exact rule from random candidates.

    Draws D i.i.d. standard-normal candidate points, then solves the
    moment system (one row per exponent vector of total degree <= R,
    right-hand side the analytic normal moment) by NNLS.  Candidates with
    zero weight are dropped.  Raises ConstructionError, carrying the
    achieved residual, when the worst constraint violation exceeds
    ``POLY_EXACT_TOL``, or when the weight sum (the degree-0 row) is off
    by more than the 1e-10 that ``GridQuadrature`` allows; the caller may
    raise D and retry.
    """
    if d < 1 or D < 1:
        raise ValueError("d and D must be positive")
    if R < 0 or R % 2 != 0:
        raise ValueError("R must be a non-negative even integer")
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((D, d))
    indices = moment_multi_indices(d, R)
    system = monomial_matrix(points, indices)
    targets = moment_targets(indices)
    # with D >= #constraints an exact fit exists; drive the KKT pass hard
    # so the degree-0 row (the weight sum) lands within the grid invariant
    sol = nnls(system, targets, tol=1e-13)
    residual = float(np.abs(system @ sol.a - targets).max())
    if residual > POLY_EXACT_TOL:
        raise ConstructionError(
            f"poly-exact construction reached residual {residual:.3e} "
            f"> {POLY_EXACT_TOL:.1e} (d={d}, R={R}, D={D})",
            residual=residual)
    keep = sol.a > 0.0
    weight_gap = float(sol.a[keep].sum()) - 1.0
    if abs(weight_gap) > 1e-10:
        raise ConstructionError(
            f"poly-exact weights sum to 1 {weight_gap:+.3e}, beyond the 1e-10 "
            f"a normalized rule allows (d={d}, R={R}, D={D})",
            residual=abs(weight_gap))
    return GridQuadrature(
        points[keep], sol.a[keep],
        provenance=f"poly_exact(d={d}, R={R}, D={D}, seed={seed}, "
                   f"residual={residual:.3e})")


PairsLike = Union[Sequence[tuple[np.ndarray, np.ndarray]],
                  tuple[np.ndarray, np.ndarray]]


def _pairs_to_arrays(pairs: PairsLike) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(pairs, tuple) and len(pairs) == 2 and np.ndim(pairs[0]) == 2:
        X, Y = (np.asarray(p, dtype=float) for p in pairs)
    else:
        X = np.array([np.asarray(x, dtype=float) for x, _ in pairs])
        Y = np.array([np.asarray(y, dtype=float) for _, y in pairs])
    if X.shape != Y.shape or X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("pairs must give matching (n, d) arrays with n >= 1")
    return X, Y


def _kernel_gamma(kernel, gamma: Optional[float]) -> float:
    if gamma is not None:
        return float(gamma)
    if isinstance(kernel, GaussianKernel):
        return kernel.gamma
    if isinstance(kernel, AnovaKernel):
        return kernel.base.gamma
    raise ValueError("gamma is required when the kernel is a bare callable")


def _fold_twins(candidates: GridQuadrature) -> GridQuadrature:
    """``candidates`` without the later member of each mirror pair w, -w.

    cos is even, so a twin only repeats a column of the reweighting system;
    the member that comes first in pool order is kept.
    """
    seen, keep = set(), []
    for i, row in enumerate(candidates.points + 0.0):  # + 0.0 turns -0.0 into 0.0
        if (0.0 - row).tobytes() not in seen:
            seen.add(row.tobytes())
            keep.append(i)
    if len(keep) == candidates.count:
        return candidates
    return GridQuadrature(candidates.points[keep], candidates.weights[keep],
                          provenance=candidates.provenance, normalized=False)


def _reweight_system(candidates: GridQuadrature, pairs: PairsLike, kernel,
                     gamma: Optional[float]):
    """The twin-folded pool, M[l, i] = cos(w_i'(x_l - y_l)) and b_l = k(x_l - y_l)."""
    pool = _fold_twins(candidates)
    X, Y = _pairs_to_arrays(pairs)
    g = _kernel_gamma(kernel, gamma)
    freqs = pool.points * np.sqrt(2.0 * g)
    U = X - Y
    system = np.cos(U @ freqs.T)
    targets = kernel_values(kernel, U)
    return pool, system, targets


def _fitted_grid(pool: GridQuadrature, system: np.ndarray, targets: np.ndarray,
                 keep: np.ndarray, a: np.ndarray, how: str) -> GridQuadrature:
    """The pool points at ``keep`` with fitted weights ``a``."""
    n = system.shape[0]
    r = system[:, keep] @ a - targets
    return GridQuadrature(
        pool.points[keep], a, normalized=False,
        provenance=f"reweighted({how}, n={n}, sum_a={a.sum()!r}, "
                   f"mse={float(r @ r) / n!r}) of {pool.provenance}")


def _unpenalized_fit(system: np.ndarray, targets: np.ndarray,
                     start: Optional[np.ndarray] = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Support and weights of the Lawson-Hanson fit at lam = 0."""
    sol = _lawson_hanson(system, targets, tol=1e-10, max_iter=None, start=start)
    keep = np.flatnonzero(sol.a > 0.0)
    return keep, sol.a[keep]


def reweight(candidates: GridQuadrature, pairs: PairsLike, kernel,
             lam: float = 0.0, gamma: Optional[float] = None) -> GridQuadrature:
    """Refit grid weights to observed kernel values.

    Builds M[l, i] = cos(w_i'(x_l - y_l)) and b_l = k(x_l - y_l), then
    minimizes (1/n)||Ma - b||^2 + lam 1'a over a >= 0: by Lawson-Hanson at
    lam = 0, on the l1 path otherwise.  Of each mirror pair w, -w in the
    candidates only the first is fitted, since both give the same column.
    Zero-weight points are dropped, and the weight sum is left at its
    fitted value.
    ``kernel`` may be a GaussianKernel, AnovaKernel, or a callable of one
    displacement row (pass ``gamma`` explicitly in the callable case; it sets
    the sqrt(2 gamma) node scaling).
    """
    if not lam >= 0.0:
        raise ValueError(f"lam must be non-negative, got {lam!r}")
    if not candidates.nonnegative:
        raise ValueError("candidate grids must have non-negative weights")
    pool, system, targets = _reweight_system(candidates, pairs, kernel, gamma)
    if lam == 0.0:
        keep, a = _unpenalized_fit(system, targets)
    else:
        # (1/n)||Ma-b||^2 + lam 1'a  ==  (2/n) * (0.5||Ma-b||^2 + (n lam / 2) 1'a)
        keep, a = _path_solution(system, targets, 0.5 * system.shape[0] * lam)
    return _fitted_grid(pool, system, targets, keep, a, f"lam={lam!r}")


@dataclass(frozen=True)
class _PathSegment:
    """One linear piece of the nonnegative-lasso path.

    For hi >= s >= lo the solution is supported on the columns ``support``,
    with coefficients moving linearly from ``a_hi`` at s = hi to ``a_lo`` at
    s = lo.  ``events`` counts the entries and exits walked to reach it,
    the one that opened it included.
    """

    hi: float
    lo: float
    support: np.ndarray
    a_hi: np.ndarray
    a_lo: np.ndarray
    events: int

    def at(self, s: float) -> tuple[np.ndarray, np.ndarray]:
        """Support and coefficients at hi >= s >= lo.  As in Lawson-Hanson,
        coefficients at rounding level of the largest are zeroed: a penalty
        taken from a breakpoint may round-trip to just below it, where the
        entering column would otherwise keep a weight of ~1e-16."""
        if s == self.lo:
            a = self.a_lo
        else:
            a = self.a_hi + (self.hi - s) / (self.hi - self.lo) * (self.a_lo - self.a_hi)
        keep = a > 1e-15 * a.max(initial=0.0)
        return self.support[keep], a[keep]


def _nonneg_lasso_path(M: np.ndarray, b: np.ndarray):
    """Yield the segments of min 0.5||Ma - b||^2 + s 1'a over a >= 0, from
    s = max_j (M'b)_j down to s = 0 (positive LARS: Efron et al. 2004,
    section 3.4; Osborne, Presnell & Turlach 2000).

    On the active set A the coefficients grow along d = (M_A'M_A)^-1 1 as s
    falls, and the correlations c = M'(b - Ma) of the other columns move
    by v = M'M_A d.  A segment ends at the first event: an inactive column
    with 1 - v_j > 0 whose correlation reaches s enters, or an active
    coefficient reaching 0 exits.  c is recomputed from the residual at
    every breakpoint, so errors do not accumulate along the path.  A column
    numerically dependent on the active set is passed over until the next
    exit, as in Lawson-Hanson.  Raises ConvergenceError (the last segment
    attached) past 3p events.
    """
    n, p = M.shape
    MT = np.ascontiguousarray(M.T)
    MTb = MT @ b
    s = float(MTb.max(initial=0.0))
    if s <= 0.0:
        return  # a = 0 is optimal at every s >= 0
    ps = _PassiveSet(MT, b, MTb)
    # one active column has d > 0 and never exits, so A is never empty
    ps.add(int(np.argmax(MTb)))
    passed = np.zeros(p, dtype=bool)
    events = 1
    while True:
        k = ps.k
        support = ps.indices.copy()
        a = ps.solve(s)
        d = ps.inv[:k, :k].sum(axis=1)
        fit = ps.fit(np.column_stack([a, d]))
        c, v = (MT @ np.column_stack([b - fit[:, 0], fit[:, 1]])).T
        t_out = np.full(k, np.inf)
        falling = d < 0.0
        t_out[falling] = np.maximum(a[falling], 0.0) / -d[falling]
        gap = 1.0 - v
        t_in = np.full(p, np.inf)
        can = (gap > 0.0) & ~passed
        can[support] = False
        t_in[can] = np.maximum(s - c[can], 0.0) / gap[can]
        while True:
            j, i = int(np.argmin(t_in)), int(np.argmin(t_out))
            step = min(t_in[j], t_out[i], s)
            if step == s:
                yield _PathSegment(s, 0.0, support, a, a + s * d, events)
                return
            if t_out[i] <= t_in[j]:
                ps.remove(np.array([i]))
                passed[:] = False
                break
            if ps.add(j):
                break
            passed[j] = True
            t_in[j] = np.inf
        segment = _PathSegment(s, s - step, support, a, a + step * d, events)
        yield segment
        events += 1
        if events > 3 * p:
            raise ConvergenceError(
                f"nonnegative-lasso path exceeded {3 * p} events",
                iterations=events, best=segment)
        s -= step


def _path_solution(M: np.ndarray, b: np.ndarray, s: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Support and coefficients of min 0.5||Ma - b||^2 + s 1'a over a >= 0,
    for s > 0, read off the segment of the l1 path that contains s."""
    for segment in _nonneg_lasso_path(M, b):
        if s >= segment.hi:
            break  # s is at or above the first breakpoint: a = 0
        if s >= segment.lo:
            return segment.at(s)
    return np.zeros(0, dtype=np.intp), np.zeros(0)


@dataclass(frozen=True)
class BisectResult:
    """Outcome of the support-size selection on the l1 path.

    ``grid`` is the accepted rule, with at most ``D`` points, and
    ``lam`` the penalty that selected its support.  ``lam_below``/``nnz_below``
    certify the crossing: a lower penalty and its support size, larger than
    the target, or None when the unpenalized fit was already small enough.
    ``steps`` counts the path events (entries plus exits) walked to reach
    the crossing, 0 without one.
    """

    lam: float
    grid: GridQuadrature
    lam_below: Optional[float]
    nnz_below: Optional[int]
    steps: int = 0


def bisect_lambda(candidates: GridQuadrature, pairs: PairsLike, kernel,
                  D: int, gamma: Optional[float] = None) -> BisectResult:
    """Choose the l1 penalty at which ``D`` points survive.

    Walks the exact path of the penalized fit (1/n)||Ma - b||^2 + lam 1'a,
    a >= 0, from the penalty at which the first candidate enters down
    towards 0.  Each step is one event, a point entering or leaving the
    support.  The support size is not monotone in lam, since points also
    leave as the penalty falls, so the selection is the first crossing
    walking down: the support just above the largest breakpoint at which
    an entry would grow it past ``D``.  That support has exactly
    ``D`` points, and ``lam`` is the breakpoint.  Lower penalties
    at which the support returns to ``D`` points are not visited.
    ``lam_below`` is the midpoint of the next segment of the path and
    ``nnz_below`` its support size, ``D + 1``, which ``reweight``
    at ``lam_below`` reproduces.  When the path reaches lam = 0 without
    passing ``D``, its end, the unpenalized fit, is returned with
    lam = 0.

    Mirror pairs w, -w in the candidates are folded as in ``reweight``.
    The penalty only selects the support: the weights are refit at lam = 0
    on the surviving points, so hitting a small target does not cost
    systematic shrinkage of the weight sum; ``reweight`` at ``lam`` gives
    the penalized solution.
    """
    if D < 1:
        raise ValueError("D must be positive")
    pool, system, targets = _reweight_system(candidates, pairs, kernel, gamma)
    n = system.shape[0]
    chosen = None
    for segment in _nonneg_lasso_path(system, targets):
        if segment.support.size > D:
            break
        chosen = segment
    else:
        keep, a = chosen.at(0.0) if chosen else (np.zeros(0, dtype=np.intp),
                                                 np.zeros(0))
        return BisectResult(0.0, _fitted_grid(pool, system, targets, keep, a,
                                              "lam=0.0"), None, None)

    lam = 2.0 * chosen.lo / n
    support, _ = chosen.at(chosen.lo)
    keep, a = _unpenalized_fit(system[:, support], targets,
                               start=np.arange(support.size))
    grid = _fitted_grid(pool, system, targets, support[keep], a,
                        f"lam={lam!r}, refit at lam=0 on its support")
    return BisectResult(lam, grid, (segment.hi + segment.lo) / n,
                        segment.support.size, segment.events)
