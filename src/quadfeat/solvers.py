"""Non-negative least squares and the two NNLS-backed rule constructors.

``nnls`` is a Lawson-Hanson active-set solver.  It keeps an orthonormal
basis Q of the passive columns M_P and the factor S with M_P S = Q, so a
passive solve is S Q'b, its fit is Q Q'b, and the condition of M_P is never
squared as in the normal equations.  A column enters by Gram-Schmidt and
leaves by one Householder reflection, each O(nk) for k passive columns.  A
column numerically dependent on the passive set, or whose coefficient would
enter non-positive, is passed over for that step, as in Lawson & Hanson
(1974, ch. 23).  On a large system, pricing is partial, as in simplex codes
(Maros 2003): a full pass forms the gradient M'r over every column and
keeps the ``_SHORTLIST`` largest, and the steps after it price only those,
entering the best positive one.  When none of them can enter, a full pass
follows.  Only a full pass may end the solve, so the KKT exit test covers
every column.  Lawson and Hanson's convergence argument needs only that
each entering column has a positive gradient.

On top of it sit

* ``construct_poly_exact``: random spectral candidates reweighted to match
  every normal moment of even total degree <= R, emitted as the
  sign-symmetric rule [P; -P], [a/2; a/2], whose odd moments vanish by
  symmetry.  The system is written in the orthonormal Hermite basis (row r
  is prod_l He_{r_l}(w_l) / sqrt(r_l!), right-hand side e_0), which has the
  exact solutions of the monomial system but is far better conditioned, so
  Lawson-Hanson takes fewer steps; the rule is checked against every
  monomial moment, and
* ``reweight``: data-adaptive weights minimizing the empirical mean
  squared error of a ``GaussianKernel`` over sampled pairs, given as one
  (X, Y) pair of (n, d) arrays, by Lawson-Hanson, and ``bisect_lambda``,
  which keeps at most D of its points.  It walks the exact
  nonnegative-lasso path (positive LARS) from the largest useful penalty
  down, one entering or leaving column per step, reading only its
  breakpoints; the path updates the same passive-set factor, and each
  step costs O(np).  The support it selects is refit by Lawson-Hanson.
  Both fold each pair of twins w, -w of the candidates into one column
  first (``grids.fold_twins``, the fold every feature map makes of its
  rule).

Reweighted grids keep their fitted scale: the least-squares objective
governs, so the weights are deliberately not renormalized to sum to 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConstructionError, ConvergenceError
from .grids import (
    GridQuadrature,
    exactness_residual,
    fold_twins,
    hermite_matrix,
    moment_multi_indices,
)
from .kernels import GaussianKernel

# an entering column whose part orthogonal to the passive columns is below
# this fraction of its norm lies numerically in their span
_DEPENDENT = 1e-8
# a full pricing pass shortlists this many columns for the steps after it,
# once M has _SHORTLIST_FROM entries (1.2 MB of doubles): on smaller systems
# a full pass costs less than the extra steps a shortlist takes
_SHORTLIST = 8
_SHORTLIST_FROM = 150_000
POLY_EXACT_TOL = 1e-8  # worst moment violation a poly-exact rule may keep


@dataclass(frozen=True)
class NnlsSolution:
    """Solution of min ||Ma - b||^2 s.t. a >= 0.

    ``iterations`` counts the steps, each of which entered one column, and
    ``passes`` the pricing passes over all p columns; ``objectives`` holds
    0.5||Ma - b||^2 at the start of each step and at the exit.
    """

    a: np.ndarray
    residual_norm: float
    active_set: tuple[int, ...]
    iterations: int
    passes: int
    objectives: tuple[float, ...]


def nnls(M: np.ndarray, b: np.ndarray, tol: float = 1e-10,
         max_iter: Optional[int] = None) -> NnlsSolution:
    """Lawson-Hanson NNLS on an updated orthonormal basis of the passive set.

    Once M has ``_SHORTLIST_FROM`` entries, each full pricing pass over all
    p columns shortlists the ``_SHORTLIST`` columns with the largest
    gradient, and the steps after it price only those until none can
    enter.  The solve ends only on a full pass, so the KKT test below is
    exact over all p columns.  ``iterations`` counts the steps and
    ``passes`` the full pricing passes.

    KKT at exit: gradient components on the support vanish to within
    ``tol * ||M^T b||`` and are non-negative off the support, except on
    columns numerically dependent on the support.  Raises
    ConvergenceError (best iterate attached) past ``max_iter`` outer
    iterations, default 3p.  A NaN or infinite entry of ``M`` or ``b``
    raises ValueError before the first iteration.
    """
    return _lawson_hanson(np.asarray(M, dtype=float), np.asarray(b, dtype=float),
                          tol=tol, max_iter=max_iter)


class _PassiveSet:
    """Passive columns M_P of M as an orthonormal basis and its factor.

    The rows of ``Q[:k, :n]`` are an orthonormal basis q_1..q_k of the
    passive columns, ``Q[:k, n]`` holds q_r'b, and ``S[:k, :k]`` is the
    factor with M_P S = [q_1 .. q_k], so (M_P'M_P)^-1 = S S'.  Both live in
    buffers sized for the largest possible passive set, min(n, p).
    """

    def __init__(self, MT: np.ndarray, b: np.ndarray):
        cap, n = min(MT.shape), MT.shape[1]
        self.MT, self.b = MT, b
        self.idx = np.empty(cap, dtype=np.intp)
        self.Q = np.empty((cap, n + 1))
        self.S = np.empty((cap, cap))
        self.k = 0

    @property
    def indices(self) -> np.ndarray:
        return self.idx[:self.k]

    def add(self, j: int) -> bool:
        """Append column j by Gram-Schmidt against the basis; False, and the
        set unchanged, if j is numerically dependent on the passive columns."""
        k = self.k
        if k == self.idx.size:
            return False
        col = self.MT[j]
        Q = self.Q[:k, :-1]
        h = Q @ col
        r = col - h @ Q
        norm, rho = (col @ col) ** 0.5, (r @ r) ** 0.5
        if rho < 0.5 * norm:  # cancellation: orthogonalize a second time
            h2 = Q @ r
            r -= h2 @ Q
            h += h2
            rho = (r @ r) ** 0.5
        if not rho > _DEPENDENT * norm:
            return False
        # col = Q'h + rho q, so q = M_P (-S h / rho) + col / rho
        self.S[:k, k] = self.S[:k, :k] @ (h / -rho)
        self.S[k, :k] = 0.0
        self.S[k, k] = 1.0 / rho
        np.divide(r, rho, out=self.Q[k, :-1])
        self.Q[k, -1] = self.Q[k, :-1] @ self.b
        self.idx[k] = j
        self.k = k + 1
        return True

    def enter(self, j: int) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Add column j and return the unpenalized passive solve and its fit;
        None, and the set unchanged, if j is dependent on the passive columns
        or its coefficient is not positive."""
        if self.add(j):
            z, fit = self.solve()
            if z[-1] > 0.0:
                return z, fit
            self.remove(np.array([self.k - 1]))
        return None

    def remove(self, positions: np.ndarray) -> None:
        """Drop the passive columns at ``positions``.  One Householder
        reflection of the basis maps the column's row of S onto the last unit
        vector, so that only the last basis vector involves the column; that
        vector, the row and the last column of S are then cut off."""
        for i in np.sort(positions)[::-1]:
            k = self.k
            S, Q = self.S[:k, :k], self.Q[:k]
            v = S[i].copy()
            norm, end = float(v @ v) ** 0.5, float(v[-1])
            v[-1] += norm if end >= 0.0 else -norm
            v /= (norm * (norm + abs(end))) ** 0.5  # v'v = 2: I - v v' reflects
            S -= np.outer(S @ v, v)
            Q -= np.outer(v, v @ Q)
            S[i], self.idx[i] = S[-1], self.idx[k - 1]  # the last row replaces row i
            self.k = k - 1

    def reset(self, start: np.ndarray) -> bool:
        """Make ``start`` the passive set by a QR factorization of its columns;
        False, and the set left empty, if one is numerically dependent on the
        columns before it."""
        k = start.size
        cols = self.MT[start]
        Q, R = np.linalg.qr(cols.T)
        if not (np.abs(np.diag(R)) > _DEPENDENT * np.linalg.norm(cols, axis=1)).all():
            return False
        self.Q[:k, :-1] = Q.T
        self.Q[:k, -1] = self.b @ Q
        self.S[:k, :k] = np.linalg.inv(R)
        self.idx[:k] = start
        self.k = k
        return True

    def solve(self) -> tuple[np.ndarray, np.ndarray]:
        """Minimizer z of ||M_P z - b|| and its fit M_P z: z = S Q'b and
        M_P z = Q Q'b."""
        Q = self.Q[:self.k]
        return self.S[:self.k, :self.k] @ Q[:, -1], Q[:, -1] @ Q[:, :-1]


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
    if not (np.isfinite(M).all() and np.isfinite(b).all()):
        raise ValueError("M and b must be finite")
    if tol <= 0:
        raise ValueError("tol must be positive")
    n, p = M.shape
    max_iter = 3 * p if max_iter is None else max_iter
    MT = np.ascontiguousarray(M.T)
    MTb = MT @ b
    scale = float(np.linalg.norm(MTb)) or 1.0
    a = np.zeros(p)
    Ma = np.zeros(n)
    ps = _PassiveSet(MT, b)
    objectives: list[float] = []
    outer = passes = 0

    def solution():
        active = tuple(np.flatnonzero(a == 0.0).tolist())
        return NnlsSolution(a.copy(), float(np.linalg.norm(M @ a - b)), active,
                            outer, passes, tuple(objectives))

    if start is not None and ps.reset(np.asarray(start, dtype=np.intp)):
        while ps.k:
            z, fit = ps.solve()
            if z.min() > 0.0:
                a[ps.indices], Ma = z, fit
                break
            ps.remove(np.flatnonzero(z <= 0.0))

    # partial pricing: a full pass forms the gradient M'r of every column and
    # copies the K largest columns into one block MS; the steps after it
    # price only MS, and a full pass follows when none of it can enter.
    # ``spent`` marks the shortlisted columns passive at the pass or entered since
    K = _SHORTLIST if p > _SHORTLIST and n * p >= _SHORTLIST_FROM else 0
    short = np.empty(0, dtype=np.intp)
    MS, spent = MT[short], np.zeros(0, dtype=bool)
    floor = tol * scale
    while True:
        r = b - Ma
        objectives.append(0.5 * float(r @ r))
        entered = None
        for cols in (short, None):
            if cols is not None:
                w = MS @ r
                w[spent] = -np.inf
            else:
                passes += 1
                w = MT @ r
                w[ps.indices] = -np.inf
                if K:
                    short = np.argpartition(w, -K)[-K:]
                    MS, spent = MT[short], w[short] == -np.inf
            while w.size and w[i := int(np.argmax(w))] > floor:
                if outer >= max_iter:
                    raise ConvergenceError(
                        f"NNLS did not converge within {max_iter} iterations",
                        iterations=outer, best=solution())
                j = i if cols is None else int(cols[i])
                if (entered := ps.enter(j)) is not None:
                    break
                # Lawson & Hanson's rule: a column that cannot enter with a
                # positive coefficient cannot lower the unpenalized objective,
                # so it is passed over for this step
                w[i] = -np.inf
            if entered is not None:
                break
        else:
            # only a full pass ends the solve, so the KKT test covers every column
            return solution()
        outer += 1
        spent |= short == j
        z, fit = entered

        inner = 0
        while z.size and z.min() <= 0.0:
            inner += 1
            if inner > p + 1:
                raise ConvergenceError(
                    "NNLS inner loop cycled", iterations=outer, best=solution())
            P = ps.indices
            ap = a[P]
            neg = z <= 0.0
            alpha = float(np.min(ap[neg] / (ap[neg] - z[neg])))
            ap = ap + alpha * (z - ap)
            keep = ap > 1e-15 * float(np.abs(ap).max())
            a[P] = np.where(keep, ap, 0.0)
            ps.remove(np.flatnonzero(~keep))
            z, fit = ps.solve()
        a[ps.indices], Ma = z, fit


def construct_poly_exact(d: int, R: int, D: int, seed: int) -> GridQuadrature:
    """Polynomially-exact rule from random candidates, symmetric in sign.

    Draws D i.i.d. standard-normal candidate points and solves, by NNLS,
    the moment system in the orthonormal Hermite basis over the exponent
    vectors r of even total degree <= R: one row prod_l h_{r_l}(w_l) per r
    (``grids.hermite_matrix``), right-hand side e_0, the normal expectation
    of each row.  Its rows are a triangular recombination of the even
    monomial rows, whose right-hand side is the analytic normal moment, so
    both systems have the same exact solutions; the Hermite one is far
    better conditioned (Sommariva & Vianello 2015).  The odd rows are left
    out because k~(u) = sum_i a_i cos(w_i'u) is even in every w_i: the odd
    moments never reach the estimate, nor the Taylor argument of
    ``bounds.poly_bound``.  The h candidates P with positive weight a
    (h <= the number of rows) become the sign-symmetric rule [P; -P] with
    weights [a/2; a/2], whose odd moments vanish by symmetry, so it is
    exact for every monomial of degree <= R.  A ``FeatureMap`` folds its
    twins (``grids.fold_twins``) and estimates and embeds with the h
    cosines of (P, a), bitwise a/2 + a/2 = a: the map's D (``count``) is h.
    The rule is checked in the monomial basis: raises ConstructionError,
    carrying the achieved residual, when its ``exactness_residual`` exceeds
    ``POLY_EXACT_TOL``, or when the weight sum is off by more than the 1e-10
    that ``GridQuadrature`` allows; the caller may raise D and retry.
    """
    if d < 1 or D < 1:
        raise ValueError("d and D must be positive")
    if R < 0 or R % 2 != 0:
        raise ValueError("R must be a non-negative even integer")
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((D, d))
    indices = moment_multi_indices(d, R, even=True)
    target = np.zeros(len(indices))
    target[0] = 1.0  # indices[0] is r = 0, the weight sum
    # with D >= #constraints an exact fit exists; drive the KKT pass hard
    # so the weight sum lands within the grid invariant
    sol = nnls(hermite_matrix(points, indices), target, tol=1e-13)
    keep = sol.a > 0.0
    half = 0.5 * sol.a[keep]
    signed = (np.concatenate([points[keep], -points[keep]]),
              np.concatenate([half, half]))
    residual = exactness_residual(GridQuadrature(*signed, normalized=False), R)
    if residual > POLY_EXACT_TOL:
        raise ConstructionError(
            f"poly-exact construction reached residual {residual:.3e} "
            f"> {POLY_EXACT_TOL:.1e} (d={d}, R={R}, D={D})",
            residual=residual)
    weight_gap = float(signed[1].sum()) - 1.0
    if abs(weight_gap) > 1e-10:
        raise ConstructionError(
            f"poly-exact weights sum to 1 {weight_gap:+.3e}, beyond the 1e-10 "
            f"a normalized rule allows (d={d}, R={R}, D={D})",
            residual=abs(weight_gap))
    return GridQuadrature(
        *signed,
        provenance=f"poly_exact(d={d}, R={R}, D={D}, seed={seed}, "
                   f"residual={residual:.3e})")


def _displacements(pairs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """x_l - y_l for the pairs (X, Y), two matching (n, d) arrays: the one
    parse of pairs, for reweighting and ``harness.rms_error``."""
    if len(pairs) != 2:
        raise ValueError(f"pairs must be (X, Y), two arrays; got {len(pairs)}")
    X, Y = (np.asarray(p, dtype=float) for p in pairs)
    if X.shape != Y.shape or X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("pairs must be (X, Y), matching (n, d) arrays with "
                         f"n >= 1; got shapes {X.shape} and {Y.shape}")
    U = X - Y
    finite = np.isfinite(U).all(axis=1)
    if not finite.all():
        raise ValueError(f"pairs must be finite; row {np.argmin(finite)} is not")
    return U


def _reweight_system(candidates: GridQuadrature,
                     pairs: tuple[np.ndarray, np.ndarray],
                     kernel: GaussianKernel):
    """The twin-folded pool's points, M[l, i] = cos(w_i'(x_l - y_l)) and
    b_l = k(x_l - y_l).  A twin -w only repeats the column of w, so the
    first of each pair, in candidate order, is kept.  Candidates with a
    negative weight (a Smolyak grid) are refused."""
    if not candidates.nonnegative:
        raise ValueError("candidate grids must have non-negative weights")
    if not isinstance(kernel, GaussianKernel):
        raise TypeError("reweighting fits a GaussianKernel, got "
                        f"{type(kernel).__name__}")
    keep, _ = fold_twins(candidates.points, candidates.weights)
    pool = candidates.points[keep]
    U = _displacements(pairs)
    freqs = pool * np.sqrt(2.0 * kernel.gamma)
    # np.cos, not the estimator's tangent identity (grids._cos_from_half): the
    # fitted supports and weights depend on every bit of this system
    system = np.cos(U @ freqs.T)
    return pool, system, kernel.value(U)


def _fitted_grid(candidates: GridQuadrature, pool: np.ndarray, system: np.ndarray,
                 targets: np.ndarray, keep: np.ndarray, a: np.ndarray,
                 how: str) -> GridQuadrature:
    """The pool points at ``keep`` with fitted weights ``a``."""
    n = system.shape[0]
    r = system[:, keep] @ a - targets
    return GridQuadrature(
        pool[keep], a, normalized=False,
        provenance=f"reweighted({how}, n={n}, sum_a={float(a.sum())!r}, "
                   f"mse={float(r @ r) / n!r}) of {candidates.provenance}")


def _unpenalized_fit(system: np.ndarray, targets: np.ndarray,
                     start: Optional[np.ndarray] = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Support and weights of the Lawson-Hanson fit."""
    sol = _lawson_hanson(system, targets, tol=1e-10, max_iter=None, start=start)
    keep = np.flatnonzero(sol.a > 0.0)
    return keep, sol.a[keep]


def reweight(candidates: GridQuadrature, pairs: tuple[np.ndarray, np.ndarray],
             kernel: GaussianKernel) -> GridQuadrature:
    """Refit grid weights to observed kernel values.

    ``pairs`` is (X, Y), two matching (n, d) arrays of finite entries, and
    ``kernel`` a GaussianKernel: its ``gamma`` scales the nodes by
    sqrt(2 gamma) and its ``value`` gives the targets.  Builds
    M[l, i] = cos(w_i'(x_l - y_l)) and b_l = k(x_l - y_l), then
    minimizes (1/n)||Ma - b||^2 over a >= 0 by Lawson-Hanson, with no
    penalty.  Of each pair of twins w, -w in the candidates only the first
    is fitted, since both give the same column.  Zero-weight points are
    dropped, and the weight sum is left at its fitted value.  Another
    kernel type raises TypeError; candidates with a negative weight,
    ``pairs`` that are not two arrays, mismatched pairs, or a pair row with
    a NaN or infinite displacement raise ValueError.  ``bisect_lambda``
    bounds the support size.
    """
    pool, system, targets = _reweight_system(candidates, pairs, kernel)
    keep, a = _unpenalized_fit(system, targets)
    return _fitted_grid(candidates, pool, system, targets, keep, a, "lam=0.0")


# a segment shorter than this fraction of its upper end is one breakpoint
# to within rounding: the column entering at hi has only a few-ulp weight at lo
_ROUNDS_TO = 8 * np.finfo(float).eps


@dataclass(frozen=True)
class _PathSegment:
    """One linear piece of the nonnegative-lasso path, read at its ends.

    For hi >= s >= lo the solution is supported on the columns ``support``,
    with coefficients moving linearly from ``a_hi`` at s = hi to ``a_lo`` at
    s = lo; ``low_end`` gives the solution at the breakpoint lo.
    ``entered`` is the position in ``support`` of the column whose entry
    opened the segment at hi, its coefficient exactly 0 there, and
    ``exits`` that of the column that leaves at lo, each None if that
    breakpoint is another kind of event.  ``events`` counts the entries and
    exits walked to reach the segment, the one that opened it included.
    """

    hi: float
    lo: float
    support: np.ndarray
    a_hi: np.ndarray
    a_lo: np.ndarray
    events: int
    entered: Optional[int]
    exits: Optional[int]

    def low_end(self) -> tuple[np.ndarray, np.ndarray]:
        """Support and coefficients at s = lo.  The column that exits at lo
        is dropped, and so is the entering one when the segment is shorter
        than ``_ROUNDS_TO * hi``: the breakpoint decides, not the few-ulp
        weight the column would keep there."""
        keep = np.ones(self.a_lo.size, dtype=bool)
        if self.entered is not None and self.hi - self.lo <= _ROUNDS_TO * self.hi:
            keep[self.entered] = False
        if self.exits is not None:
            keep[self.exits] = False
        return self.support[keep], self.a_lo[keep]


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
    ps = _PassiveSet(MT, b)
    # one active column has d > 0 and never exits, so A is never empty
    ps.add(int(np.argmax(MTb)))
    passed = np.zeros(p, dtype=bool)
    events = 1
    entered = 0  # position of the column whose entry opens the next segment
    while True:
        k = ps.k
        support = ps.indices.copy()
        # [a, d] = S y and M_A [a, d] = Q y, with y = [Q'b - s S'1, S'1]
        S, Q = ps.S[:k, :k], ps.Q[:k]
        y = S.sum(axis=0) * np.array([[-s], [1.0]])
        y[0] += Q[:, -1]
        a, d = y @ S.T
        fit = y @ Q[:, :-1]
        fit[0] = b - fit[0]  # c from the residual b - M_A a, not from M'b
        c, v = (MT @ fit.T).T
        t_out = np.full(k, np.inf)
        falling = d < 0.0
        t_out[falling] = np.maximum(a[falling], 0.0) / -d[falling]
        gap = 1.0 - v
        t_in = np.full(p, np.inf)
        can = (gap > 0.0) & ~passed
        can[support] = False
        t_in[can] = np.maximum(s - c[can], 0.0) / gap[can]
        exits = None
        while True:
            j, i = int(np.argmin(t_in)), int(np.argmin(t_out))
            step = min(t_in[j], t_out[i], s)
            if step == s:
                break
            if t_out[i] <= t_in[j]:
                ps.remove(np.array([i]))
                passed[:] = False
                exits = i
                break
            if ps.add(j):
                break
            passed[j] = True
            t_in[j] = np.inf
        a_lo = a + step * d
        # the entering column's coefficient vanishes at its breakpoint, but
        # the solve leaves it off by up to ~1e-14 of the largest, of either sign
        if entered is not None:
            a[entered] = 0.0
        segment = _PathSegment(s, s - step, support, a, a_lo, events,
                               entered, exits)
        yield segment
        if step == s:
            return
        entered = None if exits is not None else k
        events += 1
        if events > 3 * p:
            raise ConvergenceError(
                f"nonnegative-lasso path exceeded {3 * p} events",
                iterations=events, best=segment)
        s -= step


@dataclass(frozen=True)
class BisectResult:
    """Outcome of the support-size selection on the l1 path.

    ``grid`` is the accepted rule, with at most ``D`` points.  The other
    fields are diagnostics of the bracket: ``lam`` is the breakpoint that
    selected its support, and ``lam_below``/``nnz_below`` a lower penalty
    on the path and its support size, larger than the target, or None when
    the unpenalized fit was already small enough.  ``steps`` counts the
    path events (entries plus exits) walked to reach the crossing, 0
    without one.
    """

    lam: float
    grid: GridQuadrature
    lam_below: Optional[float]
    nnz_below: Optional[int]
    steps: int = 0


def bisect_lambda(candidates: GridQuadrature,
                  pairs: tuple[np.ndarray, np.ndarray], kernel: GaussianKernel,
                  D: int) -> BisectResult:
    """Select the reweighted rule with at most ``D`` points.

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
    ``nnz_below`` its support size, ``D + 1``.  Only the breakpoints are
    read.  When the path reaches lam = 0 without passing ``D``, its end,
    the unpenalized fit, is returned with lam = 0.

    ``pairs`` and ``kernel`` are as in ``reweight``, and twins w, -w in
    the candidates are folded as there.
    The penalty only selects the support: the weights are refit without
    penalty on the surviving points, so hitting a small target does not
    cost systematic shrinkage of the weight sum.
    """
    if D < 1:
        raise ValueError("D must be positive")
    pool, system, targets = _reweight_system(candidates, pairs, kernel)
    n = system.shape[0]
    chosen = None
    for segment in _nonneg_lasso_path(system, targets):
        if segment.support.size > D:
            break
        chosen = segment
    else:
        keep, a = chosen.low_end() if chosen else (np.zeros(0, dtype=np.intp),
                                                   np.zeros(0))
        return BisectResult(0.0, _fitted_grid(candidates, pool, system, targets,
                                              keep, a, "lam=0.0"), None, None)

    lam = float(2.0 * chosen.lo / n)
    support, _ = chosen.low_end()
    keep, a = _unpenalized_fit(system[:, support], targets,
                               start=np.arange(support.size))
    grid = _fitted_grid(candidates, pool, system, targets, support[keep], a,
                        f"lam={lam!r}, refit at lam=0 on its support")
    return BisectResult(lam, grid, float((segment.hi + segment.lo) / n),
                        segment.support.size, segment.events)
