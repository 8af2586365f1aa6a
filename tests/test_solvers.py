"""Tests for NNLS and the NNLS-backed rule constructors."""
import dataclasses
import itertools
import math

import numpy as np
import pytest

from quadfeat import solvers
from quadfeat.errors import ConstructionError, ConvergenceError
from quadfeat.grids import (
    GridQuadrature,
    dense_grid,
    exactness_residual,
    moment_multi_indices,
    moment_targets,
    monomial_matrix,
    subsample_dense_grid,
    subsample_grid,
)
from quadfeat.kernels import GaussianKernel
from quadfeat.solvers import (
    bisect_lambda,
    construct_poly_exact,
    nnls,
    reweight,
)


def brute_force_nnls_objective(M, b):
    """Try every active set; unconstrained solve, feasibility filter."""
    p = M.shape[1]
    best = float(b @ b)  # the all-zero solution
    for size in range(1, p + 1):
        for support in itertools.combinations(range(p), size):
            sub = M[:, support]
            coef, *_ = np.linalg.lstsq(sub, b, rcond=None)
            if (coef >= -1e-12).all():
                r = sub @ coef - b
                best = min(best, float(r @ r))
    return best


def penalized_objective(M, b, shift, a):
    r = M @ a - b
    return 0.5 * float(r @ r) + shift * float(a.sum())


def brute_force_penalized_objective(M, b, shift):
    """Try every support of independent columns: the stationary point of
    0.5||M_S a - b||^2 + shift 1'a, feasibility filter.  Some optimum has
    such a support, with the stationary point as its coefficients."""
    n, p = M.shape
    best = 0.5 * float(b @ b)  # the all-zero solution
    for size in range(1, min(n, p) + 1):
        for support in itertools.combinations(range(p), size):
            sub = M[:, support]
            if np.linalg.matrix_rank(sub) < size:
                continue
            coef = np.linalg.solve(sub.T @ sub, sub.T @ b - shift)
            if (coef >= -1e-12).all():
                best = min(best, penalized_objective(sub, b, shift, coef))
    return best


def kkt_residuals(M, b, a, scale):
    grad = M.T @ (M @ a - b)
    on = np.abs(grad[a > 0]) if (a > 0).any() else np.zeros(1)
    off = grad[a == 0] if (a == 0).any() else np.zeros(1)
    return on.max() / scale, max(0.0, float(-off.min())) / scale


class TestNnls:
    def test_clipping_at_the_constraint(self):
        sol = nnls(np.eye(2), np.array([1.0, -1.0]))
        np.testing.assert_allclose(sol.a, [1.0, 0.0])
        assert sol.residual_norm == pytest.approx(1.0)
        assert sol.active_set == (1,)

    def test_exact_fit(self):
        sol = nnls(np.array([[1.0], [1.0]]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(sol.a, [1.0])
        assert sol.residual_norm == pytest.approx(0.0, abs=1e-14)

    def test_random_instances_match_exhaustive_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n, p = 6, 4
            M = rng.standard_normal((n, p))
            b = rng.standard_normal(n)
            sol = nnls(M, b)
            objective = sol.residual_norm**2
            assert objective == pytest.approx(brute_force_nnls_objective(M, b),
                                              abs=1e-9)

    def test_kkt_conditions(self):
        rng = np.random.default_rng(23)
        for n, p in [(8, 5), (20, 12), (50, 80), (120, 500)]:
            M = rng.standard_normal((n, p))
            b = rng.standard_normal(n)
            sol = nnls(M, b)
            scale = np.linalg.norm(M.T @ b)
            on, off = kkt_residuals(M, b, sol.a, scale)
            assert on <= 1e-8
            assert off <= 1e-8

    def test_objective_monotone_across_outer_iterations(self):
        rng = np.random.default_rng(29)
        M = rng.standard_normal((30, 20))
        b = rng.standard_normal(30)
        sol = nnls(M, b)
        diffs = np.diff(np.asarray(sol.objectives))
        assert (diffs <= 1e-12).all()

    def test_iteration_cap_attaches_best_iterate(self):
        rng = np.random.default_rng(31)
        M = rng.standard_normal((40, 30))
        b = rng.standard_normal(40)
        with pytest.raises(ConvergenceError) as exc:
            nnls(M, b, max_iter=1)
        assert exc.value.best is not None
        assert (exc.value.best.a >= 0).all()

    def test_residual_norm_matches_recomputation(self):
        rng = np.random.default_rng(37)
        M = rng.standard_normal((15, 9))
        b = rng.standard_normal(15)
        sol = nnls(M, b)
        assert sol.residual_norm == pytest.approx(
            np.linalg.norm(M @ sol.a - b), abs=1e-10)


class TestConstructPolyExact:
    def test_degree_zero_is_weight_normalization(self):
        for D in (1, 10, 40):
            g = construct_poly_exact(3, 0, D, seed=0)
            assert g.weights.sum() == pytest.approx(1.0, abs=1e-10)
            assert g.nonnegative

    def test_one_dim_degree_four(self):
        g = construct_poly_exact(1, 4, 50, seed=0)
        assert exactness_residual(g, 4) <= 1e-8

    def test_figure_one_configuration_has_351_constraints(self):
        assert math.comb(25 + 2, 25) == 351
        g = construct_poly_exact(25, 2, 1000, seed=0)
        assert exactness_residual(g, 2) <= 1e-8
        # NNLS support cannot exceed the constraint count here
        assert g.count <= 351

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            construct_poly_exact(2, 3, 10, seed=0)

    def test_unreachable_tolerance_reports_residual(self):
        # far too few candidates to satisfy 15 constraints
        with pytest.raises(ConstructionError) as exc:
            construct_poly_exact(4, 2, 3, seed=0)
        assert exc.value.residual > 1e-8

    def test_weight_sum_gap_is_a_construction_error(self, monkeypatch):
        # moment residual 5e-10 passes POLY_EXACT_TOL, but a normalized rule
        # allows only 1e-10 on the weight sum
        real = solvers.nnls

        def off_by_5e10(M, b, **kwargs):
            sol = real(M, b, **kwargs)
            return dataclasses.replace(sol, a=sol.a * (1.0 + 5e-10))

        monkeypatch.setattr(solvers, "nnls", off_by_5e10)
        with pytest.raises(ConstructionError) as exc:
            construct_poly_exact(3, 2, 40, seed=0)
        assert exc.value.residual == pytest.approx(5e-10, rel=1e-3)


def synthetic_reweight_problem(seed=0, n=60, d=2, pool=40):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    Y = rng.standard_normal((n, d))
    candidates = subsample_dense_grid(4, d, pool, seed=seed)
    return candidates, (X, Y), GaussianKernel(0.5)


class TestReweight:
    def test_large_penalty_empties_the_grid(self):
        candidates, pairs, kernel = synthetic_reweight_problem()
        U = pairs[0] - pairs[1]
        system = np.cos(U @ (candidates.points * 1.0).T)
        b = kernel.value(U)
        lam = 2.0 * np.linalg.norm(system.T @ b) / U.shape[0]
        g = reweight(candidates, pairs, kernel, lam)
        assert g.count == 0

    @pytest.mark.parametrize("lam", [-0.1, math.nan])
    def test_negative_or_nan_penalty_rejected(self, lam):
        candidates, pairs, kernel = synthetic_reweight_problem()
        with pytest.raises(ValueError, match="non-negative"):
            reweight(candidates, pairs, kernel, lam)

    def test_planted_single_atom_recovered(self):
        rng = np.random.default_rng(5)
        d = 2
        X = rng.standard_normal((80, d))
        Y = rng.standard_normal((80, d))
        omega = np.array([1.0, -1.0])
        candidates = GridQuadrature(
            np.vstack([omega, rng.standard_normal((20, d))]),
            np.full(21, 1.0 / 21))
        target = lambda u: float(0.7 * np.cos(u @ omega))
        g = reweight(candidates, (X, Y), target, 0.0, gamma=0.5)
        fitted = np.cos((X - Y) @ (g.points * 1.0).T) @ g.weights
        truth = 0.7 * np.cos((X - Y) @ omega)
        np.testing.assert_allclose(fitted, truth, atol=1e-8)

    def test_fit_beats_original_quadrature_weights(self):
        # the original weights are feasible, so the fit can only improve
        d = 2
        base = dense_grid(4, d)
        candidates = subsample_grid(base, 60, seed=3)
        rng = np.random.default_rng(7)
        X = rng.standard_normal((100, d))
        Y = rng.standard_normal((100, d))
        kernel = GaussianKernel(0.5)
        U = X - Y
        freqs = candidates.points  # gamma = 1/2 leaves nodes unscaled
        orig_mse = np.mean((kernel.value(U) - np.cos(U @ freqs.T) @ candidates.weights) ** 2)
        g = reweight(candidates, (X, Y), kernel, 0.0)
        fit_mse = np.mean((kernel.value(U) - np.cos(U @ (g.points * 1.0).T) @ g.weights) ** 2)
        assert fit_mse <= orig_mse + 1e-12

    def test_weight_sum_not_renormalized(self):
        candidates, pairs, kernel = synthetic_reweight_problem(seed=11)
        g = reweight(candidates, pairs, kernel, 0.01)
        assert not g.normalized
        assert "sum_a=" in g.provenance

    def test_pairs_accepted_as_list_of_tuples(self):
        candidates, (X, Y), kernel = synthetic_reweight_problem(seed=41, n=20)
        as_arrays = reweight(candidates, (X, Y), kernel, 0.0)
        as_tuples = reweight(candidates, list(zip(X, Y)), kernel, 0.0)
        np.testing.assert_array_equal(as_arrays.points, as_tuples.points)
        np.testing.assert_array_equal(as_arrays.weights, as_tuples.weights)

    def test_matches_projected_gradient_reference(self):
        candidates, pairs, kernel = synthetic_reweight_problem(seed=13, n=40,
                                                               pool=15)
        lam = 0.05
        g = reweight(candidates, pairs, kernel, lam)
        U = pairs[0] - pairs[1]
        system = np.cos(U @ (candidates.points * 1.0).T)
        b = kernel.value(U)
        n = U.shape[0]

        def objective(a):
            r = system @ a - b
            return float(r @ r) / n + lam * a.sum()

        # projected gradient reference
        a = np.zeros(candidates.count)
        step = n / (2.0 * np.linalg.norm(system, 2) ** 2)
        for _ in range(20_000):
            grad = 2.0 / n * system.T @ (system @ a - b) + lam
            a = np.maximum(0.0, a - step * grad)
        ours = np.zeros(candidates.count)
        for point, w in zip(g.points, g.weights):
            idx = np.flatnonzero((candidates.points == point).all(axis=1))[0]
            ours[idx] = w
        assert objective(ours) <= objective(a) + 1e-6

    def test_penalized_fit_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(59)
        wider = 0
        for trial in range(40):
            n = int(rng.integers(2, 7))
            candidates = subsample_dense_grid(4, 2, int(rng.integers(3, 12)),
                                              seed=trial)
            pairs = (rng.standard_normal((n, 2)), rng.standard_normal((n, 2)))
            kernel = GaussianKernel(0.5)
            pool, M, b = solvers._reweight_system(candidates, pairs, kernel, None)
            wider += M.shape[1] > n
            shift = float(rng.uniform(0.05, 1.0)) * max(float((M.T @ b).max()), 1e-3)
            lam = 2.0 * shift / n
            g = reweight(candidates, pairs, kernel, lam)
            fitted = np.cos((pairs[0] - pairs[1]) @ g.points.T)
            ours = penalized_objective(fitted, b, shift, g.weights)
            ref = brute_force_penalized_objective(M, b, shift)
            assert ours == pytest.approx(ref, rel=1e-9, abs=1e-12)
        assert wider >= 10


    def test_folded_pool_keeps_the_first_of_each_twin(self):
        candidates = subsample_dense_grid(8, 3, 400, seed=0)
        pool = solvers._fold_twins(candidates)
        assert (candidates.count, pool.count) == (77, 48)
        rows = [tuple(w) for w in candidates.points]
        kept = [rows.index(tuple(w)) for w in pool.points]
        assert kept == sorted(kept)
        for i, w in zip(kept, pool.points):
            mirror = tuple(0.0 - w)
            assert mirror not in rows[:i]
        assert solvers._fold_twins(pool) is pool

    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    def test_folding_keeps_the_estimate(self, monkeypatch, lam):
        candidates = subsample_dense_grid(8, 3, 400, seed=0)
        rng = np.random.default_rng(53)
        pairs = (rng.standard_normal((300, 3)), rng.standard_normal((300, 3)))
        kernel = GaussianKernel(0.5)
        folded = reweight(candidates, pairs, kernel, lam)
        with monkeypatch.context() as m:
            m.setattr(solvers, "_fold_twins", lambda c: c)
            unfolded = reweight(candidates, pairs, kernel, lam)
        U = 1.5 * rng.standard_normal((2000, 3))

        def estimate(g):
            return np.cos(U @ g.points.T) @ g.weights

        assert folded.count < candidates.count
        np.testing.assert_allclose(estimate(folded), estimate(unfolded),
                                   rtol=0, atol=1e-12)


class TestBisectLambda:
    def test_returns_base_solution_when_target_is_loose(self):
        candidates, pairs, kernel = synthetic_reweight_problem(seed=17)
        res = bisect_lambda(candidates, pairs, kernel, D=1000)
        assert res.lam == 0.0
        assert res.lam_below is None

    def test_single_point_target(self):
        candidates, pairs, kernel = synthetic_reweight_problem(seed=19)
        res = bisect_lambda(candidates, pairs, kernel, D=1)
        assert res.grid.count == 1

    def test_bracket_certificate(self):
        candidates, pairs, kernel = synthetic_reweight_problem(seed=23, n=100,
                                                               pool=60)
        base = reweight(candidates, pairs, kernel, 0.0)
        target = max(2, base.count // 3)
        assert base.count > target
        res = bisect_lambda(candidates, pairs, kernel, target)
        assert res.grid.count <= target
        assert res.nnz_below > target
        assert res.lam_below < res.lam
        # the rejected neighbor really does overshoot the target
        neighbor = reweight(candidates, pairs, kernel, res.lam_below)
        assert neighbor.count > target

    def test_refit_removes_penalty_shrinkage(self):
        candidates, pairs, kernel = synthetic_reweight_problem(seed=29, n=100,
                                                               pool=60)
        base = reweight(candidates, pairs, kernel, 0.0)
        target = max(2, base.count // 3)
        refit = bisect_lambda(candidates, pairs, kernel, target)
        raw = reweight(candidates, pairs, kernel, refit.lam)
        U = pairs[0] - pairs[1]
        b = kernel.value(U)

        def mse(g):
            return np.mean((b - np.cos(U @ (g.points * 1.0).T) @ g.weights) ** 2)

        assert mse(refit.grid) <= mse(raw) + 1e-12

    def test_steps_count_path_events(self):
        candidates, pairs, kernel = synthetic_reweight_problem(seed=3, n=200,
                                                               pool=120, d=3)
        p = solvers._fold_twins(candidates).count
        res = bisect_lambda(candidates, pairs, kernel, 5)
        assert 0 < res.steps <= 3 * p
        loose = bisect_lambda(candidates, pairs, kernel, 1000)
        assert loose.steps == 0


def recorded_bisection(monkeypatch, candidates, pairs, kernel, target,
                       cold=False):
    """Run bisect_lambda, recording every NNLS call; ``cold`` drops the
    warm starts."""
    real = solvers._lawson_hanson
    calls = []

    def recording(M, b, tol, max_iter, start=None):
        sol = real(M, b, tol, max_iter, start=None if cold else start)
        calls.append((M, b, start, sol))
        return sol

    with monkeypatch.context() as m:
        m.setattr(solvers, "_lawson_hanson", recording)
        res = bisect_lambda(candidates, pairs, kernel, target)
    return res, calls


class TestWarmStart:
    """The warm-started bisection against cold solves of the same systems."""

    CASES = [dict(seed=23, n=100, pool=60), dict(seed=29, n=100, pool=60),
             dict(seed=3, n=200, pool=120, d=3)]

    @pytest.mark.parametrize("case", CASES)
    def test_bisection_matches_an_all_cold_run(self, monkeypatch, case):
        candidates, pairs, kernel = synthetic_reweight_problem(**case)
        target = max(2, reweight(candidates, pairs, kernel, 0.0).count // 3)
        warm, _ = recorded_bisection(monkeypatch, candidates, pairs, kernel,
                                     target)
        cold, _ = recorded_bisection(monkeypatch, candidates, pairs, kernel,
                                     target, cold=True)
        assert (warm.lam, warm.lam_below, warm.nnz_below) == (
            cold.lam, cold.lam_below, cold.nnz_below)
        np.testing.assert_array_equal(warm.grid.points, cold.grid.points)
        # near-singular systems: equal fits need not have equal weights
        U = pairs[0] - pairs[1]
        b = kernel.value(U)
        M = np.cos(U @ (warm.grid.points * np.sqrt(2.0 * kernel.gamma)).T)
        ours = penalized_objective(M, b, 0.0, warm.grid.weights)
        ref = penalized_objective(M, b, 0.0, cold.grid.weights)
        assert abs(ours - ref) <= 1e-12 * abs(ref)

    def test_start_with_non_positive_coefficients_is_pruned(self):
        rng = np.random.default_rng(43)
        M = rng.standard_normal((30, 20))
        b = rng.standard_normal(30)
        cold = nnls(M, b)
        # a start set that mixes the optimal support with columns that
        # would fit with negative coefficients
        start = np.arange(20)
        warm = solvers._lawson_hanson(M, b, 1e-10, None, start=start)
        np.testing.assert_array_equal(warm.a > 0, cold.a > 0)
        assert warm.residual_norm == pytest.approx(cold.residual_norm,
                                                   rel=1e-12)


def anova_subset_problem(si):
    """Subset ``si`` of the anova-reweight benchmark workload at seed 0: 500
    training pairs from the 40-dimensional mixture, 160 draws from the
    8-point rule on the subset's 5 coordinates, 40 points to keep."""
    from quadfeat import harness, kernels
    data = harness.synthetic_mixture(10_000, seed=0, d=40)
    kernel = kernels.random_anova(d=40, m=10, subset_size=5, gamma=0.1, seed=0)
    X, Y = harness.sample_pairs(data, 500, 0)
    idx = np.array(kernel.subsets[si]) - 1
    candidates = subsample_dense_grid(8, 5, 160, seed=si)
    return candidates, (X[:, idx], Y[:, idx]), GaussianKernel(0.1), 40


def path_problem(case):
    if isinstance(case, int):
        return anova_subset_problem(case)
    candidates, pairs, kernel = synthetic_reweight_problem(**case)
    target = max(2, reweight(candidates, pairs, kernel, 0.0).count // 3)
    return candidates, pairs, kernel, target


class TestPath:
    """The nonnegative-lasso path against KKT certificates, and the
    selection against fresh fits at its penalties."""

    CASES = TestWarmStart.CASES + list(range(10))
    IDS = [f"synthetic-{c['seed']}" for c in TestWarmStart.CASES] + [
        f"anova-subset-{si}" for si in range(10)]

    @pytest.mark.parametrize("case", CASES, ids=IDS)
    def test_cold_solves_agree_at_segment_midpoints(self, case):
        """Every segment midpoint satisfies the KKT conditions."""
        candidates, pairs, kernel, target = path_problem(case)
        pool, M, b = solvers._reweight_system(candidates, pairs, kernel, None)
        # folding leaves one column per distinct cos column
        assert np.linalg.matrix_rank(M) == M.shape[1]
        segments = list(solvers._nonneg_lasso_path(M, b))
        assert max(seg.support.size for seg in segments) > target
        assert segments[-1].lo == 0.0
        # with full column rank the objective is strictly convex, so the
        # KKT conditions certify the unique optimum, support included
        scale = np.linalg.norm(M.T @ b)
        for seg in segments:
            mid = 0.5 * (seg.hi + seg.lo)
            a = np.zeros(M.shape[1])
            a[seg.support] = 0.5 * (seg.a_hi + seg.a_lo)
            assert (a[seg.support] > 0).all()
            grad = M.T @ (M @ a - b) + mid
            assert np.abs(grad[a > 0]).max() <= 1e-10 * scale
            assert -grad[a == 0].min(initial=0.0) <= 1e-10 * scale

    @pytest.mark.parametrize("case", CASES, ids=IDS)
    def test_selection_is_certified_by_cold_solves(self, case):
        candidates, pairs, kernel, target = path_problem(case)
        res = bisect_lambda(candidates, pairs, kernel, target)
        assert res.grid.count <= target
        assert reweight(candidates, pairs, kernel, res.lam).count == target
        assert res.nnz_below == target + 1
        below = reweight(candidates, pairs, kernel, res.lam_below)
        assert below.count == res.nnz_below


class TestKktOnHardSystems:
    """Acceptance 08's KKT bound on the systems the constructors solve."""

    def test_penalized_systems_wider_than_tall(self):
        # with p > n the passive set fills up, and a penalized optimum may
        # need a column that is a combination of passive ones
        rng = np.random.default_rng(47)
        worst = 0.0
        for _ in range(300):
            n, p = int(rng.integers(2, 5)), int(rng.integers(3, 9))
            M = rng.standard_normal((n, p))
            b = 3.0 * rng.standard_normal(n)
            shift = float(rng.uniform(0.0, 0.5)) * np.abs(M.T @ b).max()
            a = np.zeros(p)
            keep, coef = solvers._path_solution(M, b, shift)
            a[keep] = coef
            grad = M.T @ (M @ a - b) + shift
            scale = np.linalg.norm(M.T @ b - shift)
            on = np.abs(grad[a > 0]).max(initial=0.0)
            off = max(0.0, -grad[a == 0].min(initial=0.0))
            worst = max(worst, on / scale, off / scale)
        assert worst <= 1e-8

    def test_poly_exact_system(self):
        rng = np.random.default_rng(0)
        indices = moment_multi_indices(25, 2)
        M = monomial_matrix(rng.standard_normal((1351, 25)), indices)
        b = moment_targets(indices)
        assert M.shape == (351, 1351)
        sol = nnls(M, b, tol=1e-13)
        on, off = kkt_residuals(M, b, sol.a, np.linalg.norm(M.T @ b))
        assert on <= 1e-8
        assert off <= 1e-8

    def test_near_singular_cos_system(self):
        # +w and -w give identical cos columns, and the lattice has both
        rng = np.random.default_rng(1)
        candidates = subsample_dense_grid(8, 5, 160, seed=1)
        U = rng.standard_normal((500, 5)) * 1.5
        M = np.cos(U @ (candidates.points * np.sqrt(0.2)).T)
        b = GaussianKernel(0.1).value(U)
        assert np.linalg.cond(M) > 1e12
        sol = nnls(M, b)
        on, off = kkt_residuals(M, b, sol.a, np.linalg.norm(M.T @ b))
        assert on <= 1e-8
        assert off <= 1e-8
