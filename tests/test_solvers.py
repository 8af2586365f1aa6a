"""Tests for NNLS and the NNLS-backed rule constructors."""
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadfeat import solvers
from quadfeat.errors import ConstructionError, ConvergenceError, GridSizeError
from quadfeat.featuremaps import FeatureMap, rff
from quadfeat.grids import (
    GridQuadrature,
    dense_grid,
    exactness_residual,
    fold_twins,
    hermite_matrix,
    moment_multi_indices,
    moment_targets,
    monomial_matrix,
    sparse_grid,
    subsample_dense_grid,
    subsample_grid,
)
from quadfeat.kernels import AnovaKernel, GaussianKernel
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


def textbook_lawson_hanson(M, b, tol):
    """Lawson & Hanson (1974, ch. 23) as printed, one lstsq per passive
    solve, with their pass-over of a column that enters non-positive."""
    p = M.shape[1]
    a, passive = np.zeros(p), np.zeros(p, dtype=bool)
    scale = np.linalg.norm(M.T @ b)

    def passive_solve():
        z = np.zeros(p)
        z[passive] = np.linalg.lstsq(M[:, passive], b, rcond=None)[0]
        return z

    for _ in range(3 * p):
        w = M.T @ (b - M @ a)
        w[passive] = -np.inf
        while w.max() > tol * scale:
            j = int(np.argmax(w))
            passive[j] = True
            z = passive_solve()
            if z[j] > 0.0:
                break
            passive[j], w[j] = False, -np.inf
        else:
            return a
        while z[passive].min() <= 0.0:
            neg = passive & (z <= 0.0)
            a += np.min(a[neg] / (a[neg] - z[neg])) * (z - a)
            passive &= a > 0.0
            a[~passive] = 0.0
            z = passive_solve()
        a = z
    raise AssertionError("the textbook solver did not converge")


def squared_residual(M, b, a):
    r = M @ a - b
    return float(r @ r)


def near_singular_cos_system():
    """+w and -w give identical cos columns, and the lattice has both."""
    rng = np.random.default_rng(1)
    candidates = subsample_dense_grid(8, 5, 160, seed=1)
    U = rng.standard_normal((500, 5)) * 1.5
    M = np.cos(U @ (candidates.points * np.sqrt(0.2)).T)
    return M, GaussianKernel(0.1).value(U)


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

    @pytest.mark.parametrize("where", ["nan in b", "inf in M"])
    def test_non_finite_input_refused(self, where):
        rng = np.random.default_rng(61)
        M, b = rng.standard_normal((6, 4)), rng.standard_normal(6)
        if where == "nan in b":
            b[2] = np.nan
        else:
            M[1, 3] = np.inf
        with pytest.raises(ValueError, match="finite"):
            nnls(M, b)

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

    def test_dependent_column_is_passed_over(self, monkeypatch):
        # the last column is a positive combination of the first two plus
        # noise of size 1e-9, so each of the three lies numerically in the
        # span of the other two: once two are passive the third cannot
        # enter, and passing it over gives up an objective of the order of
        # the noise
        refused = []
        add = solvers._PassiveSet.add

        def recording_add(self, j):
            ok = add(self, j)
            if not ok:
                refused.append(j)
            return ok

        monkeypatch.setattr(solvers._PassiveSet, "add", recording_add)
        passed_over = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            M = rng.standard_normal((8, 5))
            M[:, 4] = M[:, :2] @ rng.uniform(0.5, 1.5, 2) \
                + 1e-9 * rng.standard_normal(8)
            b = rng.standard_normal(8)
            refused.clear()
            sol = nnls(M, b)
            if not refused:
                continue
            passed_over += 1
            assert set(refused) <= {0, 1, 4}
            assert sol.residual_norm**2 == pytest.approx(
                brute_force_nnls_objective(M, b), abs=1e-8)
            on, off = kkt_residuals(M, b, sol.a, np.linalg.norm(M.T @ b))
            assert on <= 1e-8
            assert off <= 1e-8
        assert passed_over >= 3

    def test_nearly_dependent_mixed_sign_column(self):
        # the last column is a mixed-sign combination of the first three plus
        # noise of size 1e-7, far above rounding: it is independent, and
        # passing it over can stop far above the optimum.  The oracle's own
        # lstsq rounds by up to ~3e-9 here, so only overshoot is bounded.
        for seed in range(40):
            rng = np.random.default_rng(seed)
            M = rng.standard_normal((6, 4))
            M[:, 3] = M[:, :3] @ rng.standard_normal(3) \
                + 1e-7 * rng.standard_normal(6)
            b = rng.standard_normal(6)
            a = nnls(M, b).a
            assert (a >= 0.0).all()
            optimum = brute_force_nnls_objective(M, b)
            assert squared_residual(M, b, a) <= optimum + 1e-9

    def test_matches_the_textbook_solver(self):
        # the near-singular cos system, and the Hermite system of all 15
        # moments of degree <= 4 in two dimensions on 75 normal candidates
        # (seed 40), which has no exact rule
        points = np.random.default_rng(40).standard_normal((75, 2))
        hermite = hermite_matrix(points, moment_multi_indices(2, 4))
        for (M, b), tol in ((near_singular_cos_system(), 1e-10),
                            ((hermite, np.eye(hermite.shape[0])[0]), 1e-13)):
            ours = squared_residual(M, b, nnls(M, b, tol=tol).a)
            ref = squared_residual(M, b, textbook_lawson_hanson(M, b, tol))
            assert ref > 0.0
            assert ours == pytest.approx(ref, rel=1e-10)


def poly_exact_system(d, R, D, seed):
    """The Hermite-basis moment system ``construct_poly_exact`` solves."""
    points = np.random.default_rng(seed).standard_normal((D, d))
    M = hermite_matrix(points, moment_multi_indices(d, R, even=True))
    return M, np.eye(M.shape[0])[0]


@pytest.fixture
def shortlist_always(monkeypatch):
    """Shortlist pricing on systems of any size, not only large ones."""
    monkeypatch.setattr(solvers, "_SHORTLIST_FROM", 0)


def full_pricing_nnls(M, b, start=None):
    """The same solver with every step priced over all columns."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solvers, "_SHORTLIST_FROM", math.inf)
        return solvers._lawson_hanson(M, b, 1e-10, None, start=start)


class TestShortlistPricing:
    """Steps between full pricing passes price only a shortlist of columns."""

    def test_poly_exact_system_matches_the_textbook_solver(self):
        # 326 x 1351: large enough for the shortlist without forcing it
        M, b = poly_exact_system(25, 2, 1351, 0)
        assert M.size >= solvers._SHORTLIST_FROM
        sol = nnls(M, b, tol=1e-13)
        assert sol.passes < sol.iterations
        ref = squared_residual(M, b, textbook_lawson_hanson(M, b, 1e-13))
        # exact rules: both objectives are zero to rounding
        assert squared_residual(M, b, sol.a) == pytest.approx(ref, rel=1e-10,
                                                              abs=1e-20)
        on, off = kkt_residuals(M, b, sol.a, np.linalg.norm(M.T @ b))
        assert on <= 1e-8
        assert off <= 1e-8

    # shift 0: the columns span a cone that holds b, so the fit is exact;
    # shift 0.2: they lean to one side and the objective stays positive
    @pytest.mark.parametrize("n, p, shift", [(100, 1000, 0.0), (200, 500, 0.0),
                                             (100, 1000, 0.2), (200, 500, 0.2)])
    def test_wide_random_systems_match_the_textbook_solver(
            self, shortlist_always, n, p, shift):
        rng = np.random.default_rng(n)
        M = rng.standard_normal((n, p)) + shift
        b = rng.standard_normal(n)
        sol = nnls(M, b)
        assert sol.passes < sol.iterations
        ref = squared_residual(M, b, textbook_lawson_hanson(M, b, 1e-10))
        assert squared_residual(M, b, sol.a) == pytest.approx(
            ref, rel=1e-10, abs=1e-20 * float(b @ b))
        on, off = kkt_residuals(M, b, sol.a, np.linalg.norm(M.T @ b))
        assert on <= 1e-8
        assert off <= 1e-8
        assert (np.diff(sol.objectives) <= 1e-12 * float(b @ b)).all()

    @pytest.mark.parametrize("n, p, forced", [(400, 200, True), (500, 400, False)])
    @pytest.mark.parametrize("warm", [False, True])
    def test_full_column_rank_fit_is_the_full_pricing_minimizer(
            self, monkeypatch, n, p, forced, warm):
        # full column rank: the minimizer is unique, so the shortlist moves
        # it only by rounding
        if forced:
            monkeypatch.setattr(solvers, "_SHORTLIST_FROM", 0)
        rng = np.random.default_rng(p)
        M = rng.standard_normal((n, p))
        b = rng.standard_normal(n)
        start = np.arange(0, p, 3) if warm else None
        sol = solvers._lawson_hanson(M, b, 1e-10, None, start=start)
        assert sol.passes < sol.iterations
        ref = full_pricing_nnls(M, b, start=start)
        assert ref.passes == ref.iterations + 1
        np.testing.assert_array_equal(sol.a > 0, ref.a > 0)
        assert np.abs(sol.a - ref.a).max() <= 1e-12 * np.abs(ref.a).max()

    def test_exhausted_shortlist_is_followed_by_a_full_pass(self, shortlist_always):
        # columns 0-7 are multiples of e_1 and make the shortlist; column 8,
        # e_2, has the smallest gradient and is left off it.  Once column 7
        # fits the e_1 part of b, every shortlisted gradient is exactly 0, and
        # the full pass after them must find column 8
        M = np.zeros((2, 9))
        M[0, :8] = np.arange(1.0, 9.0)
        M[1, 8] = 1.0
        b = np.array([1.0, 0.5])
        sol = nnls(M, b)
        np.testing.assert_array_equal(sol.a, [0, 0, 0, 0, 0, 0, 0, 0.125, 0.5])
        assert sol.residual_norm == 0.0
        # one step per entering column, and a full pass for each of them and
        # the exit
        assert (sol.iterations, sol.passes) == (2, 3)

    def test_poly_exact_build_takes_few_full_passes(self, monkeypatch):
        real = solvers.nnls
        solutions = []

        def recording(M, b, **kwargs):
            solutions.append(real(M, b, **kwargs))
            return solutions[-1]

        monkeypatch.setattr(solvers, "nnls", recording)
        construct_poly_exact(25, 2, 1351, seed=0)
        (sol,) = solutions
        assert 4 * sol.passes <= sol.iterations


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
        # the rule is [P; -P], and the NNLS support P cannot exceed the 326
        # rows of even degree that the solver keeps of the 351 moments
        fm = FeatureMap(g, "poly_exact", 0.5)
        assert g.count == 2 * fm.count
        assert fm.count <= 326

    @pytest.mark.parametrize("d,R,rows", [(25, 2, 326), (16, 2, 137), (8, 4, 367),
                                          (10, 4, 771), (1, 6, 4), (3, 0, 1)])
    def test_solved_system_has_the_even_degree_rows(self, d, R, rows):
        even = moment_multi_indices(d, R, even=True)
        assert len(even) == rows
        assert even == [r for r in moment_multi_indices(d, R) if sum(r) % 2 == 0]

    def test_even_rows_are_counted_against_the_cap(self):
        with pytest.raises(GridSizeError) as exc:
            moment_multi_indices(25, 2, cap=325, even=True)
        assert exc.value.requested == 326
        assert len(moment_multi_indices(25, 2, cap=326, even=True)) == 326

    @pytest.mark.parametrize("seed", [0, 1])
    def test_rules_the_full_system_could_not_reach(self, seed):
        # (8, 4, 1500) at seeds 0 and 1 had no exact rule over all 495
        # moments (residual 9.3e-2 and 6.0e-2); over the 367 even ones it has
        g = construct_poly_exact(8, 4, 1500, seed)
        h = g.count // 2
        np.testing.assert_array_equal(g.points[h:], -g.points[:h])
        assert exactness_residual(g, 4) <= solvers.POLY_EXACT_TOL
        assert (g.weights >= 0.0).all()
        assert abs(g.weights.sum() - 1.0) <= 1e-10

    def test_rule_is_the_mirror_of_its_support(self):
        g = construct_poly_exact(3, 4, 200, seed=2)
        h = g.count // 2
        assert g.count == 2 * h
        np.testing.assert_array_equal(g.points[h:], -g.points[:h])
        np.testing.assert_array_equal(g.weights[h:], g.weights[:h])
        # a map of it has the h cosine terms of (P, a)
        fm = FeatureMap(g, "poly_exact", 0.5)
        assert fm.count == h
        np.testing.assert_array_equal(fm.weights, 2.0 * g.weights[:h])
        # odd moments vanish by symmetry, to rounding
        odd = [r for r in moment_multi_indices(3, 5) if sum(r) % 2]
        assert np.abs(monomial_matrix(g.points, odd) @ g.weights).max() <= 1e-15

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            construct_poly_exact(2, 3, 10, seed=0)

    def test_unreachable_tolerance_reports_residual(self):
        # far too few candidates to satisfy the 11 even-degree constraints
        with pytest.raises(ConstructionError) as exc:
            construct_poly_exact(4, 2, 3, seed=0)
        assert exc.value.residual > 1e-8

    def test_too_few_candidates_raise_construction_errors(self):
        # 40 candidates for the 9 moments of even degree <= 4 in two
        # dimensions are often too few (31 of these 60 seeds); each seed
        # gives an exact rule or a ConstructionError, never a stalled solver
        failed = 0
        for seed in range(60):
            try:
                g = construct_poly_exact(2, 4, 40, seed)
            except ConstructionError as exc:
                failed += 1
                assert exc.residual > solvers.POLY_EXACT_TOL
            else:
                assert exactness_residual(g, 4) <= solvers.POLY_EXACT_TOL
        assert 10 <= failed <= 50

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 3), R=st.sampled_from([0, 2, 4]),
           spare=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_rules_are_exact_positive_and_normalized(self, d, R, spare, seed):
        # D of 10-20 candidates per constraint, and at least 200, is feasible
        # for every seed tried (1500 per (d, R), d <= 3)
        n_constraints = math.comb(d + R, d)
        low = max(10 * n_constraints, 200)
        D = low + int(spare * (max(20 * n_constraints, 400) - low))
        g = construct_poly_exact(d, R, D, seed)
        assert exactness_residual(g, R) <= 1e-8
        assert (g.weights >= 0.0).all()
        assert abs(g.weights.sum() - 1.0) <= 1e-10
        fm = FeatureMap(g, "poly_exact", 0.5)
        assert g.count == 2 * fm.count
        assert fm.count <= len(moment_multi_indices(d, R, even=True))

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
    def test_planted_single_atom_recovered(self):
        rng = np.random.default_rng(5)
        d = 2
        X = rng.standard_normal((80, d))
        Y = rng.standard_normal((80, d))
        omega = np.array([1.0, -1.0])
        candidates = GridQuadrature(
            np.vstack([omega, rng.standard_normal((20, d))]),
            np.full(21, 1.0 / 21))

        class PlantedAtom(GaussianKernel):
            def value(self, u):
                return 0.7 * np.cos(u @ omega)

        g = reweight(candidates, (X, Y), PlantedAtom(0.5))
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
        g = reweight(candidates, (X, Y), kernel)
        fit_mse = np.mean((kernel.value(U) - np.cos(U @ (g.points * 1.0).T) @ g.weights) ** 2)
        assert fit_mse <= orig_mse + 1e-12

    def test_weight_sum_not_renormalized(self):
        candidates, pairs, kernel = synthetic_reweight_problem(seed=11)
        g = bisect_lambda(candidates, pairs, kernel, 6).grid
        assert not g.normalized
        assert "sum_a=" in g.provenance

    def test_pairs_as_list_mean_the_tuple(self):
        # with two rows, [X, Y] could also be read as two (x, y) pairs;
        # it must be read as (X, Y)
        candidates, (X, Y), kernel = synthetic_reweight_problem(seed=41, n=2)
        as_tuple = reweight(candidates, (X, Y), kernel)
        as_list = reweight(candidates, [X, Y], kernel)
        np.testing.assert_array_equal(as_tuple.points, as_list.points)
        np.testing.assert_array_equal(as_tuple.weights, as_list.weights)
        assert as_tuple.provenance == as_list.provenance

    @pytest.mark.parametrize("kernel", [
        AnovaKernel(((1, 2), (3,)), GaussianKernel(0.5), 3),
        lambda u: np.exp(-0.5 * np.sum(u * u, axis=-1)),
    ], ids=["anova", "callable"])
    def test_other_kernel_types_refused(self, kernel):
        candidates, pairs, _ = synthetic_reweight_problem()
        name = type(kernel).__name__
        with pytest.raises(TypeError, match=name):
            reweight(candidates, pairs, kernel)
        with pytest.raises(TypeError, match=name):
            bisect_lambda(candidates, pairs, kernel, 3)

    @pytest.mark.parametrize("lam", [0.0, None])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pair_refused_by_row(self, lam, bad):
        candidates, (X, Y), kernel = synthetic_reweight_problem(seed=43)
        X = X.copy()
        X[7, 1] = bad
        with pytest.raises(ValueError, match="row 7 is not"):
            if lam is None:
                bisect_lambda(candidates, (X, Y), kernel, 3)
            else:
                reweight(candidates, (X, Y), kernel)

    def test_pairs_of_three_arrays_refused(self):
        candidates, (X, Y), kernel = synthetic_reweight_problem(seed=44)
        with pytest.raises(ValueError, match="pairs must be .* got 3"):
            reweight(candidates, (X, Y, X), kernel)
        with pytest.raises(ValueError, match="pairs must be .* got 3"):
            bisect_lambda(candidates, [X, Y, Y], kernel, 3)

    @pytest.mark.parametrize("entry", ["reweight", "bisect_lambda"])
    def test_signed_candidates_refused(self, entry):
        # both entry points share the one check: bisect_lambda once fitted
        # sparse_grid(2, 2), whose outer weights are negative, to 3 points
        candidates = sparse_grid(2, 2)
        assert not candidates.nonnegative
        rng = np.random.default_rng(59)
        X, Y = rng.standard_normal((2, 50, 2))
        kernel = GaussianKernel(0.5)
        with pytest.raises(ValueError, match="non-negative weights"):
            if entry == "reweight":
                reweight(candidates, (X, Y), kernel)
            else:
                bisect_lambda(candidates, (X, Y), kernel, 3)

    def test_matches_projected_gradient_reference(self):
        candidates, pairs, kernel = synthetic_reweight_problem(seed=13, n=40,
                                                               pool=15)
        _, system, b = solvers._reweight_system(candidates, pairs, kernel)
        n, p = system.shape
        segments = list(solvers._nonneg_lasso_path(system, b))
        seg = segments[len(segments) // 2]
        assert 0.0 < seg.lo < segments[0].hi  # an interior breakpoint
        lam = 2.0 * seg.lo / n
        keep, coef = seg.low_end()
        ours = np.zeros(p)
        ours[keep] = coef

        def objective(a):
            r = system @ a - b
            return float(r @ r) / n + lam * a.sum()

        # projected gradient reference
        a = np.zeros(p)
        step = n / (2.0 * np.linalg.norm(system, 2) ** 2)
        for _ in range(20_000):
            grad = 2.0 / n * system.T @ (system @ a - b) + lam
            a = np.maximum(0.0, a - step * grad)
        assert objective(ours) <= objective(a) + 1e-6

    def test_penalized_fit_matches_exhaustive_oracle(self):
        """The solution read at every breakpoint s of the path reaches the
        brute-force optimum of 0.5||Ma - b||^2 + s 1'a."""
        rng = np.random.default_rng(59)
        wider = breakpoints = 0
        for trial in range(40):
            n = int(rng.integers(2, 7))
            candidates = subsample_dense_grid(4, 2, int(rng.integers(3, 12)),
                                              seed=trial)
            pairs = (rng.standard_normal((n, 2)), rng.standard_normal((n, 2)))
            kernel = GaussianKernel(0.5)
            pool, M, b = solvers._reweight_system(candidates, pairs, kernel)
            wider += M.shape[1] > n
            rng.random()  # drawn but unused, which fixes the later trials' systems
            for seg in solvers._nonneg_lasso_path(M, b):
                keep, a = seg.low_end()
                assert (a > 0.0).all()
                ours = penalized_objective(M[:, keep], b, seg.lo, a)
                ref = brute_force_penalized_objective(M, b, seg.lo)
                assert ours == pytest.approx(ref, rel=1e-9, abs=1e-12)
                breakpoints += 1
        assert wider >= 10
        assert breakpoints >= 80

    def test_folded_pool_keeps_the_first_of_each_twin(self):
        candidates = subsample_dense_grid(8, 3, 400, seed=0)
        rng = np.random.default_rng(52)
        pairs = (rng.standard_normal((20, 3)), rng.standard_normal((20, 3)))
        pool, M, _ = solvers._reweight_system(candidates, pairs, GaussianKernel(0.5))
        assert (candidates.count, len(pool), M.shape[1]) == (77, 48, 48)
        rows = [tuple(w) for w in candidates.points]
        kept = [rows.index(tuple(w)) for w in pool]
        assert kept == sorted(kept)
        for i, w in zip(kept, pool):
            assert tuple(0.0 - w) not in rows[:i]
        again, _ = fold_twins(pool, np.ones(len(pool)))
        np.testing.assert_array_equal(again, np.arange(len(pool)))

    def test_folding_keeps_the_estimate(self, monkeypatch):
        candidates = subsample_dense_grid(8, 3, 400, seed=0)
        rng = np.random.default_rng(53)
        pairs = (rng.standard_normal((300, 3)), rng.standard_normal((300, 3)))
        kernel = GaussianKernel(0.5)
        folded = reweight(candidates, pairs, kernel)
        with monkeypatch.context() as m:
            m.setattr(solvers, "fold_twins",
                      lambda points, weights: (np.arange(len(points)), weights))
            unfolded = reweight(candidates, pairs, kernel)
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
        base = reweight(candidates, pairs, kernel)
        target = max(2, base.count // 3)
        assert base.count > target
        res = bisect_lambda(candidates, pairs, kernel, target)
        assert res.grid.count <= target
        assert res.nnz_below > target
        assert res.lam_below < res.lam
        # the rejected neighbor really does overshoot the target
        _, below, _, _ = walked_bracket(candidates, pairs, kernel, res)
        assert below.support.size > target

    def test_results_are_plain_floats(self):
        candidates, pairs, kernel = synthetic_reweight_problem(seed=23, n=100,
                                                               pool=60)
        res = bisect_lambda(candidates, pairs, kernel, 5)
        assert type(res.lam) is float and type(res.lam_below) is float
        assert "np." not in res.grid.provenance

    def test_refit_removes_penalty_shrinkage(self):
        candidates, pairs, kernel = synthetic_reweight_problem(seed=29, n=100,
                                                               pool=60)
        base = reweight(candidates, pairs, kernel)
        target = max(2, base.count // 3)
        refit = bisect_lambda(candidates, pairs, kernel, target)
        chosen, _, M, b = walked_bracket(candidates, pairs, kernel, refit)
        keep, raw = chosen.low_end()  # the penalized solution at refit.lam
        U = pairs[0] - pairs[1]

        def mse(g):
            return np.mean((b - np.cos(U @ (g.points * 1.0).T) @ g.weights) ** 2)

        assert mse(refit.grid) <= np.mean((b - M[:, keep] @ raw) ** 2) + 1e-12

    def test_steps_count_path_events(self):
        candidates, pairs, kernel = synthetic_reweight_problem(seed=3, n=200,
                                                               pool=120, d=3)
        p = fold_twins(candidates.points, candidates.weights)[0].size
        res = bisect_lambda(candidates, pairs, kernel, 5)
        assert 0 < res.steps <= 3 * p
        loose = bisect_lambda(candidates, pairs, kernel, 1000)
        assert loose.steps == 0


def walked_bracket(candidates, pairs, kernel, res):
    """The segments of a fresh walk of the l1 path that bracket the
    selection ``res``: the one it was read from, whose lower end is at
    ``res.lam``, and the next, whose midpoint is at ``res.lam_below``; and
    the system M, b."""
    _, M, b = solvers._reweight_system(candidates, pairs, kernel)
    segments = list(solvers._nonneg_lasso_path(M, b))
    i = next(i for i, seg in enumerate(segments) if seg.events == res.steps)
    chosen, below = segments[i - 1], segments[i]
    n = M.shape[0]
    assert float(2.0 * chosen.lo / n) == res.lam
    assert float((below.hi + below.lo) / n) == res.lam_below
    return chosen, below, M, b


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
        target = max(2, reweight(candidates, pairs, kernel).count // 3)
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
    target = max(2, reweight(candidates, pairs, kernel).count // 3)
    return candidates, pairs, kernel, target


class TestPath:
    """The nonnegative-lasso path against KKT certificates, and the
    selection against a fresh walk of the path."""

    CASES = TestWarmStart.CASES + list(range(10))
    IDS = [f"synthetic-{c['seed']}" for c in TestWarmStart.CASES] + [
        f"anova-subset-{si}" for si in range(10)]

    @pytest.mark.parametrize("case", CASES, ids=IDS)
    def test_cold_solves_agree_at_segment_midpoints(self, case):
        """Every segment midpoint satisfies the KKT conditions."""
        candidates, pairs, kernel, target = path_problem(case)
        pool, M, b = solvers._reweight_system(candidates, pairs, kernel)
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
        chosen, below, _, _ = walked_bracket(candidates, pairs, kernel, res)
        assert chosen.low_end()[0].size == target
        assert res.nnz_below == target + 1
        assert below.support.size == res.nnz_below


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
            rng.random()  # drawn but unused, which fixes the later draws' systems
            for seg in solvers._nonneg_lasso_path(M, b):
                a = np.zeros(p)
                keep, coef = seg.low_end()
                assert (coef > 0.0).all()
                a[keep] = coef
                grad = M.T @ (M @ a - b) + seg.lo
                scale = np.linalg.norm(M.T @ b - seg.lo)
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

    def test_poly_exact_system_hermite_basis(self):
        # the system construct_poly_exact solves, same candidates as above
        rng = np.random.default_rng(0)
        M = hermite_matrix(rng.standard_normal((1351, 25)),
                           moment_multi_indices(25, 2))
        b = np.zeros(M.shape[0])
        b[0] = 1.0
        sol = nnls(M, b, tol=1e-13)
        on, off = kkt_residuals(M, b, sol.a, np.linalg.norm(M.T @ b))
        assert on <= 1e-8
        assert off <= 1e-8

    def test_hermite_basis_conditioning(self):
        # 3.5 measured, against 23.7 for the monomial rows of the same points
        points = np.random.default_rng(0).standard_normal((1351, 25))
        assert np.linalg.cond(hermite_matrix(points, moment_multi_indices(25, 2))) <= 7.0

    def test_near_singular_cos_system(self):
        M, b = near_singular_cos_system()
        assert np.linalg.cond(M) > 1e12
        sol = nnls(M, b)
        on, off = kkt_residuals(M, b, sol.a, np.linalg.norm(M.T @ b))
        assert on <= 1e-8
        assert off <= 1e-8

    def test_exact_mean_squared_error_system(self):
        # over u ~ N(0, sigma^2 I) the mean squared error of k~ is
        # a'Qa - 2q'a + c, with Q_ij = E cos(w_i'u) cos(w_j'u) and
        # q_i = E k(u) cos(w_i'u); with Q = LL', M = L' and b = L^-1 q give
        # M'M = Q and M'b = q.  At sigma = 0.05 cond(Q) is ~1e11, so the
        # passive Gram matrices are beyond double precision
        w = rff(25, 1351, 0.5, seed=1).grid.points  # gamma 1/2: w are the frequencies
        sigma2, spread = 0.05**2, 1.0 + 0.05**2  # 1 + 2 gamma sigma^2
        sq = (w * w).sum(axis=1)
        cross = w @ w.T
        Q = 0.5 * (np.exp(-0.5 * sigma2 * (sq[:, None] + sq - 2.0 * cross))
                   + np.exp(-0.5 * sigma2 * (sq[:, None] + sq + 2.0 * cross)))
        Q[np.diag_indices_from(Q)] += 1e-13 * np.trace(Q) / len(Q)
        q = spread ** (-25 / 2) * np.exp(-0.5 * sigma2 * sq / spread)
        L = np.linalg.cholesky(Q)
        M, b = L.T, np.linalg.solve(L, q)
        sol = nnls(M, b)
        on, off = kkt_residuals(M, b, sol.a, np.linalg.norm(q))
        assert on <= 1e-8
        assert off <= 1e-8
