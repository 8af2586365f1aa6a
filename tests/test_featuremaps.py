"""Tests for feature maps, baselines, and embeddings."""
import json
import math
import re
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadfeat.errors import ConfigError, EmbeddingUnsupportedError
from quadfeat.featuremaps import (
    AnovaFeatureMap,
    FeatureMap,
    _block_rows,
    _primes,
    anova_compose,
    embed_grid_fast,
    feature_map_from_json,
    feature_map_to_json,
    halton_points,
    load_feature_map,
    inv_norm_cdf,
    qmc_halton,
    radical_inverse,
    rff,
    save_feature_map,
    subsampled_feature_map,
)
from quadfeat.grids import (
    GridQuadrature,
    _cos_from_half,
    dense_grid,
    fold_twins,
    sparse_grid,
    subsample_grid,
)
from quadfeat.kernels import AnovaKernel, GaussianKernel, eval_anova
from quadfeat.solvers import construct_poly_exact


class TestRff:
    def test_self_estimate_is_weight_sum(self):
        fm = rff(4, 1, 0.5, seed=0)
        x = np.ones(4)
        assert fm.approx_kernel(x, x) == pytest.approx(1.0)

    def test_unbiasedness_at_fixed_displacement(self):
        u = np.zeros(3)
        u[0] = 1.0
        estimates = np.array([rff(3, 25, 0.5, seed=s).approx(u)
                              for s in range(400)])
        se = estimates.std(ddof=1) / math.sqrt(400)
        assert abs(estimates.mean() - math.exp(-0.5)) <= 3 * se

    def test_reproducible(self):
        a = rff(5, 20, 0.5, seed=12)
        b = rff(5, 20, 0.5, seed=12)
        np.testing.assert_array_equal(a.grid.points, b.grid.points)

    def test_max_error_level_at_reference_configuration(self):
        # regression band for d = 25, D = 1000, M = 2 (about 4 sigma of the
        # per-point estimator noise, maximized over 1e5 displacements)
        from quadfeat.harness import error_stats
        fm = rff(25, 1000, 0.5, seed=0)
        err = error_stats(fm, GaussianKernel(0.5), 2.0, 100_000,
                          seed=100)[0]
        assert 0.08 <= err <= 0.14


class TestHalton:
    def test_first_point_base_two_maps_to_zero(self):
        fm = qmc_halton(1, 1, 0.5)
        np.testing.assert_allclose(fm.grid.points, [[0.0]], atol=1e-12)

    def test_radical_inverse_prefix(self):
        pts = halton_points(2, 3)
        np.testing.assert_allclose(
            pts, [[1 / 2, 1 / 3], [1 / 4, 2 / 3], [3 / 4, 1 / 9]], atol=1e-15)

    def test_rms_error_decreases_with_count(self):
        kernel = GaussianKernel(0.5)
        rng = np.random.default_rng(0)
        U = rng.standard_normal((2000, 4)) * 0.5
        errors = []
        for D in (64, 256, 1024):
            fm = qmc_halton(4, D, 0.5)
            diff = kernel.value(U) - fm.approx(U)
            errors.append(float(np.sqrt(np.mean(diff**2))))
        assert errors[0] > errors[1] > errors[2]

    def test_rms_error_comparable_to_rff(self):
        kernel = GaussianKernel(0.5)
        rng = np.random.default_rng(5)
        U = rng.standard_normal((4000, 8)) * 0.8
        truth = kernel.value(U)
        for D in (256, 1024):
            rms_q = float(np.sqrt(np.mean((truth - qmc_halton(8, D, 0.5).approx(U)) ** 2)))
            rms_r = float(np.sqrt(np.mean((truth - rff(8, D, 0.5, seed=2).approx(U)) ** 2)))
            assert 0.4 <= rms_q / rms_r <= 1.5

    def test_prime_table_bound(self):
        with pytest.raises(ValueError):
            halton_points(1001, 1)

    # d = 40: primes 2..173, so column by column the digit loop stops after
    # 11 passes for base 2 and after 2 for every base above 45
    @pytest.mark.parametrize("d,D", [(1, 600), (25, 1351), (40, 2000), (1000, 300)])
    def test_vectorized_digits_equal_radical_inverse(self, d, D):
        expected = np.array([[radical_inverse(n, b) for b in _primes(d)]
                             for n in range(1, D + 1)])
        np.testing.assert_array_equal(halton_points(d, D), expected)


class TestInverseNormalCdf:
    def test_median(self):
        assert inv_norm_cdf(np.array([0.5]))[0] == 0.0

    def test_known_quantile(self):
        assert inv_norm_cdf(np.array([0.975]))[0] == pytest.approx(
            1.959963984540054, abs=1e-11)

    def test_symmetry(self):
        p = np.array([0.01, 0.2, 0.37])
        np.testing.assert_allclose(inv_norm_cdf(p), -inv_norm_cdf(1 - p),
                                   atol=1e-12)

    def test_round_trip_through_cdf(self):
        p = np.linspace(1e-8, 1 - 1e-8, 100_001)
        cdf = np.vectorize(NormalDist().cdf)
        assert np.abs(cdf(inv_norm_cdf(p)) - p).max() <= 1e-12

    def test_upper_tail_mirrors_lower_tail(self):
        # 1 - hi is exact, so the two quantiles are exact negatives
        q = np.logspace(-8, -1, 29)
        hi = 1 - q
        qx = 1 - hi
        assert np.abs(inv_norm_cdf(hi) + inv_norm_cdf(qx)).max() <= 1e-14

    def test_domain(self):
        with pytest.raises(ValueError):
            inv_norm_cdf(np.array([0.0]))

    def test_nan_refused(self):
        with pytest.raises(ValueError, match="inside"):
            inv_norm_cdf(np.array([np.nan, 0.5]))

    @pytest.mark.parametrize("where", ["central edge", "r = 5", "deep tail",
                                       "whole range", "halton"])
    def test_within_two_ulp_of_normal_dist(self, where):
        # the central branch ends at |p - 0.5| = 0.425; the tail splits at
        # r = sqrt(-log p) = 5, p = exp(-25)
        p = {"central edge": 0.5 + np.concatenate([np.linspace(-0.4251, -0.4249, 2001),
                                                   np.linspace(0.4249, 0.4251, 2001)]),
             "r = 5": math.exp(-25) * np.linspace(0.999, 1.001, 2001),
             "deep tail": np.logspace(-300, -10, 2901),
             "whole range": np.linspace(1e-6, 1 - 1e-6, 20_001),
             "halton": halton_points(25, 1351).ravel()}[where]
        expected = np.array([NormalDist().inv_cdf(v) for v in p])
        got = inv_norm_cdf(p)
        assert (np.abs(got - expected) <= 2 * np.spacing(np.abs(expected))).all()

    def test_exactly_antisymmetric_about_one_half(self):
        # 1 - p is exact for p in [0.5, 1), so the two quantiles negate
        p = np.concatenate([np.linspace(0.5, 1 - 1e-9, 10_001),
                            1 - np.logspace(-16, -1, 301)])
        np.testing.assert_array_equal(inv_norm_cdf(1 - p), -inv_norm_cdf(p))

    def test_shape_is_kept(self):
        p = halton_points(3, 8)
        assert inv_norm_cdf(p).shape == (8, 3)

    def test_equals_normal_dist_bitwise(self):
        # a whole-array AS 241, with numpy's log and sqrt, differed from the
        # standard library by 1 to 3 ulp on 18 of these entries
        p = halton_points(1000, 300)
        expected = np.array([NormalDist().inv_cdf(v) for v in p.ravel()])
        np.testing.assert_array_equal(inv_norm_cdf(p), expected.reshape(p.shape))


class TestApproxKernel:
    def test_self_value_is_weight_sum(self):
        g = sparse_grid(2, 3)
        fm = FeatureMap(g, "sparse", 0.5)
        x = np.array([0.3, -0.2, 1.0])
        assert fm.approx_kernel(x, x) == pytest.approx(g.weights.sum(), abs=1e-12)

    def test_single_zero_frequency_is_constant_one(self):
        from quadfeat.grids import GridQuadrature
        fm = FeatureMap(GridQuadrature(np.zeros((1, 2)), np.ones(1)), "dense", 0.5)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x, y = rng.standard_normal(2), rng.standard_normal(2)
            assert fm.approx_kernel(x, y) == 1.0

    def test_dense_grid_close_to_kernel_within_taylor_bound(self):
        fm = FeatureMap(dense_grid(5, 2), "dense", 0.5)
        u = np.array([0.3, -0.4])
        exact = math.exp(-0.5 * float(u @ u))
        # loose remainder bound evaluated at degree 9 and |u| = 0.5
        bound = 3.0 * (math.e * 0.25 / 9) ** 4.5
        assert abs(fm.approx(u) - exact) <= bound

    def test_shift_invariance(self):
        fm = rff(3, 40, 0.7, seed=2)
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        for _ in range(5):
            c = rng.standard_normal(3)
            assert abs(fm.approx_kernel(x + c, y + c)
                       - fm.approx_kernel(x, y)) <= 1e-12

    def test_dimension_mismatch(self):
        fm = rff(3, 10, 0.5, seed=0)
        with pytest.raises(ValueError):
            fm.approx_kernel(np.zeros(4), np.zeros(4))

    @pytest.mark.parametrize("make", [
        lambda: rff(3, 10, 0.5, seed=0),
        lambda: FeatureMap(sparse_grid(2, 3), "sparse", 0.5),
        lambda: anova_compose(AnovaKernel(((1, 2), (3,)), GaussianKernel(0.5), 3),
                              lambda dim, D: rff(dim, D, 0.5, seed=dim), 10),
    ], ids=["plain", "factored", "anova"])
    @pytest.mark.parametrize("shape", [(2, 3, 3), ()])
    def test_displacements_of_other_ranks_are_refused(self, make, shape):
        with pytest.raises(ValueError, match=rf"got shape \({', '.join(map(str, shape))}\)"):
            make().approx(np.zeros(shape))


class TestEmbed:
    def test_squared_norm_is_weight_sum(self):
        fm = rff(4, 30, 0.5, seed=4)
        x = np.random.default_rng(4).standard_normal(4)
        z = fm.embed(x)
        assert z @ z == pytest.approx(fm.grid.weights.sum(), abs=1e-12)
        assert z.shape == (2 * fm.count,)

    def test_zero_frequency_unit_weight(self):
        from quadfeat.grids import GridQuadrature
        fm = FeatureMap(GridQuadrature(np.zeros((1, 3)), np.ones(1)), "dense", 0.5)
        for x in np.random.default_rng(5).standard_normal((4, 3)):
            np.testing.assert_allclose(fm.embed(x), [1.0, 0.0], atol=1e-15)

    def test_inner_product_identity(self):
        rng = np.random.default_rng(6)
        fm = rff(5, 200, 0.5, seed=6)
        for _ in range(50):
            x, y = rng.standard_normal(5), rng.standard_normal(5)
            assert fm.embed(x) @ fm.embed(y) == pytest.approx(
                fm.approx_kernel(x, y), abs=1e-12 * fm.count)

    def test_signed_weights_refuse_embedding(self):
        fm = FeatureMap(sparse_grid(2, 2), "sparse", 0.5)
        with pytest.raises(EmbeddingUnsupportedError):
            fm.embed(np.zeros(2))
        # the signed estimate itself stays available
        assert np.isfinite(fm.approx(np.zeros(2)))


def _ulps_from(x: float, ulps: int) -> float:
    """x moved ``ulps`` representable steps."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


def _reweighted_map() -> FeatureMap:
    from quadfeat.grids import subsample_dense_grid
    from quadfeat.solvers import bisect_lambda
    rng = np.random.default_rng(22)
    g = bisect_lambda(subsample_dense_grid(4, 3, 40, seed=22),
                      (rng.standard_normal((60, 3)), rng.standard_normal((60, 3))),
                      GaussianKernel(0.5), 10).grid
    return FeatureMap(g, "reweighted", 0.5)


EPS = np.finfo(float).eps


def _hstack_embedding(fm: FeatureMap, X: np.ndarray) -> np.ndarray:
    """The np.cos/np.sin formula of the embedding, over the map's cosine
    terms (the folded frequencies and weights of a rule with twins)."""
    P = X @ fm.frequencies.T
    s = np.sqrt(fm.weights)
    return np.hstack([np.cos(P) * s, np.sin(P) * s])


def _half_phases(fm: FeatureMap, X: np.ndarray) -> np.ndarray:
    """w'x / 2 as the map forms it: one product per block of
    ``_block_rows(count)`` C-contiguous rows against its cached operand."""
    r = _block_rows(fm.count)
    H = np.empty((X.shape[0], fm.count))
    for i in range(0, X.shape[0], r):
        H[i:i + r] = np.ascontiguousarray(X[i:i + r]) @ fm._half_frequencies
    return H


def _tangent_embedding(fm: FeatureMap, X: np.ndarray) -> np.ndarray:
    """The same features from t = tan(w'x / 2): the estimator's cosine
    2 / (1 + t^2) - 1 (``_cos_from_half``) and the sine 2t / (1 + t^2)."""
    H = _half_phases(fm, X)
    t = np.tan(H)
    s = np.sqrt(fm.weights)
    return np.hstack([_cos_from_half(H) * s, t * (2.0 / (t * t + 1.0)) * s])


def _anova_map():
    kernel = AnovaKernel(((1, 3), (2, 3, 4), (4,)), GaussianKernel(0.5), 4)
    return anova_compose(kernel, lambda dim, D: rff(dim, D, 0.5, seed=dim), 30)


EMBEDDABLE = {
    "rff": lambda: rff(3, 40, 0.5, seed=16),
    "qmc": lambda: qmc_halton(3, 40, 0.7),
    "dense": lambda: FeatureMap(dense_grid(4, 3), "dense", 0.5),
    "subsampled": lambda: subsampled_feature_map(4, 3, 40, 0.5, seed=16),
    "poly-exact": lambda: FeatureMap(construct_poly_exact(3, 2, 60, seed=16),
                                     "poly_exact", 0.5),
    "reweighted": _reweighted_map,
    "empty": lambda: FeatureMap(GridQuadrature(np.zeros((0, 3)), np.zeros(0),
                                               normalized=False), "reweighted", 0.5),
}


class TestApproxAgainstCosFormula:
    # the generic estimator's half-angle cosines against np.cos, summed alike
    @pytest.mark.parametrize("name", sorted(EMBEDDABLE) + ["signed-sparse"])
    def test_within_eight_eps_of_the_weight_mass(self, name):
        fm = EMBEDDABLE[name]() if name in EMBEDDABLE else \
            FeatureMap(sparse_grid(2, 3), "sparse", 0.5)
        g = fm.grid  # rebuilt without its structure record: the generic path
        fm = FeatureMap(GridQuadrature(g.points, g.weights, normalized=g.normalized),
                        fm.method, fm.gamma)
        U = np.random.default_rng(23).standard_normal((2000, 3)) * 3.0
        # over all the grid's points: the map sums each pair of twins as one
        # cosine term
        points = fm.grid.points * math.sqrt(2.0 * fm.gamma)
        expected = np.cos(U @ points.T) @ fm.grid.weights
        bound = 8 * np.finfo(float).eps * np.abs(fm.grid.weights).sum()
        assert np.abs(fm.approx(U) - expected).max() <= bound

    def test_empty_map_estimates_zero_at_every_shape(self):
        fm = EMBEDDABLE["empty"]()
        np.testing.assert_array_equal(fm.approx(np.ones((4, 3))), np.zeros(4))
        value = fm.approx(np.ones(3))
        assert isinstance(value, float) and value == 0.0
        assert fm.approx(np.ones((0, 3))).shape == (0,)


class TestEmbedBatch:
    @pytest.mark.parametrize("name", sorted(EMBEDDABLE))
    def test_bitwise_equal_to_hstack_formula(self, name):
        # the tangent formula; the np.cos/np.sin one holds to 4 eps (below)
        fm = EMBEDDABLE[name]()
        X = np.random.default_rng(17).standard_normal((300, 3))
        Z = fm.embed_batch(X)
        assert Z.shape == (300, 2 * fm.count)
        np.testing.assert_array_equal(Z, _tangent_embedding(fm, X))

    @pytest.mark.parametrize("name", sorted(EMBEDDABLE))
    @settings(max_examples=40, deadline=None)
    @given(exponent=st.integers(-3, 12), seed=st.integers(0, 2**32 - 1))
    def test_within_four_eps_of_cos_sin_formula(self, name, exponent, seed):
        fm = EMBEDDABLE[name]()
        X = np.random.default_rng(seed).uniform(-1.0, 1.0, (50, 3)) * 10.0**exponent
        gap = np.abs(fm.embed_batch(X) - _hstack_embedding(fm, X))
        bound = 4 * EPS * np.tile(np.sqrt(fm.weights), 2)
        assert (gap <= bound).all()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-200_000, 200_000), st.integers(-3, 3)),
                    min_size=1, max_size=64))
    def test_phases_at_the_poles_and_zeros(self, cases):
        # one unit frequency, so the inputs are the phases: k pi / 2 moved a
        # few ulps, where tan(x / 2) has a pole (odd k pi) or sin or cos a zero
        fm = FeatureMap(GridQuadrature(np.ones((1, 1)), np.ones(1)), "rff", 0.5)
        x = np.array([_ulps_from(k * math.pi / 2, ulps) for k, ulps in cases])
        Z = fm.embed_batch(x[:, None])
        assert np.abs(Z[:, 0] - np.cos(x)).max() <= 4 * EPS
        assert np.abs(Z[:, 1] - np.sin(x)).max() <= 4 * EPS

    def test_anova_bitwise_equal_to_hstack_of_sub_maps(self):
        composite = _anova_map()
        X = np.random.default_rng(18).standard_normal((200, 4))
        expected = np.hstack([fm.embed_batch(X[:, np.array(S) - 1])
                              for S, fm in composite.sub_maps])
        np.testing.assert_array_equal(composite.embed_batch(X), expected)

    @pytest.mark.parametrize("make", [lambda: rff(3, 40, 0.5, seed=19), _anova_map],
                             ids=["plain", "anova"])
    def test_out_is_filled_in_place(self, make):
        fm = make()
        X = np.random.default_rng(19).standard_normal((50, fm.d))
        wide = np.full((50, 2 * fm.count + 5), 7.0)
        view = wide[:, 2:2 + 2 * fm.count]
        assert fm.embed_batch(X, out=view) is view
        np.testing.assert_array_equal(view, fm.embed_batch(X))
        assert (wide[:, :2] == 7.0).all() and (wide[:, -3:] == 7.0).all()

    @pytest.mark.parametrize("out", [np.empty((50, 79)), np.empty((49, 80)),
                                     np.empty((50, 80), dtype=np.float32),
                                     [[0.0] * 80] * 50])
    def test_out_of_wrong_shape_or_dtype_is_refused(self, out):
        fm = rff(3, 40, 0.5, seed=20)
        with pytest.raises(ValueError):
            fm.embed_batch(np.zeros((50, 3)), out=out)

    def test_signed_map_leaves_out_untouched(self):
        fm = FeatureMap(sparse_grid(2, 2), "sparse", 0.5)
        out = np.full((4, 2 * fm.count), 3.0)
        with pytest.raises(EmbeddingUnsupportedError):
            fm.embed_batch(np.zeros((4, 2)), out=out)
        assert (out == 3.0).all()
        kernel = AnovaKernel(((1,), (1, 2)), GaussianKernel(0.5), 2)
        composite = anova_compose(
            kernel, lambda dim, D: (rff(1, D, 0.5, seed=0) if dim == 1 else fm), 5)
        out = np.full((4, 2 * composite.count), 3.0)
        with pytest.raises(EmbeddingUnsupportedError):
            composite.embed_batch(np.zeros((4, 2)), out=out)
        assert (out == 3.0).all()

    def test_single_row_embed_is_a_batch_row(self):
        X = np.random.default_rng(21).standard_normal((3, 4))
        for fm in (rff(4, 30, 0.5, seed=21), _anova_map()):
            for x in X:
                np.testing.assert_array_equal(fm.embed(x),
                                              fm.embed_batch(x[None, :])[0])

    def test_wrong_width_is_refused(self):
        fm = rff(3, 10, 0.5, seed=0)
        with pytest.raises(ValueError, match="expected dimension 3, got 4"):
            fm.embed_batch(np.zeros((5, 4)))

    @pytest.mark.parametrize("make", [lambda: rff(3, 10, 0.5, seed=0), _anova_map],
                             ids=["plain", "anova"])
    @pytest.mark.parametrize("with_out", [False, True], ids=["new", "out"])
    def test_other_ranks_are_refused(self, make, with_out):
        fm = make()
        out = np.full((2, 2 * fm.count), 3.0) if with_out else None
        for shape in [(2, 3, fm.d), ()]:
            with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
                fm.embed_batch(np.zeros(shape), out=out)
        assert out is None or (out == 3.0).all()


def _uneven_anova_map() -> AnovaFeatureMap:
    """Sub-maps of 57, 1 and 20 points, so the parts of a row block differ."""
    return AnovaFeatureMap((((1, 3), rff(2, 57, 0.5, seed=1)),
                            ((2, 3, 4), rff(3, 1, 0.5, seed=2)),
                            ((4,), qmc_halton(1, 20, 0.5))), 4)


BLOCK_MAPS = {"plain": lambda: rff(3, 75, 0.5, seed=24), "anova": _uneven_anova_map,
              # d = 25, D = 1351: 24 rows a block
              "paper-scale": lambda: rff(25, 1351, 0.5, seed=27)}


def _reference_embedding(fm, X: np.ndarray) -> np.ndarray:
    """``_tangent_embedding`` of a plain map, or of each sub-map side by side."""
    if isinstance(fm, FeatureMap):
        return _tangent_embedding(fm, X)
    return np.hstack([_tangent_embedding(sub, X[:, np.array(S) - 1])
                      for S, sub in fm.sub_maps])


class TestEmbedRowBlocks:
    # the embedding kernel takes its rows in blocks of _block_rows(count)
    @pytest.mark.parametrize("kind", sorted(BLOCK_MAPS))
    @pytest.mark.parametrize("rows", ["1", "r-1", "r", "2r+17"])
    def test_bitwise_across_block_boundaries(self, kind, rows):
        fm = BLOCK_MAPS[kind]()
        r = _block_rows(fm.count)
        n = {"1": 1, "r-1": r - 1, "r": r, "2r+17": 2 * r + 17}[rows]
        X = np.random.default_rng(n).standard_normal((n, fm.d))
        expected = _reference_embedding(fm, X)
        np.testing.assert_array_equal(fm.embed_batch(X), expected)
        # every other row and an inner band of columns of a wider array
        wide = np.full((2 * n, 2 * fm.count + 5), 7.0)
        view = wide[::2, 3:3 + 2 * fm.count]
        assert fm.embed_batch(X, out=view) is view
        np.testing.assert_array_equal(view, expected)
        assert (wide[1::2] == 7.0).all()
        assert (wide[:, :3] == 7.0).all() and (wide[:, -2:] == 7.0).all()

    @pytest.mark.parametrize("kind", ["plain", "paper-scale"])
    @pytest.mark.parametrize("k, m", [(0, 1), (1, 2), (3, 1), (2, 3)])
    def test_rows_depend_only_on_their_block(self, kind, k, m):
        # a run of whole row blocks embeds alone as it does inside the batch
        fm = BLOCK_MAPS[kind]()
        r = _block_rows(fm.count)
        X = np.random.default_rng(r + k).standard_normal((5 * r + 3, fm.d))
        np.testing.assert_array_equal(fm.embed_batch(X)[k * r:(k + m) * r],
                                      fm.embed_batch(X[k * r:(k + m) * r]))

    def test_anova_over_many_blocks_is_the_hstack_of_its_sub_maps(self):
        fm = _uneven_anova_map()
        rows = _block_rows(max(sub.count for _, sub in fm.sub_maps))
        X = np.random.default_rng(29).standard_normal((3 * rows + 11, fm.d))
        expected = np.hstack([sub.embed_batch(X[:, np.array(S) - 1])
                              for S, sub in fm.sub_maps])
        np.testing.assert_array_equal(fm.embed_batch(X), expected)

    def test_anova_approx_across_a_block_boundary_matches_row_by_row(self):
        fm = _uneven_anova_map()
        rows = _block_rows(max(sub.count for _, sub in fm.sub_maps))
        U = np.random.default_rng(25).uniform(-2.0, 2.0, (2 * rows + 17, fm.d))
        by_row = np.array([fm.approx(u) for u in U])
        assert np.abs(fm.approx(U) - by_row).max() <= 1e-15


class TestNonFiniteInputs:
    @pytest.mark.parametrize("kind", sorted(BLOCK_MAPS))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_first_bad_row_is_named_before_out_is_written(self, kind, bad):
        fm = BLOCK_MAPS[kind]()
        X = np.random.default_rng(26).standard_normal((6, fm.d))
        X[4, fm.d - 1] = bad
        X[5, 0] = bad
        out = np.full((6, 2 * fm.count), 3.0)
        with pytest.raises(ValueError, match="inputs must be finite; row 4 is not"):
            fm.embed_batch(X, out=out)
        assert (out == 3.0).all()
        with pytest.raises(ValueError, match="displacements must be finite; row 4 "):
            fm.approx(X)

    @pytest.mark.parametrize("kind", sorted(BLOCK_MAPS))
    def test_single_rows_are_checked(self, kind):
        fm = BLOCK_MAPS[kind]()
        x = np.zeros(fm.d)
        x[0] = math.nan
        for call in (fm.embed, fm.approx, lambda v: fm.approx_kernel(v, np.zeros(fm.d))):
            with pytest.raises(ValueError, match="row 0 is not"):
                call(x)


class TestEmbedGridFast:
    def test_eleven_point_rule_has_eleven_multipliers(self):
        # exactness through degree 21 needs only 11 values per dimension
        fm = FeatureMap(dense_grid(11, 2), "dense", 0.5)
        assert [np.unique(fm.frequencies[:, j]).size for j in range(2)] == [11, 11]
        # a subsample can only ever see those same values
        sub = subsampled_feature_map(11, 4, 600, 0.5, seed=7)
        assert all(np.unique(sub.frequencies[:, j]).size <= 11 for j in range(4))

    def test_single_row_matches_embed(self):
        fm = subsampled_feature_map(4, 3, 50, 0.5, seed=8)
        x = np.random.default_rng(8).standard_normal(3)
        np.testing.assert_allclose(embed_grid_fast(fm, x[None, :])[0],
                                   fm.embed(x), atol=1e-12)

    def test_batch_equivalence(self):
        g = subsample_grid(dense_grid(3, 3), 80, seed=9)
        fm = FeatureMap(g, "subsampled", 0.5)
        X = np.random.default_rng(9).standard_normal((100, 3))
        np.testing.assert_allclose(embed_grid_fast(fm, X), fm.embed_batch(X),
                                   atol=1e-12)

    def test_indexed_sum_matches_embed_on_rff(self):
        fm = rff(2, 100, 0.5, seed=10)  # 100 distinct values per coordinate
        X = np.random.default_rng(10).standard_normal((6, 2))
        np.testing.assert_allclose(embed_grid_fast(fm, X), fm.embed_batch(X))


class TestAnovaComposition:
    def test_single_full_subset_equals_sub_map(self):
        d = 3
        kernel = AnovaKernel((tuple(range(1, d + 1)),), GaussianKernel(0.5), d)
        composite = anova_compose(kernel,
                                  lambda dim, D: rff(dim, D, 0.5, seed=11), 40)
        sub = composite.sub_maps[0][1]
        rng = np.random.default_rng(11)
        for _ in range(10):
            x, y = rng.standard_normal(d), rng.standard_normal(d)
            assert composite.approx_kernel(x, y) == pytest.approx(
                sub.approx_kernel(x, y))

    def test_disjoint_pairs_with_near_exact_sub_maps(self):
        kernel = AnovaKernel(((1, 2), (3, 4)), GaussianKernel(0.5), 4)
        composite = anova_compose(
            kernel,
            lambda dim, D: FeatureMap(dense_grid(12, dim), "dense", 0.5), 144)
        rng = np.random.default_rng(12)
        for _ in range(200):
            x = rng.uniform(-0.75, 0.75, size=4)
            y = rng.uniform(-0.75, 0.75, size=4)
            assert composite.approx_kernel(x, y) == pytest.approx(
                eval_anova(kernel, x, y), abs=1e-8)

    def test_feature_length_and_count(self):
        kernel = AnovaKernel(((1, 2), (2, 3), (3, 4)), GaussianKernel(0.5), 4)
        D_S = 25
        composite = anova_compose(kernel,
                                  lambda dim, D: rff(dim, D, 0.5, seed=13), D_S)
        assert composite.count == 3 * D_S
        z = composite.embed(np.zeros(4))
        assert z.shape == (2 * 3 * D_S,)

    def test_wider_input_is_refused(self):
        # sub-maps read only their own coordinates, so extra columns would
        # otherwise pass unnoticed
        composite = _anova_map()
        x = np.zeros(composite.d + 3)
        for call in (lambda: composite.approx(x),
                     lambda: composite.approx(x[None, :]),
                     lambda: composite.approx_kernel(x, x),
                     lambda: composite.embed(x),
                     lambda: composite.embed_batch(x[None, :])):
            with pytest.raises(ValueError):
                call()

    def test_repeated_subset_index_refused(self):
        # as AnovaKernel refuses it: the sub-map would see (u_1, u_1)
        with pytest.raises(ValueError, match="repeated"):
            AnovaFeatureMap((((1, 1), rff(2, 5, 0.5, seed=0)),), 3)

    def test_composite_error_bounded_by_sum_of_sub_errors(self):
        kernel = AnovaKernel(((1, 2), (3, 4)), GaussianKernel(0.5), 4)
        composite = anova_compose(kernel,
                                  lambda dim, D: rff(dim, D, 0.5, seed=14), 20)
        base = GaussianKernel(0.5)
        rng = np.random.default_rng(14)
        for _ in range(100):
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            total = abs(composite.approx_kernel(x, y) - eval_anova(kernel, x, y))
            parts = 0.0
            for S, fm in composite.sub_maps:
                idx = np.array(S) - 1
                parts += abs(fm.approx_kernel(x[idx], y[idx])
                             - base.value(x[idx] - y[idx]))
            assert total <= parts + 1e-12


def test_unknown_method_tag_refused():
    grid = GridQuadrature(np.zeros((1, 2)), np.ones(1))
    # tags are the values of METHOD_TAGS: a CLI spelling is not a tag
    for method in ("poly-exact", "anova", "RFF"):
        with pytest.raises(ValueError, match="unknown method tag"):
            FeatureMap(grid, method, 0.5)


def test_feature_map_serialization_round_trip(tmp_path):
    fm = qmc_halton(3, 20, 0.7)
    back = feature_map_from_json(feature_map_to_json(fm))
    assert back.method == fm.method
    assert back.gamma == fm.gamma
    np.testing.assert_array_equal(back.grid.points, fm.grid.points)
    u = np.array([0.1, -0.2, 0.3])
    assert back.approx(u) == fm.approx(u)


@pytest.mark.parametrize("method,grid", [("dense", dense_grid(4, 5)),
                                         ("sparse", sparse_grid(2, 4))],
                         ids=["dense", "sparse"])
def test_structured_map_keeps_its_count_through_json(method, grid, tmp_path):
    # the file keeps the structure record, so the map read back estimates
    # by the factored path, as the map written did
    fm = FeatureMap(grid, method, 0.5)
    path = tmp_path / "map.json"
    save_feature_map(fm, str(path))
    back = load_feature_map(str(path))
    assert back.grid.structure == grid.structure
    assert back.count == fm.count == grid.count
    U = np.random.default_rng(5).standard_normal((200, grid.d))
    np.testing.assert_array_equal(back.approx(U), fm.approx(U))
    if method == "dense":  # a Smolyak rule has negative weights: no embedding
        np.testing.assert_array_equal(back.embed_batch(U), fm.embed_batch(U))


def _without(payload, key):
    return {k: v for k, v in payload.items() if k != key}


_MAP_PAYLOAD = feature_map_to_json(rff(3, 5, 0.5, seed=0))


@pytest.mark.parametrize("payload,key", [
    (_without(_MAP_PAYLOAD, "points"), "points"),
    (_without(_MAP_PAYLOAD, "weights"), "weights"),
    (_without(_MAP_PAYLOAD, "d"), "d"),
    (_without(_MAP_PAYLOAD, "D"), "D"),
    (_without(_MAP_PAYLOAD, "method"), "method"),
    (_without(_MAP_PAYLOAD, "gamma"), "gamma"),
    ({**_MAP_PAYLOAD, "gamma": "x"}, "gamma"),
    ({**_MAP_PAYLOAD, "gamma": -1.0}, "gamma"),
    ({**_MAP_PAYLOAD, "method": "poly-exact"}, "method"),
    ({**_MAP_PAYLOAD, "points": [[0.0, 1.0, 2.0], [1.0]] + _MAP_PAYLOAD["points"][2:]},
     "points"),
    ({**_MAP_PAYLOAD, "points": [0.5] * 15}, "points"),
    ({**_MAP_PAYLOAD, "points": [["x", 0.0, 0.0]] + _MAP_PAYLOAD["points"][1:]},
     "points"),
    ({**_MAP_PAYLOAD, "d": 2}, "d"),
    ({**_MAP_PAYLOAD, "d": "3"}, "d"),
    ({**_MAP_PAYLOAD, "D": 4}, "D"),
    ({**_MAP_PAYLOAD, "weights": _MAP_PAYLOAD["weights"][:4]}, "weights"),
    ([], "points"),
    ({**_MAP_PAYLOAD, "points": [[math.nan, 0.0, 0.0]] + _MAP_PAYLOAD["points"][1:]},
     "points"),
    ({**_MAP_PAYLOAD, "points": [[0.0, -math.inf, 0.0]] + _MAP_PAYLOAD["points"][1:]},
     "points"),
    ({**_MAP_PAYLOAD, "weights": [math.nan] + _MAP_PAYLOAD["weights"][1:]}, "weights"),
    ({**_MAP_PAYLOAD, "weights": [math.inf] + _MAP_PAYLOAD["weights"][1:]}, "weights"),
    ({**_MAP_PAYLOAD, "points": _MAP_PAYLOAD["points"][:1] + _MAP_PAYLOAD["points"][:4]},
     "points"),
])
def test_malformed_map_file_names_the_field(payload, key, tmp_path):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError) as exc:
        load_feature_map(str(path))
    assert exc.value.key == key


def test_empty_map_file_needs_only_its_dimension():
    payload = {**_MAP_PAYLOAD, "points": [], "weights": [], "D": 0}
    assert feature_map_from_json(payload).grid.points.shape == (0, 3)
    with pytest.raises(ConfigError) as exc:
        feature_map_from_json({**payload, "d": -1})
    assert exc.value.key == "d"


def test_unnormalized_reweighted_map_round_trips():
    from quadfeat.grids import subsample_dense_grid
    from quadfeat.solvers import bisect_lambda
    rng = np.random.default_rng(21)
    pool = subsample_dense_grid(4, 2, 50, seed=21)
    g = bisect_lambda(pool, (rng.standard_normal((60, 2)),
                             rng.standard_normal((60, 2))),
                      GaussianKernel(0.5), 6).grid
    assert abs(g.weights.sum() - 1.0) > 1e-10  # genuinely unnormalized
    fm = FeatureMap(g, "reweighted", 0.5)
    back = feature_map_from_json(feature_map_to_json(fm))
    assert not back.grid.normalized
    np.testing.assert_array_equal(back.grid.weights, g.weights)


def test_poly_exact_map_embeds(tmp_path):
    g = construct_poly_exact(2, 4, 120, seed=15)
    fm = FeatureMap(g, "poly_exact", 0.5)
    rng = np.random.default_rng(15)
    x, y = rng.standard_normal(2), rng.standard_normal(2)
    assert fm.embed(x) @ fm.embed(y) == pytest.approx(fm.approx_kernel(x, y),
                                                      abs=1e-10)


@pytest.mark.parametrize("name", sorted(EMBEDDABLE))
def test_one_cached_operand_holds_the_frequencies(name):
    # half the frequencies, read-only and C-contiguous, is the one array a
    # map keeps for them; ``frequencies`` is built from it, bitwise, and
    # holds the first of each pair of twins unless the grid is structured
    fm = EMBEDDABLE[name]()
    fm.embed_batch(np.zeros((2, 3)))
    half = fm._half_frequencies
    assert half.shape == (3, fm.count) and half.flags.c_contiguous
    assert not half.flags.writeable
    g = fm.grid
    points = g.points if g.structure else g.points[fold_twins(g.points, g.weights)[0]]
    np.testing.assert_array_equal(fm.frequencies, points * math.sqrt(2.0 * fm.gamma))
    np.testing.assert_array_equal(half, 0.5 * fm.frequencies.T)
    assert sorted(k for k, v in vars(fm).items() if isinstance(v, np.ndarray)) \
        == ["_half_frequencies", "_sqrt_weights"]


def _pe_map(d=3, R=4, D=200, seed=27, gamma=0.5) -> FeatureMap:
    return FeatureMap(construct_poly_exact(d, R, D, seed), "poly_exact", gamma)


class TestMirrorRules:
    # a poly-exact rule is [P; -P] with weights [a/2; a/2]; its map folds
    # each pair once and works with the h cosine terms of (P, a)
    def test_map_counts_cosine_terms(self):
        fm = _pe_map()
        g = fm.grid
        h = g.count // 2
        assert fm.count == h
        np.testing.assert_array_equal(fm.frequencies, g.points[:h] * math.sqrt(2 * 0.5))
        np.testing.assert_array_equal(fm.weights, 2.0 * g.weights[:h])
        assert fm.embed_batch(np.zeros((2, 3))).shape == (2, 2 * h)

    def test_approx_within_eight_eps_of_the_sum_over_all_points(self):
        fm = _pe_map()
        U = np.random.default_rng(28).standard_normal((2000, 3)) * 3.0
        expected = np.cos(U @ (fm.grid.points * math.sqrt(2 * fm.gamma)).T) \
            @ fm.grid.weights
        bound = 8 * EPS * fm.weights.sum()
        assert np.abs(fm.approx(U) - expected).max() <= bound

    def test_embedding_is_the_tangent_formula_of_the_folded_terms(self):
        fm = _pe_map()
        X = np.random.default_rng(29).standard_normal((300, 3))
        np.testing.assert_array_equal(fm.embed_batch(X), _tangent_embedding(fm, X))

    def test_embedding_identity(self):
        fm = _pe_map()
        rng = np.random.default_rng(30)
        X, Y = rng.standard_normal((200, 3)), rng.standard_normal((200, 3))
        inner = np.einsum("ij,ij->i", fm.embed_batch(X), fm.embed_batch(Y))
        assert np.abs(inner - fm.approx(X - Y)).max() <= 1e-10

    def test_anova_parts_are_folded(self):
        kernel = AnovaKernel(((1, 2), (2, 3, 4)), GaussianKernel(0.5), 4)
        composite = anova_compose(
            kernel, lambda dim, D: _pe_map(dim, 2, D, seed=dim), 60)
        assert composite.count == sum(sub.grid.count // 2
                                      for _, sub in composite.sub_maps)
        X = np.random.default_rng(31).standard_normal((50, 4))
        np.testing.assert_array_equal(composite.embed_batch(X),
                                      _reference_embedding(composite, X))

    def test_embed_grid_fast_is_folded(self):
        fm = _pe_map()
        X = np.random.default_rng(32).standard_normal((40, 3))
        np.testing.assert_allclose(embed_grid_fast(fm, X), fm.embed_batch(X),
                                   atol=1e-12)

    def test_json_round_trip_keeps_the_record(self):
        # the file keeps the 2h points, whose twins the map read back folds
        # again; a file that also carries the "mirror": true of earlier
        # versions loads to the same map, bitwise
        fm = _pe_map()
        payload = json.loads(json.dumps(feature_map_to_json(fm)))
        assert "mirror" not in payload
        assert payload["D"] == len(payload["points"]) == 2 * fm.count
        U = np.random.default_rng(33).standard_normal((500, 3))
        X = np.random.default_rng(33).standard_normal((20, 3))
        for older in (False, True):
            if older:
                payload["mirror"] = True
            back = feature_map_from_json(payload)
            assert back.count == fm.count
            np.testing.assert_array_equal(back.grid.points, fm.grid.points)
            np.testing.assert_array_equal(back.approx(U), fm.approx(U))
            np.testing.assert_array_equal(back.embed_batch(X), fm.embed_batch(X))

    def test_a_record_the_points_do_not_bear_out_loads_as_a_plain_rule(self):
        # "mirror": true over points that are not [P; -P]: one coordinate
        # moved by one ulp leaves h - 1 pairs of twins and two single points
        payload = json.loads(json.dumps(feature_map_to_json(_pe_map())))
        payload["mirror"] = True
        h = payload["D"] // 2
        row = payload["points"][h + 1]
        row[2] = math.nextafter(row[2], math.inf)
        fm = feature_map_from_json(payload)
        assert fm.grid.count == 2 * h and fm.count == h + 1
        U = np.random.default_rng(35).standard_normal((2000, 3)) * 3.0
        expected = np.cos(U @ (fm.grid.points * math.sqrt(2 * fm.gamma)).T) \
            @ fm.grid.weights
        bound = 8 * EPS * np.abs(fm.grid.weights).sum()
        assert np.abs(fm.approx(U) - expected).max() <= bound

    def test_files_without_the_record_load_as_plain_rules(self):
        # a file without the key, as every file is now, still folds
        payload = feature_map_to_json(_pe_map())
        payload.pop("mirror", None)
        fm = feature_map_from_json(payload)
        assert fm.count == fm.grid.count // 2
        assert "mirror" not in feature_map_to_json(rff(3, 5, 0.5, seed=0))

    @pytest.mark.parametrize("L,d,D,seed,points,terms", [(4, 3, 40, 16, 19, 12),
                                                        (8, 5, 1000, 0, 494, 363)])
    def test_small_d_subsampled_maps_count_cosine_terms(self, L, d, D, seed,
                                                        points, terms):
        # weight-proportional draws at small d pick twins; each pair is one
        # term, so the map embeds to 2 * terms columns
        fm = subsampled_feature_map(L, d, D, 0.5, seed)
        assert (fm.grid.count, fm.count) == (points, terms)
        rng = np.random.default_rng(36)
        X, Y = rng.standard_normal((200, d)), rng.standard_normal((200, d))
        Z = fm.embed_batch(X)
        assert Z.shape == (200, 2 * terms)
        inner = np.einsum("ij,ij->i", Z, fm.embed_batch(Y))
        assert np.abs(inner - fm.approx(X - Y)).max() <= 1e-12

    def test_structured_grids_are_not_folded(self):
        # a dense or Smolyak grid's D counts its points
        assert FeatureMap(dense_grid(4, 5), "dense", 0.5).count == 1024
        assert FeatureMap(sparse_grid(2, 25), "sparse", 0.5).count == 1351

    @pytest.mark.parametrize("name", sorted(set(EMBEDDABLE) - {"poly-exact"}))
    def test_maps_without_the_record_use_the_grid_as_is(self, name):
        # a rule without twins, or with a structure record, is used as it
        # is; one with twins (the subsampled grid at d = 3) estimates within
        # 8 eps sum |a_i| of the np.cos sum over all its points
        fm = EMBEDDABLE[name]()
        g = fm.grid
        if name == "subsampled":
            assert fm.count < g.count
            U = np.random.default_rng(34).standard_normal((3000, 3))
            expected = np.cos(U @ (g.points * math.sqrt(2.0 * fm.gamma)).T) @ g.weights
            bound = 8 * EPS * np.abs(g.weights).sum()
            assert np.abs(fm.approx(U) - expected).max() <= bound
            return
        assert fm.count == fm.grid.count and fm.weights is fm.grid.weights
        np.testing.assert_array_equal(
            fm.frequencies, fm.grid.points * math.sqrt(2.0 * fm.gamma))
        if fm.grid.structure is None:
            # the blocked estimate over the grid's own points and weights
            U = np.random.default_rng(34).standard_normal((3000, 3))
            F = 0.5 * (fm.grid.points * math.sqrt(2.0 * fm.gamma)).T
            rows = max(1, min(U.shape[0], _block_rows(fm.grid.count)))
            expected = np.concatenate(
                [_cos_from_half(U[i:i + rows] @ F) @ fm.grid.weights
                 for i in range(0, U.shape[0], rows)])
            np.testing.assert_array_equal(fm.approx(U), expected)
