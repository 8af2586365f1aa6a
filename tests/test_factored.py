"""Factored kernel estimates of dense and Smolyak grids against the
materialized sum over their points, the generic blocked estimator, and the
half-angle cosine both of them use."""
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadfeat.featuremaps import (
    MAX_DOUBLINGS,
    FeatureMap,
    _block_rows,
    _double_cos,
    anova_compose,
    feature_map_from_json,
    feature_map_to_json,
    rff,
)
from quadfeat.grids import (
    GridQuadrature,
    _cos_from_half,
    _cos_sum_1d,
    dense_grid,
    grid_from_json,
    grid_to_json,
    sparse_grid,
    structured_cos_sum,
    subsample_grid,
)
from quadfeat.harness import displacement_sample, sample_pairs, synthetic_mixture
from quadfeat.kernels import AnovaKernel, GaussianKernel
from quadfeat.quad1d import gauss_hermite
from quadfeat.solvers import bisect_lambda, reweight

TOL = 1e-12


def materialized(fm: FeatureMap) -> FeatureMap:
    """The same rule as a plain point set, which takes the generic path."""
    g = fm.grid
    return FeatureMap(GridQuadrature(g.points, g.weights), fm.method, fm.gamma)


@functools.lru_cache(maxsize=None)
def cached_grid(kind: str, level: int, d: int) -> GridQuadrature:
    return dense_grid(level, d) if kind == "dense" else sparse_grid(level, d)


@st.composite
def grid_cases(draw):
    if draw(st.booleans()):
        kind, level, d = "dense", draw(st.integers(1, 6)), draw(st.integers(1, 4))
    else:
        # levels past 3 only at d <= 2, where they keep their tiny outer weights
        level = draw(st.integers(0, 7))
        kind, d = "sparse", draw(st.integers(1, 6 if level <= 3 else 2))
    gamma = draw(st.floats(0.01, 10.0))
    n = draw(st.integers(1, 5))
    U = np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=n * d,
                               max_size=n * d))).reshape(n, d)
    norms = np.linalg.norm(U, axis=1, keepdims=True)
    U = U * np.minimum(1.0, 4.0 / np.maximum(norms, 1e-300))
    return kind, level, d, gamma, U


class TestStructureRecord:
    def test_constructors_record_their_rule(self):
        assert dense_grid(3, 2).structure == ("dense", 3)
        assert sparse_grid(2, 4).structure == ("sparse", 2)

    def test_callers_cannot_pass_it(self):
        with pytest.raises(TypeError):
            GridQuadrature(np.zeros((1, 1)), np.ones(1), structure=("dense", 1))

    def test_plain_grids_carry_none(self):
        assert rff(3, 10, 0.5, seed=0).grid.structure is None

    def test_subsampling_drops_it(self):
        assert subsample_grid(dense_grid(4, 3), 50, seed=0).structure is None

    def test_json_round_trip_drops_it(self):
        g = sparse_grid(2, 3)
        payload = grid_to_json(g)
        assert "structure" not in payload
        assert grid_from_json(payload).structure is None
        fm = FeatureMap(dense_grid(3, 2), "dense", 0.5)
        assert feature_map_from_json(feature_map_to_json(fm)).grid.structure is None

    def test_reweighting_drops_it(self):
        ds = synthetic_mixture(200, seed=3, d=2, components=2)
        train = sample_pairs(ds, 60, seed=0)
        kernel = GaussianKernel(0.5)
        pool = dense_grid(6, 2)
        assert reweight(pool, train, kernel).structure is None
        assert bisect_lambda(pool, train, kernel, 8).grid.structure is None


class TestFactoredMatchesMaterialized:
    @settings(max_examples=150, deadline=None)
    @given(grid_cases())
    def test_small_grids(self, case):
        kind, level, d, gamma, U = case
        fm = FeatureMap(cached_grid(kind, level, d), kind, gamma)
        gap = np.abs(fm.approx(U) - materialized(fm).approx(U)).max()
        assert gap <= TOL

    @pytest.mark.parametrize("kind,level,d", [
        ("sparse", 2, 25), ("dense", 4, 5), ("sparse", 3, 5)])
    def test_benchmark_grids(self, kind, level, d):
        fm = FeatureMap(cached_grid(kind, level, d), kind, 0.5)
        U = displacement_sample(d, 2.0, 2000, seed=7)
        gap = np.abs(fm.approx(U) - materialized(fm).approx(U)).max()
        assert gap <= TOL

    def test_closer_to_extended_precision_sum(self):
        # sum |a_i| is about 3121 here: the materialized sum's own rounding
        # is then the larger error
        g = cached_grid("sparse", 2, 40)
        fm = FeatureMap(g, "sparse", 0.5)  # sqrt(2 gamma) = 1, exactly
        U = displacement_sample(40, 2.0, 200, seed=1)
        ld = np.longdouble
        exact = np.cos(U.astype(ld) @ g.points.astype(ld).T) @ g.weights.astype(ld)
        factored = np.abs(fm.approx(U) - exact).max()
        summed = np.abs(materialized(fm).approx(U) - exact).max()
        assert factored < summed

    def test_single_displacement_returns_float(self):
        for g in (dense_grid(3, 2), sparse_grid(2, 2)):
            fm = FeatureMap(g, "dense", 0.5)
            value = fm.approx(np.array([0.3, -0.2]))
            assert isinstance(value, float)
            assert value == pytest.approx(materialized(fm).approx(
                np.array([0.3, -0.2])), abs=TOL)

    def test_anova_of_dense_sub_maps(self):
        kernel = AnovaKernel(((1, 2), (2, 5), (3, 4, 6)), GaussianKernel(0.5), 6)
        fm = anova_compose(kernel, lambda dim, D: FeatureMap(
            dense_grid(4, dim), "dense", 0.5), 0)
        U = displacement_sample(6, 2.0, 500, seed=2)
        summed = sum(materialized(sub).approx(U[:, np.array(S) - 1])
                     for S, sub in fm.sub_maps)
        assert np.abs(fm.approx(U) - summed).max() <= TOL


def reference_structured_cos_sum(structure: tuple, V: np.ndarray) -> np.ndarray:
    """The factored estimate in array form: np.prod of the one-dimensional
    sums for a dense grid; for a Smolyak grid the products of Delta_m =
    g_{2^m} - g_{2^(m-1)} accumulated coordinate by coordinate on one
    (n, A + 1) array whose column r holds total level r."""
    kind, level = structure
    if kind == "dense":
        return np.prod(_cos_sum_1d(gauss_hermite(level), V), axis=1)
    g = np.stack([np.ones_like(V)] + [_cos_sum_1d(gauss_hermite(2**m), V)
                                      for m in range(1, level + 1)], axis=2)
    delta = g[:, :, 1:] - g[:, :, :-1]
    T = np.zeros((V.shape[0], level + 1))
    T[:, 0] = 1.0
    for j in range(V.shape[1]):
        prev = T.copy()
        for m in range(1, level + 1):
            T[:, m:] += prev[:, :level + 1 - m] * delta[:, j, m - 1:m]
    return T.sum(axis=1)


class TestFactoredMatchesArrayForm:
    @pytest.mark.parametrize("structure", [("dense", L) for L in range(1, 9)]
                             + [("sparse", A) for A in range(8)],
                             ids=lambda s: f"{s[0]}-{s[1]}")
    def test_bitwise(self, structure):
        rng = np.random.default_rng(structure[1])
        for d in range(1, 5):
            V = 3.0 * rng.standard_normal((200, d))
            np.testing.assert_array_equal(structured_cos_sum(structure, V),
                                          reference_structured_cos_sum(structure, V))


class TestGenericBlocks:
    def test_partial_last_block_matches_row_by_row(self):
        fm = rff(4, 1000, 0.5, seed=0)
        rows = _block_rows(fm.count)
        U = displacement_sample(4, 2.0, 2 * rows + 17, seed=3)
        by_row = np.array([fm.approx(u) for u in U])
        assert np.abs(fm.approx(U) - by_row).max() <= 1e-15

    def test_single_displacement_returns_float(self):
        fm = rff(3, 50, 0.5, seed=1)
        u = np.array([0.1, 0.2, -0.3])
        value = fm.approx(u)
        assert isinstance(value, float)
        expected = math.fsum(a * math.cos(w @ u)
                             for w, a in zip(fm.frequencies, fm.grid.weights))
        assert value == pytest.approx(expected, abs=1e-14)


EPS = np.finfo(float).eps


def _odd_pi_multiple(k: int, ulps: int) -> float:
    """(2k + 1) pi moved ``ulps`` representable steps, where tan(x/2) has a pole."""
    x = (2 * k + 1) * math.pi
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


class TestHalfAngleCosine:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-1e15, 1e15), min_size=1, max_size=64))
    def test_within_four_eps_of_cos(self, xs):
        x = np.array(xs)
        assert np.abs(_cos_from_half(0.5 * x) - np.cos(x)).max() <= 4 * EPS

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(-10**12, 10**12), st.integers(-4, 4)),
                    min_size=1, max_size=64))
    def test_near_the_poles_of_the_tangent(self, cases):
        x = np.array([_odd_pi_multiple(k, ulps) for k, ulps in cases])
        assert np.abs(_cos_from_half(0.5 * x) - np.cos(x)).max() <= 4 * EPS

    def test_overwrites_its_argument(self):
        h = np.array([0.0, 0.25, -1.0])
        expected = np.cos(2 * h)
        assert _cos_from_half(h) is h
        assert np.abs(h - expected).max() <= 4 * EPS
        assert h[0] == 1.0


def _doubled(x: np.ndarray, k: int) -> np.ndarray:
    """cos(2^k x) as the estimator takes it along a chain of diameters: the
    tangent's cos x, then k in-place doublings c <- 2 c^2 - 1."""
    c = _cos_from_half(0.5 * x)
    for _ in range(k):
        assert _double_cos(c) is c
    return c


class TestDoubledCosine:
    """Each doubling can multiply the absolute error by 4 (d(2c^2)/dc = 4c),
    so k doublings of the tangent's few-eps cosines stay within 5 4^k eps."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-1e15, 1e15), min_size=1, max_size=64),
           st.integers(1, MAX_DOUBLINGS))
    def test_within_5_4k_eps_of_cos(self, xs, k):
        x = np.array(xs)
        gap = np.abs(_doubled(x, k) - np.cos(2.0**k * x)).max()
        assert gap <= 5 * 4**k * EPS

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(-10**12, 10**12), st.integers(-4, 4)),
                    min_size=1, max_size=64),
           st.integers(1, MAX_DOUBLINGS))
    def test_near_the_poles_of_the_tangent(self, cases, k):
        x = np.array([_odd_pi_multiple(j, ulps) for j, ulps in cases])
        gap = np.abs(_doubled(x, k) - np.cos(2.0**k * x)).max()
        assert gap <= 5 * 4**k * EPS
