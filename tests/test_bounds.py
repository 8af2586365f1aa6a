"""Tests for the closed-form bound and count formulas."""
import math

import pytest

from quadfeat.bounds import counts, poly_bound, sparse_bound, subgaussian_parameter
from quadfeat.featuremaps import FeatureMap
from quadfeat.grids import dense_grid, exactness_residual
from quadfeat.harness import error_stats
from quadfeat.kernels import GaussianKernel


class TestPolyBound:
    def test_zero_diameter(self):
        assert poly_bound(1.0, 0.0, 4) == 0.0

    def test_degree_two(self):
        assert poly_bound(1.0, 1.0, 2) == pytest.approx(4.077422742688568)

    def test_degree_ten_small_region(self):
        assert poly_bound(1.0, 0.5, 10) == pytest.approx(4.348041770583296e-06)

    @pytest.mark.parametrize("R", [1, 3, 7, 0])
    def test_odd_or_small_degree_rejected(self, R):
        with pytest.raises(ValueError):
            poly_bound(1.0, 1.0, R)

    def test_decreasing_in_R_past_the_knee(self):
        b, M = 1.0, 0.8
        knee = math.e * b * b * M * M
        values = [poly_bound(b, M, R) for R in range(2, 30, 2)
                  if R > knee]
        assert all(x > y for x, y in zip(values, values[1:]))


class TestSparseBound:
    def test_zero_diameter(self):
        assert sparse_bound(1.0, 0.0, 7, 2) == 0.0

    def test_reference_value(self):
        # A = 7 >= 24 e (0.1)^2 ~= 0.65, so the bound applies
        assert sparse_bound(1.0, 0.1, 7, 2) == pytest.approx(
            1.9085511638975565e-09)

    def test_not_applicable_marker(self):
        # A = 2 < 24 e for M = 1
        assert sparse_bound(1.0, 1.0, 2, 25) is None


class TestCounts:
    def test_constraint_count_anchor(self):
        assert counts(25, 2, 0, 1)[0] == 351

    def test_sparse_bound_anchor(self):
        bound = counts(25, 0, 2, 1)[2]
        assert bound == 3159
        assert 1351 <= bound

    def test_dense_count(self):
        assert counts(3, 0, 0, 1)[1] == 1
        assert counts(3, 0, 0, 7)[1] == 343

    def test_big_integers_stay_exact(self):
        c, dense, sparse = counts(100, 10, 12, 50)
        assert c == math.comb(110, 100)
        assert dense == 50**100
        assert sparse == 3**12 * math.comb(112, 12)


def test_subgaussian_parameter():
    assert subgaussian_parameter(0.5) == 1.0
    assert subgaussian_parameter(2.0) == 2.0
    with pytest.raises(ValueError):
        subgaussian_parameter(0.0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_refused(x):
    # checks written as `b <= 0 or M < 0` let nan and inf through, to come
    # back as a nan or inf bound, or as None ("outside the regime")
    with pytest.raises(ValueError, match="gamma"):
        subgaussian_parameter(x)
    for args in ((x, 1.0), (1.0, x)):
        with pytest.raises(ValueError, match="finite"):
            poly_bound(*args, 2)
        with pytest.raises(ValueError, match="finite"):
            sparse_bound(*args, 3, 2)


def test_bound_dominates_dense_grid_error():
    # property at small scale; the acceptance suite runs the full set
    kernel = GaussianKernel(0.5)
    for L, d in [(2, 1), (3, 2), (4, 2)]:
        R = 2 * L - 2
        M = math.sqrt(0.3 * R / math.e)
        g = dense_grid(L, d)
        assert exactness_residual(g, R) <= 1e-8
        fm = FeatureMap(g, "dense", 0.5)
        bound = poly_bound(1.0, M, R)
        assert bound <= 1.0
        assert error_stats(fm, kernel, M, 20_000, seed=0)[0] <= bound
