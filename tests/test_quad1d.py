"""Tests for the one-dimensional quadrature layer."""
import math

import numpy as np
import pytest

from quadfeat.quad1d import (
    QuadratureRule1D,
    double_factorial,
    gauss_hermite,
    integrate_1d,
    normal_moment,
)


def sturm_eigenvalues(diag, off, tol=1e-12):
    """Independent oracle: bisection driven by Sturm sign counts."""
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    n = diag.size

    def count_below(x):
        # negatives of the LDL^T pivots count eigenvalues below x
        count = 0
        q = diag[0] - x
        if q < 0:
            count += 1
        for k in range(1, n):
            denom = q if q != 0.0 else 1e-300
            q = diag[k] - x - off[k - 1] ** 2 / denom
            if q < 0:
                count += 1
        return count

    radius = np.abs(diag).max() + (2 * np.abs(off).max() if off.size else 0.0)
    eigs = []
    for idx in range(n):
        lo, hi = -radius - 1.0, radius + 1.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if count_below(mid) <= idx:
                lo = mid
            else:
                hi = mid
        eigs.append(0.5 * (lo + hi))
    return np.array(eigs)


def christoffel_weights(nodes, L):
    """Independent oracle: w_l = 1 / sum_{k<L} He_k(x_l)^2 / k!.

    Uses the orthonormal polynomials p_k = He_k / sqrt(k!), whose
    recurrence p_k = (x p_{k-1} - sqrt(k-1) p_{k-2}) / sqrt(k) keeps the
    terms finite up to L = 200.
    """
    out = []
    for x in nodes:
        x = float(x)
        prev, cur, total = 0.0, 1.0, 1.0
        for k in range(1, L):
            prev, cur = cur, (x * cur - math.sqrt(k - 1) * prev) / math.sqrt(k)
            total += cur * cur
        out.append(1.0 / total)
    return np.array(out)


class TestGaussHermite:
    def test_one_point_rule_is_the_mean(self):
        rule = gauss_hermite(1)
        np.testing.assert_allclose(rule.nodes, [0.0])
        np.testing.assert_allclose(rule.weights, [1.0])

    def test_two_point_rule(self):
        # moment equations: 2w = 1, 2w x^2 = 1  =>  x = 1, w = 1/2
        rule = gauss_hermite(2)
        np.testing.assert_allclose(rule.nodes, [-1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(rule.weights, [0.5, 0.5], atol=1e-14)

    def test_three_point_rule(self):
        # moment equations up to degree 5: nodes 0, +-sqrt(3), weights 2/3, 1/6
        rule = gauss_hermite(3)
        np.testing.assert_allclose(rule.nodes, [-math.sqrt(3), 0.0, math.sqrt(3)],
                                   atol=1e-14)
        np.testing.assert_allclose(rule.weights, [1 / 6, 2 / 3, 1 / 6], atol=1e-14)

    @pytest.mark.parametrize("L", [0, -3, 201])
    def test_size_bounds(self, L):
        with pytest.raises(ValueError):
            gauss_hermite(L)

    @pytest.mark.parametrize("L", range(1, 21))
    def test_exactness_through_degree_2L_minus_1(self, L):
        rule = gauss_hermite(L)
        for p in range(2 * L):
            got = integrate_1d(rule, lambda w: w**p)
            target = normal_moment(p)
            # scale odd (zero-target) cases by (p-1)!!, the summand size
            scale = max(1.0, double_factorial(p - 1))
            assert abs(got - target) <= 1e-9 * scale

    @pytest.mark.parametrize("L", range(1, 21))
    def test_degree_2L_failure_equals_L_factorial(self, L):
        # Gauss error for f = w^{2L} is the squared norm of the monic
        # orthogonal polynomial, which is L! for the normal weight
        rule = gauss_hermite(L)
        err = normal_moment(2 * L) - integrate_1d(rule, lambda w: w ** (2 * L))
        assert err >= 0.5 * math.factorial(L)
        np.testing.assert_allclose(err, math.factorial(L), rtol=1e-6)

    @pytest.mark.parametrize("L", range(1, 201))
    def test_symmetry(self, L):
        rule = gauss_hermite(L)
        assert np.array_equal(rule.nodes, -rule.nodes[::-1])
        assert np.array_equal(rule.weights, rule.weights[::-1])

    @pytest.mark.parametrize("L", [2, 5, 20, 40])
    def test_nodes_match_sturm_oracle(self, L):
        # Jacobi matrix of the normal weight: diagonal 0, off-diagonal sqrt(k)
        expected = sturm_eigenvalues(np.zeros(L), np.sqrt(np.arange(1.0, L)))
        np.testing.assert_allclose(gauss_hermite(L).nodes, expected, atol=1e-10)

    @pytest.mark.parametrize("L", [2, 5, 20, 40, 200])
    def test_weights_match_christoffel_oracle(self, L):
        rule = gauss_hermite(L)
        assert rule.weights.min() > 0
        np.testing.assert_allclose(rule.weights,
                                   christoffel_weights(rule.nodes, L),
                                   rtol=1e-12, atol=0)

    def test_weights_positive_and_normalized(self):
        for L in (1, 7, 40, 200):
            rule = gauss_hermite(L)
            assert (rule.weights > 0).all()
            assert abs(rule.weights.sum() - 1.0) <= 1e-12

    def test_largest_rule_still_integrates_accurately(self):
        rule = gauss_hermite(200)
        for p in (2, 10, 30):
            got = integrate_1d(rule, lambda w: w**p)
            assert got == pytest.approx(normal_moment(p), rel=1e-9)


class TestIntegrate1D:
    def test_constant(self):
        assert integrate_1d(gauss_hermite(2), lambda w: np.ones_like(w)) == pytest.approx(1.0)

    def test_odd_power_vanishes(self):
        assert integrate_1d(gauss_hermite(2), lambda w: w**3) == pytest.approx(0.0, abs=1e-12)

    def test_fourth_moment(self):
        # 4 <= 2*3 - 1, so the L=3 rule hits E[w^4] = 3 exactly
        assert integrate_1d(gauss_hermite(3), lambda w: w**4) == pytest.approx(3.0)

    def test_result_not_one_per_node_refused(self):
        with pytest.raises(ValueError, match=r"shape \(\)"):
            integrate_1d(gauss_hermite(4), lambda w: 1.0)


def test_double_factorial_values():
    assert [double_factorial(n) for n in (-1, 0, 1, 3, 5, 7)] == [1, 1, 1, 3, 15, 105]


def test_rule_validation_rejects_bad_weights():
    with pytest.raises(ValueError):
        QuadratureRule1D(np.array([0.0, 1.0]), np.array([0.7, 0.2]))
    with pytest.raises(ValueError):
        QuadratureRule1D(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
