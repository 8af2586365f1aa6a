"""Tests for exact kernel evaluation and ANOVA structure handling."""
import json
import math

import numpy as np
import pytest

from quadfeat.errors import ConfigError
from quadfeat.featuremaps import FeatureMap, rff
from quadfeat.grids import dense_grid
from quadfeat.kernels import (
    AnovaKernel,
    GaussianKernel,
    anova_stats,
    eval_anova,
    eval_gaussian,
    kernel_values,
    load_anova,
    random_anova,
    save_anova,
)


class TestGaussian:
    def test_proper_scaling_at_zero(self):
        assert eval_gaussian(GaussianKernel(0.5), np.zeros(4)) == 1.0

    def test_unit_displacement(self):
        u = np.zeros(7)
        u[2] = 1.0
        assert eval_gaussian(GaussianKernel(0.5), u) == pytest.approx(
            math.exp(-0.5), rel=1e-12)

    def test_length_two_displacement(self):
        u = np.zeros(5)
        u[0] = 2.0
        assert eval_gaussian(GaussianKernel(0.5), u) == pytest.approx(
            math.exp(-2.0), rel=1e-12)

    def test_gamma_positive_required(self):
        with pytest.raises(ValueError):
            GaussianKernel(0.0)

    @pytest.mark.parametrize("gamma", [math.inf, math.nan])
    def test_gamma_finite_required(self, gamma):
        # inf passed a bare `gamma > 0` check and made every value NaN
        with pytest.raises(ValueError, match="finite"):
            GaussianKernel(gamma)
        with pytest.raises(ValueError, match="finite"):
            FeatureMap(dense_grid(2, 2), "dense", gamma)
        with pytest.raises(ValueError, match="finite"):
            rff(2, 8, gamma, 0)


def brute_force_anova(subsets, gamma, x, y):
    total = 0.0
    for S in subsets:
        prod = 1.0
        for i in S:
            prod *= math.exp(-gamma * (x[i - 1] - y[i - 1]) ** 2)
        total += prod
    return total


class TestAnova:
    def test_singletons_at_equal_inputs(self):
        d = 6
        k = AnovaKernel(tuple((i,) for i in range(1, d + 1)), GaussianKernel(0.5), d)
        x = np.arange(d, dtype=float)
        assert eval_anova(k, x, x) == pytest.approx(float(d))

    def test_single_full_subset_equals_gaussian(self):
        d = 4
        k = AnovaKernel((tuple(range(1, d + 1)),), GaussianKernel(0.5), d)
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(d), rng.standard_normal(d)
        assert eval_anova(k, x, y) == pytest.approx(
            eval_gaussian(GaussianKernel(0.5), x - y), rel=1e-12)

    def test_disjoint_pairs_against_hand_expansion(self):
        k = AnovaKernel(((1, 2), (3, 4)), GaussianKernel(0.5), 4)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            assert eval_anova(k, x, y) == pytest.approx(
                brute_force_anova(k.subsets, 0.5, x, y), rel=1e-12)

    def test_dimension_mismatch(self):
        k = AnovaKernel(((1,),), GaussianKernel(0.5), 2)
        with pytest.raises(ValueError):
            eval_anova(k, np.zeros(3), np.zeros(3))

    def test_shift_invariance(self):
        k = random_anova(d=8, m=5, subset_size=3, gamma=0.3, seed=5)
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal(8), rng.standard_normal(8)
        for _ in range(5):
            c = rng.standard_normal(8)
            assert abs(eval_anova(k, x + c, y + c) - eval_anova(k, x, y)) <= 1e-12

    def test_symmetry_and_bound(self):
        k = random_anova(d=8, m=5, subset_size=3, gamma=0.3, seed=6)
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal(8), rng.standard_normal(8)
        assert eval_anova(k, x, y) == eval_anova(k, y, x)
        value = eval_anova(k, x, y)
        assert 0.0 < value <= len(k.subsets)
        assert eval_anova(k, x, x) == pytest.approx(len(k.subsets))

    def test_bound_is_strict_when_any_subset_coordinates_differ(self):
        k = AnovaKernel(((1, 2), (3, 4)), GaussianKernel(0.5), 4)
        x = np.zeros(4)
        y = np.zeros(4)
        y[3] = 0.5  # perturb only the second subset
        assert eval_anova(k, x, y) < len(k.subsets)
        # matching x_S = y_S on every subset restores the maximum
        assert eval_anova(k, x, x) == pytest.approx(2.0)


class TestStats:
    def test_speech_style_structure(self):
        # 50 sub-kernels, each acting on 5 of 40 indices
        k = random_anova(d=40, m=50, subset_size=5, gamma=1.0, seed=9)
        r, delta, m = anova_stats(k)
        assert (r, m) == (5, 50)
        assert delta >= 1

    def test_image_patch_structure(self):
        # 5x5 patches of a 28x28 image: (28 - 5 + 1)^2 = 576 subsets of 25
        subsets = []
        for r0 in range(24):
            for c0 in range(24):
                patch = tuple(1 + (r0 + dr) * 28 + (c0 + dc)
                              for dr in range(5) for dc in range(5))
                subsets.append(patch)
        k = AnovaKernel(tuple(subsets), GaussianKernel(1.0), 784)
        r, _, m = anova_stats(k)
        assert (m, r) == (576, 25)

    def test_smallest_structure(self):
        k = AnovaKernel(((1,),), GaussianKernel(1.0), 1)
        assert anova_stats(k) == (1, 1, 1)


def test_structure_file_round_trip(tmp_path):
    k = random_anova(d=12, m=4, subset_size=3, gamma=0.25, seed=11)
    path = tmp_path / "anova.json"
    save_anova(k, str(path))
    back = load_anova(str(path))
    assert back.subsets == k.subsets
    assert back.d == k.d
    assert back.base.gamma == k.base.gamma


@pytest.mark.parametrize("payload,key", [
    ({"d": 4, "gamma": 0.5}, "subsets"),
    ({"d": 4, "gamma": 0.5, "subsets": 5}, "subsets"),
    ({"d": 4, "gamma": 0.5, "subsets": [[1, 5]]}, "subsets"),
    ({"d": 4, "gamma": 0.5, "subsets": [[1.5]]}, "subsets"),
    ({"d": 4, "gamma": 0.5, "subsets": []}, "subsets"),
    ({"d": "x", "gamma": 0.5, "subsets": [[1]]}, "d"),
    ({"d": 0, "gamma": 0.5, "subsets": [[1]]}, "d"),
    ({"gamma": 0.5, "subsets": [[1]]}, "d"),
    ({"d": 4, "gamma": "0.5", "subsets": [[1]]}, "gamma"),
    ({"d": 4, "gamma": -1.0, "subsets": [[1]]}, "gamma"),
    ({"d": 4, "subsets": [[1]]}, "gamma"),
    ([[1, 2]], "d"),
])
def test_malformed_structure_file_names_its_field(tmp_path, payload, key):
    path = tmp_path / "anova.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError) as exc:
        load_anova(str(path))
    assert exc.value.key == key
    assert repr(key) in str(exc.value)


def test_kernel_values_accepts_callables():
    U = np.random.default_rng(4).standard_normal((10, 3))
    got = kernel_values(lambda u: float(np.cos(u.sum())), U)
    np.testing.assert_allclose(got, np.cos(U.sum(axis=1)))


def test_invalid_subsets_rejected():
    with pytest.raises(ValueError):
        AnovaKernel(((0, 1),), GaussianKernel(1.0), 4)
    with pytest.raises(ValueError):
        AnovaKernel(((1, 5),), GaussianKernel(1.0), 4)
    with pytest.raises(ValueError):
        AnovaKernel((), GaussianKernel(1.0), 4)
