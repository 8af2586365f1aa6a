"""Tests for dense, sparse, and subsampled grid constructions."""
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import hermite_e

from quadfeat import grids
from quadfeat.errors import GridSizeError
from quadfeat.grids import (
    MERGE_DECIMALS,
    GridQuadrature,
    dense_grid,
    exactness_residual,
    fold_twins,
    grid_from_json,
    grid_to_json,
    hermite_matrix,
    load_grid,
    moment_multi_indices,
    moment_targets,
    monomial_matrix,
    save_grid,
    sparse_grid,
    subsample_dense_grid,
    subsample_grid,
)
from quadfeat.quad1d import gauss_hermite
from quadfeat.solvers import construct_poly_exact


class TestDenseGrid:
    def test_single_point(self):
        g = dense_grid(1, 3)
        np.testing.assert_allclose(g.points, [[0.0, 0.0, 0.0]])
        np.testing.assert_allclose(g.weights, [1.0])

    def test_two_by_two(self):
        g = dense_grid(2, 2)
        corners = sorted(map(tuple, np.round(g.points, 12)))
        assert corners == [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]
        np.testing.assert_allclose(g.weights, 0.25)

    def test_three_by_two_weights(self):
        g = dense_grid(3, 2)
        assert g.count == 9
        products = sorted(
            w1 * w2 for w1, w2 in itertools.product([1 / 6, 2 / 3, 1 / 6],
                                                    [1 / 6, 2 / 3, 1 / 6]))
        np.testing.assert_allclose(sorted(g.weights), products, rtol=1e-12)
        assert g.weights.sum() == pytest.approx(1.0)

    def test_cap_error_names_the_size(self):
        with pytest.raises(GridSizeError) as exc:
            dense_grid(10, 9, cap=10**6)
        assert exc.value.requested == 10**9
        assert "1000000000" in str(exc.value)

    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_exactness_to_degree_2L_minus_1(self, L, d):
        assert exactness_residual(dense_grid(L, d), 2 * L - 1) <= 1e-9

    @pytest.mark.parametrize("L,d", [(1, 1), (1, 4), (2, 5), (3, 3), (4, 2),
                                     (5, 4), (8, 3)])
    def test_matches_meshgrid_construction(self, L, d):
        # the tensor builder against the meshgrid stack and outer products
        rule = gauss_hermite(L)
        mesh = np.meshgrid(*([rule.nodes] * d), indexing="ij")
        weights = rule.weights
        for _ in range(d - 1):
            weights = np.multiply.outer(weights, rule.weights)
        g = dense_grid(L, d)
        np.testing.assert_array_equal(g.points, np.stack([m.ravel() for m in mesh],
                                                         axis=1))
        np.testing.assert_array_equal(g.weights, weights.ravel())


def reference_sparse_accumulation(A, d):
    """Independent signed accumulation over difference-term branches.

    A point is dropped only when its terms cancel, to rounding of the sum of
    their magnitudes; a small weight that nothing cancels is kept.
    """
    acc, scale = {}, {}
    levels = [m for m in itertools.product(range(A + 1), repeat=d)
              if sum(m) <= A]
    for m in levels:
        branches = []
        for mi in m:
            if mi == 0:
                branches.append([(gauss_hermite(1), 1.0)])
            else:
                branches.append([(gauss_hermite(2**mi), 1.0),
                                 (gauss_hermite(2 ** (mi - 1)), -1.0)])
        for combo in itertools.product(*branches):
            sign = math.prod(s for _, s in combo)
            rules = [r for r, _ in combo]
            for nodes_idx in itertools.product(*(range(r.point_count)
                                                 for r in rules)):
                point = tuple(float(rules[j].nodes[nodes_idx[j]])
                              for j in range(d))
                w = sign * math.prod(rules[j].weights[nodes_idx[j]]
                                     for j in range(d))
                acc[point] = acc.get(point, 0.0) + w
                scale[point] = scale.get(point, 0.0) + abs(w)
    return {k: v for k, v in acc.items() if abs(v) > 1e-13 * scale[k]}


class TestSparseGrid:
    def test_level_zero_is_the_origin(self):
        for d in (1, 3, 10):
            g = sparse_grid(0, d)
            assert g.count == 1
            np.testing.assert_allclose(g.points, np.zeros((1, d)))
            np.testing.assert_allclose(g.weights, [1.0])

    def test_one_dimensional_telescoping(self):
        # G^1 + (G^2 - G^1) + ... + (G^(2^A) - G^(2^(A-1))) collapses to
        # G^(2^A) exactly, down to its smallest outer weights
        for A in range(8):
            g = sparse_grid(A, 1)
            rule = gauss_hermite(2**A)
            np.testing.assert_array_equal(g.points.ravel(), rule.nodes)
            np.testing.assert_array_equal(g.weights, rule.weights)

    def test_keeps_every_point_of_the_rule(self):
        g = sparse_grid(6, 2)
        assert g.count == 640
        largest = np.abs(moment_targets(moment_multi_indices(2, 20))).max()
        assert exactness_residual(g, 20) <= 1e-12 * largest

    def test_count_anchor_d25_A2(self):
        g = sparse_grid(2, 25)
        assert g.count == 1351
        assert g.count <= (3**2) * math.comb(27, 2)
        assert g.weights.sum() == pytest.approx(1.0, abs=1e-10)
        assert not g.nonnegative

    @pytest.mark.parametrize("A,d", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2),
                                     (3, 2), (2, 3), (1, 4), (2, 4), (3, 3),
                                     (3, 4), (4, 2), (5, 2), (7, 1)])
    def test_matches_reference_accumulation(self, A, d):
        g = sparse_grid(A, d)
        ref = reference_sparse_accumulation(A, d)
        assert g.count == len(ref)
        for point, weight in zip(g.points, g.weights):
            assert ref[tuple(point)] == pytest.approx(weight, abs=1e-12)

    @pytest.mark.parametrize("A", [1, 2, 3])
    def test_one_dim_kernel_estimate_matches_gauss_hermite(self, A):
        g = sparse_grid(A, 1)
        rule = gauss_hermite(2**A)
        u = 3.0 * np.random.default_rng(0).standard_normal(100)
        for ui in u:
            sparse_val = float(np.cos(ui * g.points.ravel()) @ g.weights)
            rule_val = float(np.cos(ui * rule.nodes) @ rule.weights)
            assert abs(sparse_val - rule_val) <= 1e-10

    def test_smolyak_level_one_exact_to_degree_two(self):
        assert exactness_residual(sparse_grid(1, 2), 2) <= 1e-10

    def test_mid_scale_level_three(self):
        g = sparse_grid(3, 10)
        assert g.weights.sum() == pytest.approx(1.0, abs=1e-10)
        assert g.count <= (3**3) * math.comb(13, 3)
        # level 3 matches all moments of total degree <= 3 and more
        assert exactness_residual(g, 3) <= 1e-9

    def test_level_bound(self):
        with pytest.raises(ValueError):
            sparse_grid(8, 2)

    def test_point_cap(self):
        with pytest.raises(GridSizeError) as exc:
            sparse_grid(3, 8, cap=50)
        assert exc.value.requested == sparse_grid(3, 8).count

    @pytest.mark.parametrize("A", [0, 1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_exactness_to_degree_2A_plus_1(self, A, d):
        assert exactness_residual(sparse_grid(A, d), 2 * A + 1) <= 1e-9


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_moment_multi_indices_are_the_filtered_product(d):
    for R in range(7):
        assert moment_multi_indices(d, R) == [
            r for r in itertools.product(range(R + 1), repeat=d) if sum(r) <= R]


class TestExactnessResidual:
    def test_dense_degree_three(self):
        assert exactness_residual(dense_grid(2, 3), 3) <= 1e-10

    def test_single_point_misses_variance(self):
        # the origin-only rule gets E[w^2] = 1 wrong by exactly 1
        assert exactness_residual(dense_grid(1, 2), 2) == pytest.approx(1.0)

    def test_constraint_cap(self):
        with pytest.raises(GridSizeError):
            exactness_residual(dense_grid(2, 3), 40, cap=100)


def hermite_change_of_rows(indices):
    """T with T[r, s] = prod_l c[r_l, s_l], c[k, j] the x^j coefficient of
    He_k / sqrt(k!) from numpy's Hermite_e series: the normalized Hermite
    rows as combinations of the monomial rows."""
    top = max((max(r) for r in indices), default=0) + 1
    c = np.zeros((top, top))
    for k in range(top):
        c[k, :k + 1] = hermite_e.herme2poly(np.eye(top)[k])[:k + 1] / math.sqrt(
            math.factorial(k))
    return np.array([[math.prod(c[rl, sl] for rl, sl in zip(r, s)) for s in indices]
                     for r in indices])


class TestHermiteMatrix:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_triangular_change_of_the_monomial_rows(self, d):
        points = np.random.default_rng(d).standard_normal((40, d))
        for R in range(7):
            indices = moment_multi_indices(d, R)
            T = hermite_change_of_rows(indices)
            degree = np.array([sum(r) for r in indices])
            # lower triangular by total degree, with a nonzero diagonal: invertible
            assert (T[degree[:, None] < degree[None, :]] == 0.0).all()
            same = degree[:, None] == degree[None, :]
            assert (T[same] == np.diag(np.diag(T))[same]).all()
            assert (np.diag(T) != 0.0).all()
            np.testing.assert_allclose(hermite_matrix(points, indices),
                                       T @ monomial_matrix(points, indices),
                                       rtol=1e-12, atol=1e-11)
            e0 = np.zeros(len(indices))
            e0[0] = 1.0
            np.testing.assert_allclose(T @ moment_targets(indices), e0,
                                       rtol=0, atol=1e-12)

    def test_orthonormal_under_an_exact_rule(self):
        # the 6-point Gauss rule is exact to degree 11 per coordinate, so the
        # rows of total degree <= 5 are orthonormal against its weights
        g = dense_grid(6, 2)
        H = hermite_matrix(g.points, moment_multi_indices(2, 5))
        np.testing.assert_allclose((H * g.weights) @ H.T, np.eye(H.shape[0]),
                                   rtol=0, atol=1e-14)


class TestSubsample:
    def test_single_point_grid(self):
        g = GridQuadrature(np.array([[1.5, -0.5]]), np.array([1.0]))
        for D in (1, 5, 50):
            s = subsample_grid(g, D, seed=0)
            assert s.count == 1
            np.testing.assert_allclose(s.weights, [1.0])
            np.testing.assert_allclose(s.points, g.points)

    def test_negative_weights_rejected(self):
        g = sparse_grid(2, 2)
        assert not g.nonnegative
        with pytest.raises(ValueError):
            subsample_grid(g, 10, seed=0)

    def test_weights_uniform_or_merged_and_normalized(self):
        g = dense_grid(3, 2)
        s = subsample_grid(g, 100, seed=5)
        assert abs(s.weights.sum() - 1.0) <= 1e-12
        assert (s.weights > 0).all()
        # every weight is a multiple of 1/D
        np.testing.assert_allclose(np.round(s.weights * 100), s.weights * 100)

    def test_categorical_frequencies(self):
        # 4 draws repeated many times should reproduce the grid weights
        g = dense_grid(3, 2)
        total = np.zeros(g.count)
        draws = 0
        for rep in range(25_000):
            s = subsample_grid(g, 4, seed=rep)
            for point, w in zip(s.points, s.weights):
                idx = np.flatnonzero((g.points == point).all(axis=1))[0]
                total[idx] += w * 4
            draws += 4
        freq = total / draws
        se = np.sqrt(g.weights * (1 - g.weights) / draws)
        assert (np.abs(freq - g.weights) <= 3 * se + 1e-12).all()

    def test_unbiased_kernel_estimate(self):
        # averaging the subsampled estimate over seeds recovers the grid's own
        g = dense_grid(3, 2)
        u = np.array([0.7, -0.4])
        grid_value = float(np.cos(g.points @ u) @ g.weights)
        estimates = []
        for seed in range(500):
            s = subsample_grid(g, 20, seed=seed)
            estimates.append(float(np.cos(s.points @ u) @ s.weights))
        estimates = np.asarray(estimates)
        se = estimates.std(ddof=1) / math.sqrt(len(estimates))
        assert abs(estimates.mean() - grid_value) <= 3 * se

    def test_lattice_subsample_matches_explicit_in_distribution(self):
        # per-coordinate marginals follow the one-dimensional weights
        rule = gauss_hermite(3)
        s = subsample_dense_grid(3, 2, 40_000, seed=9)
        for j in range(2):
            for node, w in zip(rule.nodes, rule.weights):
                mass = s.weights[np.isclose(s.points[:, j], node)].sum()
                se = math.sqrt(w * (1 - w) / 40_000)
                assert abs(mass - w) <= 4 * se

    def test_lattice_subsample_huge_grid(self):
        # L^d far beyond the materialization cap still subsamples fine
        s = subsample_dense_grid(8, 40, 500, seed=1)
        assert s.count <= 500
        assert abs(s.weights.sum() - 1.0) <= 1e-12


def test_grid_serialization_round_trip(tmp_path):
    g = sparse_grid(2, 3)
    back = grid_from_json(grid_to_json(g))
    np.testing.assert_array_equal(back.points, g.points)
    np.testing.assert_array_equal(back.weights, g.weights)
    assert back.nonnegative == g.nonnegative
    assert back.provenance == g.provenance


def test_save_grid_load_grid_round_trip(tmp_path):
    g = construct_poly_exact(2, 4, 120, seed=15)
    path = tmp_path / "grid.json"
    save_grid(g, str(path))
    assert path.read_text() == json.dumps(grid_to_json(g))
    back = load_grid(str(path))
    np.testing.assert_array_equal(back.points, g.points)
    np.testing.assert_array_equal(back.weights, g.weights)
    assert back.provenance == g.provenance


def test_empty_grid_round_trip():
    empty = GridQuadrature(np.zeros((0, 3)), np.zeros(0), normalized=False)
    back = grid_from_json(grid_to_json(empty))
    assert back.count == 0
    assert back.d == 3
    assert back.nonnegative


def test_duplicate_points_rejected():
    with pytest.raises(ValueError):
        GridQuadrature(np.array([[1.0], [1.0]]), np.array([0.5, 0.5]))


def lexsort_check(points):
    """The duplicate-row check by lexicographic sort: True if the rows are
    distinct after rounding to MERGE_DECIMALS."""
    if points.shape[0] < 2:
        return True
    rounded = np.round(points, MERGE_DECIMALS)
    srt = rounded[np.lexsort(rounded.T[::-1])]
    return not (np.abs(np.diff(srt, axis=0)).max(axis=1) == 0.0).any()


def accepts(points):
    try:
        grids._check_unique_rows(points)
    except ValueError:
        return False
    return True


class TestUniqueRows:
    """The one-pass check for sorted rows against the lexsort check."""

    @pytest.mark.parametrize("g", [dense_grid(3, 4), dense_grid(2, 6),
                                   sparse_grid(3, 3), sparse_grid(2, 25)],
                             ids=["dense-3-4", "dense-2-6", "sparse-3-3",
                                  "sparse-2-25"])
    def test_structured_grids_take_the_one_pass(self, g):
        assert grids._strictly_increasing(np.round(g.points, MERGE_DECIMALS))
        reordered = g.points[::-1]
        assert not grids._strictly_increasing(np.round(reordered, MERGE_DECIMALS))
        assert accepts(reordered) and lexsort_check(reordered)

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                         min_size=0, max_size=12),
           order=st.sampled_from(["sorted", "as drawn"]),
           nudge=st.sampled_from([0.0, 1e-14, 1e-9]),
           seed=st.integers(0, 2**32 - 1))
    def test_accepts_and_refuses_as_the_lexsort(self, rows, order, nudge, seed):
        # small integer rows collide often; a nudge of 1e-14 vanishes in the
        # rounding to 12 decimals, one of 1e-9 does not
        points = np.array(rows, dtype=float).reshape(-1, 3) / 3.0
        if order == "sorted":
            points = points[np.lexsort(points.T[::-1])]
        rng = np.random.default_rng(seed)
        points = points + nudge * rng.integers(-1, 2, size=points.shape)
        assert accepts(points) == lexsort_check(points)

    def test_rows_equal_only_after_rounding(self):
        a = np.array([[0.1, 0.2], [0.1, 0.2 + 1e-14], [0.3, 0.0]])
        assert not lexsort_check(a)
        assert not accepts(a)
        b = np.array([[0.1, 0.2], [0.1, 0.2 + 1e-9], [0.3, 0.0]])
        assert accepts(b) and lexsort_check(b)
        c = np.array([[-1e-13, 1.0], [0.0, 1.0]])  # -0.0 and 0.0 after rounding
        assert not accepts(c) and not lexsort_check(c)


def first_repeat(points):
    """The pair (i, j), i < j, of the first row j equal to an earlier row i
    after rounding, by a loop over the rows; None if all are distinct."""
    seen = {}
    for j, row in enumerate(np.round(points, MERGE_DECIMALS) + 0.0):
        i = seen.setdefault(row.tobytes(), j)
        if i != j:
            return i, j
    return None


class TestDuplicateRowError:
    """The duplicate-row error names the first row that repeats an earlier one."""

    def refused_pair(self, points):
        try:
            GridQuadrature(points, np.full(len(points), 1.0 / len(points)))
        except ValueError as exc:
            assert str(exc).startswith("duplicate points after merging: rows ")
            i, j = str(exc).split("rows ")[1].split(" are")[0].split(" and ")
            return int(i), int(j)
        return None

    def test_names_the_first_repeat(self):
        points = np.array([[1.0, 2.0], [0.0, 1.0], [3.0, 3.0],
                           [0.0, 1.0 + 1e-14], [3.0, 3.0], [1.0, 2.0]])
        assert self.refused_pair(points) == (1, 3)

    def test_signed_zeros_repeat(self):
        assert self.refused_pair(np.array([[0.5, 0.0], [0.5, -0.0]])) == (0, 1)

    def test_zero_dimensional_rows(self):
        # every row of a d = 0 grid is the empty row
        assert self.refused_pair(np.zeros((2, 0))) == (0, 1)
        assert self.refused_pair(np.zeros((5, 0))) == (0, 1)
        assert GridQuadrature(np.zeros((1, 0)), np.ones(1)).count == 1

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=2),
                         min_size=1, max_size=12),
           nudge=st.sampled_from([0.0, 1e-14, 1e-9]),
           seed=st.integers(0, 2**32 - 1))
    def test_names_the_pair_of_the_row_loop(self, rows, nudge, seed):
        points = np.array(rows, dtype=float) / 3.0
        points += nudge * np.random.default_rng(seed).integers(-1, 2, points.shape)
        assert self.refused_pair(points) == first_repeat(points)


def loop_product_matrix(table, indices):
    """The row loop that formed product matrices before the gathered form:
    ``table`` is (d, degree + 1, D), and each row starts at 1 and takes its
    factors of nonzero degree in coordinate order."""
    out = np.empty((len(indices), table.shape[2]))
    for row, r in enumerate(indices):
        acc = out[row]
        acc[:] = 1.0
        for l, rl in enumerate(r):
            if rl:
                acc *= table[l, rl]
    return out


def loop_monomial_matrix(points, indices):
    D, d = points.shape
    powers = np.ones((d, max(max(r) for r in indices) + 1, D))
    for p in range(1, powers.shape[1]):
        powers[:, p] = powers[:, p - 1] * points.T
    return loop_product_matrix(powers, indices)


def loop_hermite_matrix(points, indices):
    D, d = points.shape
    table = np.ones((d, max(max(r) for r in indices) + 1, D))
    x = points.T
    for k in range(1, table.shape[1]):
        table[:, k] = x * table[:, k - 1]
        if k > 1:
            table[:, k] -= math.sqrt(k - 1) * table[:, k - 2]
            table[:, k] /= math.sqrt(k)
    return loop_product_matrix(table, indices)


def some_exponent_vectors(d, R, seed, count=150):
    """Every exponent vector of total degree <= R when there are at most
    ``count``, else the zero vector and ``count`` random ones, by degree."""
    if math.comb(d + R, d) <= count:
        return moment_multi_indices(d, R)
    rng = np.random.default_rng(seed)
    drawn = {(0,) * d}
    for total in rng.integers(0, R + 1, count):
        drawn.add(tuple(rng.multinomial(total, np.full(d, 1.0 / d)).tolist()))
    return sorted(drawn)


class TestProductMatrix:
    """The gathered product matrices against the row loop, bit for bit."""

    @pytest.mark.parametrize("d", range(1, 26))
    def test_matches_the_row_loop(self, d):
        for R in range(7):
            indices = some_exponent_vectors(d, R, seed=100 * d + R)
            rng = np.random.default_rng(d + 50 * R)
            # more points than one block of the gather takes, and a remainder
            points = rng.standard_normal((grids._block_rows(len(indices)) + 37, d))
            for ours, loop in ((monomial_matrix, loop_monomial_matrix),
                               (hermite_matrix, loop_hermite_matrix)):
                M = ours(points, indices)
                np.testing.assert_array_equal(M, loop(points, indices))
                assert M.T.flags.c_contiguous

    def test_random_table(self):
        # factors of any value, signed zeros included, in any coordinates
        rng = np.random.default_rng(7)
        d, R, D = 6, 5, 300
        table = rng.standard_normal((D, R + 1, d))
        table[rng.random(table.shape) < 0.1] = -0.0
        table[:, 0] = 1.0
        indices = moment_multi_indices(d, R)
        got = grids._product_matrix(table, indices)
        want = loop_product_matrix(table.transpose(2, 1, 0), indices)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    def test_no_rows_and_no_points(self):
        assert grids._product_matrix(np.ones((4, 1, 3)), []).shape == (0, 4)
        assert monomial_matrix(np.zeros((0, 3)), moment_multi_indices(3, 2)).shape \
            == (10, 0)


def unique_rows_subsample(L, d, D, seed):
    """``subsample_dense_grid`` as it was, merging draws by np.unique(axis=0)."""
    rule = gauss_hermite(L)
    rng = np.random.default_rng(seed)
    idx = rng.choice(L, size=(D, d), replace=True, p=rule.weights)
    rows, counts = np.unique(idx, axis=0, return_counts=True)
    return rule.nodes[rows], counts / D


class TestByteRowOrders:
    """Orders taken from rows as byte strings against np.unique and np.lexsort."""

    @pytest.mark.parametrize("L", [2, 8, 200])
    @pytest.mark.parametrize("d,D", [(1, 50), (2, 3000), (5, 1000), (25, 1351)])
    def test_subsample_matches_unique_rows(self, L, d, D):
        for seed in range(3):
            g = subsample_dense_grid(L, d, D, seed)
            points, weights = unique_rows_subsample(L, d, D, seed)
            np.testing.assert_array_equal(g.points, points)
            np.testing.assert_array_equal(g.weights, weights)

    @pytest.mark.parametrize("A,d", [(A, d) for A in range(8) for d in (2, 3)]
                             + [(A, 4) for A in range(6)])
    def test_sparse_points_in_lexsort_order(self, A, d):
        g = sparse_grid(A, d)
        np.testing.assert_array_equal(np.lexsort(g.points.T[::-1]),
                                      np.arange(g.count))

    @pytest.mark.parametrize("L,d", [(3, 2), (4, 3), (2, 6), (200, 1), (15, 2)])
    def test_dense_points_in_lexsort_order(self, L, d):
        g = dense_grid(L, d)
        np.testing.assert_array_equal(np.lexsort(g.points.T[::-1]),
                                      np.arange(g.count))


def reference_fold(points, weights):
    """The set loop that folded reweighting pools before ``fold_twins``,
    with the weights summed: row by row, a row whose negation was kept
    already is dropped, and its weight is added to that row's."""
    kept, weight, position = [], [], {}
    for i, row in enumerate(points + 0.0):  # + 0.0 turns -0.0 into 0.0
        twin = position.get((0.0 - row).tobytes())
        if twin is None:
            position[row.tobytes()] = len(kept)
            kept.append(i)
            weight.append(weights[i])
        else:
            weight[twin] += weights[i]
    return np.array(kept, dtype=np.intp), np.array(weight, dtype=float)


class TestFoldTwins:
    """The sorted fold against the set loop it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(d=st.integers(1, 4),
           rows=st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4),
                         min_size=0, max_size=12),
           planted=st.lists(st.integers(0, 11), max_size=6),
           origin=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_keeps_the_rows_and_sums_the_weights_of_the_set_loop(
            self, d, rows, planted, origin, seed):
        # small integer rows meet their negations often; the planted rows are
        # exact twins of drawn ones, and a zero entry may carry either sign
        rng = np.random.default_rng(seed)
        points = np.array(rows, dtype=float).reshape(-1, 4)[:, :d] / 3.0
        twins = -points[[i for i in planted if i < len(points)]]
        points = np.concatenate([points, twins] + ([np.zeros((1, d))] if origin else []))
        zero = points == 0.0
        points[zero] = np.where(rng.integers(0, 2, zero.sum()) == 1, -0.0, 0.0)
        _, first = np.unique(points + 0.0, axis=0, return_index=True)
        points = points[np.sort(first)]  # the rows of a grid are distinct
        points = points[rng.permutation(len(points))]
        weights = rng.uniform(0.0, 1.0, len(points))
        keep, summed = fold_twins(points, weights)
        expected_keep, expected_weights = reference_fold(points, weights)
        np.testing.assert_array_equal(keep, expected_keep)
        np.testing.assert_array_equal(summed, expected_weights)
        assert keep.dtype == np.intp and summed.dtype == float

    def test_a_rule_and_its_negation_fold_to_the_rule(self):
        # the poly-exact layout [P; -P], [a/2; a/2] gives back (P, a) bitwise
        rng = np.random.default_rng(41)
        P, a = rng.standard_normal((30, 4)), rng.uniform(0.0, 1.0, 30)
        half = 0.5 * a
        keep, summed = fold_twins(np.concatenate([P, -P]), np.concatenate([half, half]))
        np.testing.assert_array_equal(keep, np.arange(30))
        np.testing.assert_array_equal(summed, a)

    def test_origin_and_signed_zeros(self):
        points = np.array([[0.0, -0.0], [-0.0, 1.0], [1.0, 0.0], [0.0, -1.0],
                           [-1.0, -0.0]])
        keep, summed = fold_twins(points, np.array([0.1, 0.2, 0.3, 0.4, 0.5]))
        np.testing.assert_array_equal(keep, [0, 1, 2])
        np.testing.assert_array_equal(summed, [0.1, 0.2 + 0.4, 0.3 + 0.5])

    def test_empty_rule(self):
        keep, summed = fold_twins(np.zeros((0, 3)), np.zeros(0))
        assert keep.shape == summed.shape == (0,)

    @pytest.mark.parametrize("L,d,D,seed,terms", [(8, 3, 400, 0, 48),
                                                 (8, 5, 1000, 0, 363),
                                                 (4, 3, 40, 16, 12),
                                                 (8, 25, 1351, 0, 1351)])
    def test_subsampled_grids(self, L, d, D, seed, terms):
        g = subsample_dense_grid(L, d, D, seed)
        keep, summed = fold_twins(g.points, g.weights)
        assert keep.size == terms
        expected_keep, expected_weights = reference_fold(g.points, g.weights)
        np.testing.assert_array_equal(keep, expected_keep)
        np.testing.assert_array_equal(summed, expected_weights)
