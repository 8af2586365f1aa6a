"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.  Heavy criteria stay at
desk scale (1e5 error samples); the full-scale sample count is a CLI flag
away and does not change any tolerance here.
"""
import math

import numpy as np

from quadfeat.bounds import counts, poly_bound
from quadfeat.featuremaps import (
    FeatureMap,
    anova_compose,
    embed_grid_fast,
    qmc_halton,
    rff,
    subsampled_feature_map,
)
from quadfeat.grids import (
    dense_grid,
    exactness_residual,
    sparse_grid,
    subsample_dense_grid,
    subsample_grid,
)
from quadfeat.harness import (
    build_anova_map,
    error_stats,
    reports_to_csv,
    rms_error,
    sample_pairs,
    strip_timing_columns,
    sweep,
    synthetic_mixture,
)
from quadfeat.kernels import AnovaKernel, GaussianKernel, eval_anova, random_anova
from quadfeat.quad1d import double_factorial, gauss_hermite, integrate_1d, normal_moment
from quadfeat.solvers import construct_poly_exact, nnls, reweight

from test_solvers import brute_force_nnls_objective, kkt_residuals


def _line(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"acceptance {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed {suffix}"


def test_01_gauss_hermite_exactness():
    worst = 0.0
    for L in range(1, 21):
        rule = gauss_hermite(L)
        for p in range(2 * L):
            err = abs(integrate_1d(rule, lambda w: w**p) - normal_moment(p))
            worst = max(worst, err / (1e-9 * max(1.0, double_factorial(p - 1))))
        # degree 2L must be visibly inexact (the gap is exactly L!)
        gap = normal_moment(2 * L) - integrate_1d(rule, lambda w: w ** (2 * L))
        if not gap >= 0.5 * math.factorial(L):
            _line(1, "gauss-hermite exactness", False,
                  f"degree-{2 * L} moment not inexact at L={L}")
    _line(1, "gauss-hermite exactness", worst <= 1.0,
          f"worst scaled moment error {worst:.3e} of allowance")


def test_02_sparse_grid_count_anchor():
    g = sparse_grid(2, 25)
    bound = counts(25, 0, 2, 1)[2]
    ok = g.count == 1351 and g.count <= bound == 3159
    _line(2, "sparse-grid count anchor", ok,
          f"D={g.count}, bound={bound}")


def test_03_one_dimensional_telescoping():
    rng = np.random.default_rng(0)
    u = 3.0 * rng.standard_normal(100)
    worst = 0.0
    for A in (1, 2, 3):
        g = sparse_grid(A, 1)
        rule = gauss_hermite(2**A)
        for ui in u:
            a = float(np.cos(ui * g.points.ravel()) @ g.weights)
            b = float(np.cos(ui * rule.nodes) @ rule.weights)
            worst = max(worst, abs(a - b))
    _line(3, "one-dimensional telescoping", worst <= 1e-10,
          f"worst |k~ difference| {worst:.2e}")


def test_04_poly_exact_beats_rff():
    kernel = GaussianKernel(0.5)
    wins, residuals = 0, []
    for seed in range(5):
        g = construct_poly_exact(25, 2, 1000, seed=seed)
        residuals.append(exactness_residual(g, 2))
        pe = FeatureMap(g, "poly_exact", 0.5)
        rf = rff(25, 1000, 0.5, seed=seed)
        e_pe = error_stats(pe, kernel, 0.25, 100_000, seed=seed)[0]
        e_rf = error_stats(rf, kernel, 0.25, 100_000, seed=seed)[0]
        if e_rf >= 2.0 * e_pe:
            wins += 1
    ok = wins >= 4 and max(residuals) <= 1e-8
    _line(4, "polynomially-exact vs RFF", ok,
          f"wins {wins}/5, worst residual {max(residuals):.2e}")


def test_05_sparse_grid_crossover():
    kernel = GaussianKernel(0.5)
    sg = FeatureMap(sparse_grid(2, 25), "sparse", 0.5)
    rf = rff(25, sg.count, 0.5, seed=0)
    wins = {M: None for M in (0.1, 0.25, 0.4)}
    losses = {M: None for M in (1.6, 2.0)}
    for M in list(wins) + list(losses):
        e_sg = error_stats(sg, kernel, M, 100_000, seed=1)[0]
        e_rf = error_stats(rf, kernel, M, 100_000, seed=1)[0]
        if M in wins:
            wins[M] = e_sg < e_rf
        else:
            losses[M] = e_sg > e_rf
    ok = all(wins.values()) and all(losses.values())
    _line(5, "sparse-grid crossover", ok,
          f"wins at small M {wins}, losses at large M {losses}")


def test_06_subsampled_grid_parity():
    kernel = GaussianKernel(0.5)
    ratios = []
    for D in (500, 1000):
        ss = subsampled_feature_map(8, 25, D, 0.5, seed=3)
        rf = rff(25, D, 0.5, seed=3)
        for M in (0.5, 1.0, 2.0, 3.0):
            e_ss = error_stats(ss, kernel, M, 100_000, seed=4)[0]
            e_rf = error_stats(rf, kernel, M, 100_000, seed=4)[0]
            ratios.append(e_ss / e_rf)
    ok = all(0.5 <= r <= 2.0 for r in ratios)
    _line(6, "subsampled-grid parity", ok,
          f"ratio range [{min(ratios):.2f}, {max(ratios):.2f}]")


def test_07_theorem_bound_dominance():
    kernel = GaussianKernel(0.5)  # unit spectrum, b = 1
    rules = []
    for L in (2, 3, 4, 5):
        for d in (1, 2, 3):
            rules.append((dense_grid(L, d), 2 * L - 2))
    for d, R, D, seed in [(1, 2, 40, 0), (1, 4, 60, 1), (1, 6, 100, 2),
                          (2, 2, 60, 3), (2, 4, 200, 4), (2, 6, 400, 5),
                          (3, 2, 100, 6), (3, 4, 400, 7)]:
        rules.append((construct_poly_exact(d, R, D, seed=seed), R))
    assert len(rules) == 20
    violations = []
    for g, R in rules:
        if exactness_residual(g, R) > 1e-8:
            violations.append((g.provenance, "exactness"))
            continue
        M = math.sqrt(0.3 * R / math.e)
        bound = poly_bound(1.0, M, R)
        assert bound <= 1.0
        fm = FeatureMap(g, "dense" if "dense" in g.provenance else "poly_exact", 0.5)
        err = error_stats(fm, kernel, M, 20_000, seed=9)[0]
        if err > bound:
            violations.append((g.provenance, err / bound))
    _line(7, "error-bound dominance", not violations,
          f"{len(rules)} rules checked, violations: {violations}")


def test_08_nnls_correctness():
    rng = np.random.default_rng(100)
    worst_gap = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        p = int(rng.integers(1, 6))
        M = rng.standard_normal((n, p))
        b = rng.standard_normal(n)
        sol = nnls(M, b)
        gap = abs(sol.residual_norm**2 - brute_force_nnls_objective(M, b))
        worst_gap = max(worst_gap, gap)
    worst_kkt = 0.0
    for n, p in [(40, 60), (120, 200), (100, 350), (200, 500)]:
        M = rng.standard_normal((n, p))
        b = rng.standard_normal(n)
        sol = nnls(M, b)
        on, off = kkt_residuals(M, b, sol.a, np.linalg.norm(M.T @ b))
        worst_kkt = max(worst_kkt, on, off)
    ok = worst_gap <= 1e-9 and worst_kkt <= 1e-8
    _line(8, "nnls correctness", ok,
          f"oracle gap {worst_gap:.2e}, kkt {worst_kkt:.2e}")


def test_09_reweighted_beats_rff():
    ds = synthetic_mixture(10_000, seed=123, d=40)
    kernel = random_anova(d=40, m=50, subset_size=5, gamma=0.1, seed=7)
    D_S = 2000 // 50  # candidate pool per subset is 4x this
    wins = 0
    ratios = []
    for seed in range(10):
        fit = build_anova_map(kernel, "reweighted", D_S, seed, data=ds,
                              pairs=500)
        base = build_anova_map(kernel, "rff", D_S, seed)
        held = sample_pairs(ds, 2000, seed=seed + 50_000)
        r_fit = rms_error(fit, kernel, held)
        r_rff = rms_error(base, kernel, held)
        ratios.append(r_rff / r_fit)
        wins += r_rff >= 1.3 * r_fit
    _line(9, "reweighted quadrature vs RFF", wins >= 8,
          f"wins {wins}/10, ratios {min(ratios):.2f}..{max(ratios):.2f}")


def _nonnegative_maps():
    rng = np.random.default_rng(11)
    pool = subsample_dense_grid(4, 2, 80, seed=11)
    X = rng.standard_normal((120, 2))
    Y = rng.standard_normal((120, 2))
    reweighted = reweight(pool, (X, Y), GaussianKernel(0.5))
    return [
        ("rff", rff(3, 500, 0.5, seed=11)),
        ("qmc", qmc_halton(3, 500, 0.5)),
        ("dense", FeatureMap(dense_grid(4, 3), "dense", 0.5)),
        ("subsampled", subsampled_feature_map(8, 3, 500, 0.5, seed=11)),
        ("poly_exact", FeatureMap(construct_poly_exact(2, 4, 150, seed=11),
                                  "poly_exact", 0.5)),
        ("reweighted", FeatureMap(reweighted, "reweighted", 0.5)),
    ]


def test_10_embedding_identity():
    rng = np.random.default_rng(12)
    worst = 0.0
    for name, fm in _nonnegative_maps():
        for _ in range(1000):
            x = rng.standard_normal(fm.d)
            y = rng.standard_normal(fm.d)
            gap = abs(fm.embed(x) @ fm.embed(y) - fm.approx_kernel(x, y))
            worst = max(worst, gap)
    grid_map = FeatureMap(subsample_grid(dense_grid(3, 3), 70, seed=13),
                          "subsampled", 0.5)
    X = rng.standard_normal((100, 3))
    fast_dev = float(np.abs(embed_grid_fast(grid_map, X)
                            - grid_map.embed_batch(X)).max())
    ok = worst <= 1e-10 and fast_dev <= 1e-12
    _line(10, "embedding identity", ok,
          f"identity gap {worst:.2e}, fast-path deviation {fast_dev:.2e}")


def test_11_anova_composition():
    kernel = AnovaKernel(((1, 2), (3, 4)), GaussianKernel(0.5), 4)
    base = GaussianKernel(0.5)
    composite = anova_compose(
        kernel, lambda dim, D: FeatureMap(dense_grid(12, dim), "dense", 0.5),
        144)
    rng = np.random.default_rng(14)
    worst, triangle_ok = 0.0, True
    for _ in range(1000):
        x = rng.uniform(-0.75, 0.75, size=4)
        y = rng.uniform(-0.75, 0.75, size=4)
        total = abs(composite.approx_kernel(x, y) - eval_anova(kernel, x, y))
        worst = max(worst, total)
        parts = sum(
            abs(fm.approx_kernel(x[np.array(S) - 1], y[np.array(S) - 1])
                - base.value(x[np.array(S) - 1] - y[np.array(S) - 1]))
            for S, fm in composite.sub_maps)
        triangle_ok &= total <= parts + 1e-12
    ok = worst <= 1e-8 and triangle_ok
    _line(11, "anova composition", ok,
          f"worst composite error {worst:.2e}, triangle holds: {triangle_ok}")


def test_12_rff_unbiasedness():
    u = np.zeros(5)
    u[0] = 1.0
    estimates = np.array([rff(5, 25, 0.5, seed=s).approx(u)
                          for s in range(400)])
    se = estimates.std(ddof=1) / math.sqrt(len(estimates))
    gap = abs(estimates.mean() - math.exp(-0.5))
    _line(12, "rff unbiasedness", gap <= 3 * se,
          f"|mean - exp(-1/2)| = {gap:.2e}, 3 SE = {3 * se:.2e}")


def test_13_sweep_determinism():
    config = {"methods": ["rff", "qmc", "subsampled", "sparse"], "d": 4,
              "gamma": 0.5, "D": [64, 128], "M": [0.5, 1.5],
              "seeds": [0, 1], "n_eval": 2000, "L": 4, "level": 2}
    first = strip_timing_columns(reports_to_csv(sweep(config)))
    second = strip_timing_columns(reports_to_csv(sweep(config)))
    _line(13, "sweep determinism", first == second,
          f"{len(first.splitlines()) - 1} rows byte-identical modulo timing")
