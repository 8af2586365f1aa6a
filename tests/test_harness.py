"""Tests for dataset handling, error measurement, and sweeps."""
import math
import time

import numpy as np
import pytest

from quadfeat.errors import ConfigError, CsvParseError
from quadfeat.featuremaps import (
    MAX_DOUBLINGS,
    METHOD_TAGS,
    FeatureMap,
    _doublings,
    rff,
)
from quadfeat.grids import dense_grid, sparse_grid
from quadfeat.harness import (
    CLI_METHODS,
    REPORT_HEADER,
    Dataset,
    ErrorReport,
    SweepConfig,
    build_anova_map,
    build_method_map,
    displacement_sample,
    error_curve,
    error_stats,
    load_csv,
    reports_to_csv,
    rms_error,
    sample_pairs,
    strip_timing_columns,
    sweep,
    synthetic_mixture,
)
from quadfeat.kernels import (
    AnovaKernel,
    GaussianKernel,
    load_anova,
    random_anova,
    save_anova,
)


class TestLoadCsv:
    def test_plain_numeric(self, tmp_path):
        path = tmp_path / "zeros.csv"
        path.write_text("0,0\n0,0\n0,0\n")
        ds = load_csv(str(path))
        assert (ds.n, ds.d) == (3, 2)

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "headed.csv"
        path.write_text("alpha,beta\n1,2\n3,4\n")
        ds = load_csv(str(path))
        assert (ds.n, ds.d) == (2, 2)
        np.testing.assert_allclose(ds.rows, [[1, 2], [3, 4]])

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3,4,5\n")
        with pytest.raises(CsvParseError) as exc:
            load_csv(str(path))
        assert exc.value.line == 2

    def test_non_numeric_cell_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(CsvParseError) as exc:
            load_csv(str(path))
        assert exc.value.line == 2

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cell_reports_line(self, tmp_path, cell):
        # float() parses these, so the check used to fall to Dataset,
        # which knows no line numbers
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"a,b\n1,2\n3,{cell}\n5,6\n")
        with pytest.raises(CsvParseError, match="non-finite") as exc:
            load_csv(str(path))
        assert exc.value.line == 3


class TestSamplePairs:
    def test_two_row_dataset_gives_the_only_pair(self):
        ds = Dataset(np.array([[0.0], [1.0]]))
        X, Y = sample_pairs(ds, 1, seed=0)
        assert {float(X[0, 0]), float(Y[0, 0])} == {0.0, 1.0}

    def test_rows_always_distinct(self):
        ds = Dataset(np.arange(10, dtype=float)[:, None])
        X, Y = sample_pairs(ds, 5000, seed=1)
        assert (X != Y).all()

    def test_uniform_frequencies_on_five_rows(self):
        ds = Dataset(np.arange(5, dtype=float)[:, None])
        X, _ = sample_pairs(ds, 100_000, seed=2)
        counts = np.array([(X[:, 0] == v).sum() for v in range(5)])
        freq = counts / counts.sum()
        se = math.sqrt(0.2 * 0.8 / 100_000)
        assert (np.abs(freq - 0.2) <= 3 * se).all()

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            sample_pairs(Dataset(np.zeros((1, 2))), 1, seed=0)


class TestErrorMeasures:
    def test_zero_diameter_reduces_to_weight_sum_gap(self):
        fm = rff(4, 16, 0.5, seed=3)
        kernel = GaussianKernel(0.5)
        got = error_stats(fm, kernel, 0.0, 100, seed=0)[0]
        assert got == pytest.approx(abs(1.0 - fm.grid.weights.sum()), abs=1e-15)

    def test_exact_rule_dominated_by_taylor_bound(self):
        fm = FeatureMap(dense_grid(8, 2), "dense", 0.5)
        kernel = GaussianKernel(0.5)
        # the rule is exact through total degree 15; bound taken at 14
        bound = 3.0 * (math.e * 0.25 / 14) ** 7
        assert error_stats(fm, kernel, 0.5, 50_000, seed=1)[0] <= bound

    @pytest.mark.parametrize("M", [math.nan, math.inf, -1.0])
    def test_diameter_must_be_finite_and_non_negative(self, M):
        # nan passed a bare `M < 0` check and gave NaN displacements
        with pytest.raises(ValueError, match="M must be"):
            displacement_sample(3, M, 10, seed=0)
        with pytest.raises(ValueError, match="M must be"):
            error_stats(rff(3, 8, 0.5, 0), GaussianKernel(0.5), M, 10, seed=0)

    def test_displacements_respect_the_radius(self):
        U = displacement_sample(6, 1.7, 10_000, seed=4)
        assert (np.linalg.norm(U, axis=1) <= 1.7 + 1e-12).all()

    def test_monotone_in_diameter_for_scaled_samples(self):
        fm = FeatureMap(dense_grid(4, 2), "dense", 0.5)
        kernel = GaussianKernel(0.5)
        errors = [error_stats(fm, kernel, M, 20_000, seed=5)[0]
                  for M in (0.25, 0.5, 1.0, 1.5, 2.0)]
        assert all(a <= b + 1e-15 for a, b in zip(errors, errors[1:]))

    def test_rms_zero_for_exact_fit(self):
        from quadfeat.grids import GridQuadrature
        fm = FeatureMap(GridQuadrature(np.zeros((1, 2)), np.ones(1)), "dense", 0.5)
        X = np.zeros((5, 2))
        assert rms_error(fm, GaussianKernel(0.5), (X, X)) == 0.0

    def test_rms_single_pair_is_absolute_error(self):
        fm = rff(3, 10, 0.5, seed=6)
        kernel = GaussianKernel(0.5)
        x = np.array([[0.4, -0.1, 0.2]])
        y = np.array([[0.0, 0.3, -0.5]])
        expected = abs(kernel.value((x - y)[0]) - fm.approx((x - y)[0]))
        assert rms_error(fm, kernel, (x, y)) == pytest.approx(expected)

    def test_rms_pairs_parsed_as_in_reweighting(self):
        fm = rff(3, 10, 0.5, seed=6)
        kernel = GaussianKernel(0.5)
        X = np.random.default_rng(6).standard_normal((4, 3))
        with pytest.raises(ValueError, match="pairs must be .* got 3"):
            rms_error(fm, kernel, (X, X, X))
        with pytest.raises(ValueError, match="got shapes"):
            rms_error(fm, kernel, (X, X[:, :2]))

    def test_rms_bounded_by_max_on_same_samples(self):
        fm = rff(4, 32, 0.5, seed=7)
        kernel = GaussianKernel(0.5)
        mx, rms = error_stats(fm, kernel, 1.0, 5000, seed=8)
        assert rms <= mx


EPS = np.finfo(float).eps


class TestErrorCurve:
    """``error_curve`` against one ``error_stats`` call per diameter."""

    # unsorted, repeated and zero diameters: 0.0625 -> 0.5 is a ratio of 8,
    # three doublings; 0.5 -> 8 one of 16, past the cap, so 8 takes a new
    # tangent; 20 is 10 doubled once
    MS = [0.5, 10.0, 0.0, 8.0, 0.0625, 0.5, 20.0, 0.0]
    # the doublings since its chain's tangent that each diameter takes
    CHAIN = {0.0: 0, 0.0625: 0, 0.5: 3, 8.0: 0, 10.0: 0, 20.0: 1}
    N = 2000  # several blocks of the 40-term maps below

    def test_doubling_steps(self):
        assert _doublings(sorted(set(self.MS))) == [self.CHAIN[M] for M in
                                                    sorted(self.CHAIN)]
        # the paper's grid: three of its five diameters are doublings
        assert _doublings([0.1, 0.25, 0.5, 1.0, 2.0]) == [0, 0, 1, 1, 1]
        # a chain takes at most MAX_DOUBLINGS from one tangent
        assert MAX_DOUBLINGS == 3
        assert _doublings([0.25, 0.5, 1.0, 2.0, 4.0, 8.0]) == [0, 1, 1, 1, 0, 1]
        assert _doublings([0.25, 1.0, 4.0]) == [0, 2, 0]
        # exactly 2^k times: 0.3 * 2 == 0.6, but 0.1 * 6 != 0.6
        assert _doublings([0.3, 0.6, 0.1 * 6]) == [0, 1, 0]

    @pytest.mark.parametrize("method", ["rff", "qmc", "subsampled", "poly-exact"])
    def test_unstructured_maps_against_one_diameter_calls(self, method):
        fm = build_method_map(method, 3, 40, 0.5, seed=1, L=4)
        assert fm.grid.structure is None
        kernel = GaussianKernel(0.5)
        curve = error_curve(fm, kernel, self.MS, self.N, seed=2)
        assert len(curve) == len(self.MS)
        scale = EPS * np.abs(fm.weights).sum()
        for M, got in zip(self.MS, curve):
            want = error_stats(fm, kernel, M, self.N, seed=2)
            k = self.CHAIN[M]
            if k == 0:
                assert got == want
            else:
                assert np.abs(np.subtract(got, want)).max() <= 5 * 4**k * scale

    @pytest.mark.parametrize("method", ["rff", "poly-exact"])
    def test_every_doubled_estimate_within_the_bound(self, method):
        fm = build_method_map(method, 3, 40, 0.5, seed=3, L=4)
        U = displacement_sample(3, 1.0, self.N, seed=4)
        scales = sorted(self.CHAIN)
        estimates = fm._scaled_estimates(U, scales)
        scale = EPS * np.abs(fm.weights).sum()
        for s, estimate in zip(scales, estimates):
            want = fm.approx(U * s)
            k = self.CHAIN[s]
            if k == 0:
                np.testing.assert_array_equal(estimate, want)
            else:
                assert np.abs(estimate - want).max() <= 5 * 4**k * scale

    @pytest.mark.parametrize("which", ["dense", "sparse", "anova"])
    def test_structured_and_anova_maps_are_bitwise(self, which):
        if which == "anova":
            kernel = random_anova(d=4, m=3, subset_size=2, gamma=0.25, seed=5)
            fm = build_anova_map(kernel, "rff", 8, seed=0)
        else:
            kernel = GaussianKernel(0.5)
            grid = dense_grid(4, 3) if which == "dense" else sparse_grid(2, 3)
            fm = FeatureMap(grid, which, 0.5)
        curve = error_curve(fm, kernel, self.MS, 500, seed=6)
        assert curve == [error_stats(fm, kernel, M, 500, seed=6) for M in self.MS]

    def test_no_diameters(self):
        assert error_curve(rff(3, 8, 0.5, 0), GaussianKernel(0.5), [], 10, 0) == []

    @pytest.mark.parametrize("M", [math.nan, math.inf, -1.0])
    def test_every_diameter_is_checked(self, M):
        with pytest.raises(ValueError, match="M must be"):
            error_curve(rff(3, 8, 0.5, 0), GaussianKernel(0.5), [0.5, M], 10, 0)


class TestSyntheticMixture:
    def test_shape_and_component_spacing(self):
        ds = synthetic_mixture(2000, seed=9)
        assert (ds.n, ds.d) == (2000, 40)
        means = np.zeros((4, 40))
        for i in range(4):
            means[i, i] = 2.0 / math.sqrt(2.0)
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(means[i] - means[j]) == pytest.approx(2.0)

    def test_reproducible(self):
        a = synthetic_mixture(100, seed=10)
        b = synthetic_mixture(100, seed=10)
        np.testing.assert_array_equal(a.rows, b.rows)


class TestSweep:
    def test_single_cell(self):
        reports = sweep({"methods": ["rff"], "d": 3, "gamma": 0.5,
                         "D": [32], "M": [0.5], "seeds": [0],
                         "n_eval": 2000})
        assert len(reports) == 1
        row = reports[0]
        assert row.method == "rff" and row.D == 32 and row.rms_err <= row.max_err

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError) as exc:
            SweepConfig.from_dict({"methods": ["rff"], "d": 2, "gamma": 0.5,
                                   "D": [8], "M": [1.0], "seeds": [0],
                                   "bogus": 1})
        assert exc.value.key == "bogus"
        assert "bogus" in str(exc.value)

    def test_missing_key_is_named(self):
        with pytest.raises(ConfigError) as exc:
            SweepConfig.from_dict({"methods": ["rff"], "d": 2, "gamma": 0.5,
                                   "D": [8], "M": [1.0]})
        assert exc.value.key == "seeds"

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig.from_dict({"methods": ["nystrom"], "d": 2,
                                   "gamma": 0.5, "D": [8], "M": [1.0],
                                   "seeds": [0]})

    @pytest.mark.parametrize("key,value", [
        ("methods", []), ("D", []), ("M", []), ("seeds", []),
        ("d", 0), ("D", [8, 0]), ("n_eval", 0), ("pairs", 0),
        ("M", [1.0, -1.0]), ("gamma", 0.0), ("gamma", -1.0),
        ("d", 2.7), ("D", [8.9]), ("seeds", [0.5]), ("n_eval", 99.5),
        ("L", 4.5), ("level", 1.5), ("degree", 2.5), ("pairs", 10.5),
        # not a key: D is the support-size target
        ("target_D", 3.5), ("D", ["8"]),
        ("gamma", math.nan), ("gamma", math.inf), ("M", [math.nan]),
        ("M", [1.0, math.inf]),
        # not a key: reweighted rules are selected by D alone
        ("lam", 0.05), ("gamma", "x"), ("M", ["y"]),
        ("L", 0), ("L", 201), ("level", -1), ("level", 8), ("degree", -2),
        ("degree", 3), ("seeds", [0, -1]),
        # a scalar or a string where a list belongs, a bool for a number
        ("D", 8), ("M", 1.0), ("seeds", 0), ("methods", "rff"),
        ("n_eval", True), ("D", [True]), ("gamma", True),
    ])
    def test_out_of_range_value_is_named(self, key, value, monkeypatch):
        from quadfeat import harness

        def no_builds(*args, **kwargs):
            raise AssertionError("a map was built")

        monkeypatch.setattr(harness, "build_method_map", no_builds)
        config = {"methods": ["rff"], "d": 2, "gamma": 0.5, "D": [8],
                  "M": [1.0], "seeds": [0], "n_eval": 100, key: value}
        with pytest.raises(ConfigError) as exc:
            sweep(config)
        assert exc.value.key == key

    def test_method_string_is_not_split_into_letters(self):
        with pytest.raises(ConfigError, match="'methods' must be a non-empty list"):
            SweepConfig.from_dict({"methods": "rff", "d": 2, "gamma": 0.5,
                                   "D": [8], "M": [1.0], "seeds": [0]})

    def test_rule_options_accepted_up_to_their_bounds(self):
        # the 200-node rule, the 2^7-point rule of level 7, degree 0
        cfg = SweepConfig.from_dict({"methods": ["rff"], "d": 2, "gamma": 0.5,
                                     "D": [8], "M": [1.0], "seeds": [0],
                                     "L": 200, "level": 7, "degree": 0})
        assert (cfg.L, cfg.level, cfg.degree) == (200, 7, 0)

    def test_integral_floats_accepted(self):
        cfg = SweepConfig.from_dict({"methods": ["rff"], "d": 2.0,
                                     "gamma": 0.5, "D": [8.0], "M": [1.0],
                                     "seeds": [np.int64(3)], "pairs": 10.0})
        assert (cfg.d, cfg.D, cfg.seeds, cfg.pairs) == (2, [8], [3], 10)
        assert all(type(v) is int for v in (cfg.d, cfg.D[0], cfg.seeds[0],
                                            cfg.pairs))

    def test_deterministic_modulo_timing(self):
        config = {"methods": ["rff", "subsampled"], "d": 3, "gamma": 0.5,
                  "D": [16, 32], "M": [0.5, 1.0], "seeds": [0, 1],
                  "n_eval": 1000, "L": 4}
        first = strip_timing_columns(reports_to_csv(sweep(config)))
        second = strip_timing_columns(reports_to_csv(sweep(config)))
        assert first == second

    def test_header_exact(self):
        assert REPORT_HEADER == ("method,d,D,gamma,M,max_err,rms_err,"
                                 "n_eval,seed,build_ms,embed_ms")

    def test_row_exact(self):
        report = ErrorReport(method="poly-exact", d=3, D=40, gamma=0.5, M=1.0,
                             max_err=0.1 + 0.2, rms_err=1e-17, n_eval=1000,
                             seed=7, build_ms=12, embed_ms=0)
        assert report.csv_row() == ("poly-exact,3,40,0.5,1.0,0.30000000000000004,"
                                    "1e-17,1000,7,12,0")

    def test_sparse_reports_actual_point_count(self):
        from quadfeat.grids import sparse_grid
        reports = sweep({"methods": ["sparse"], "d": 4, "gamma": 0.5,
                         "D": [999], "M": [0.5], "seeds": [0],
                         "n_eval": 500, "level": 2})
        # the requested D is ignored for level-built grids
        assert reports[0].D == sparse_grid(2, 4).count != 999

    def test_builds_each_map_once(self, monkeypatch):
        from quadfeat import harness
        real = harness.build_method_map
        calls = []

        def counting(method, *args, **kwargs):
            calls.append(method)
            time.sleep(0.005)  # every build takes at least 5 ms
            return real(method, *args, **kwargs)

        monkeypatch.setattr(harness, "build_method_map", counting)
        config = {"methods": ["qmc", "sparse"], "d": 3, "gamma": 0.5,
                  "D": [16, 32], "M": [0.5], "seeds": [0, 1, 2],
                  "n_eval": 500, "level": 2}
        reports = sweep(config)
        # qmc depends on D only, the sparse grid on neither D nor seed
        assert sorted(calls) == ["qmc", "qmc", "sparse"]
        assert len(reports) == 2 * 2 * 3
        # every row is what a fresh build for its own cell gives
        kernel = GaussianKernel(0.5)
        cells = [(m, D, s) for m in ("qmc", "sparse") for D in (16, 32)
                 for s in (0, 1, 2)]
        for row, (method, D, seed) in zip(reports, cells):
            fm = real(method, 3, D, 0.5, seed, level=2)
            assert (row.method, row.D, row.seed) == (method, fm.count, seed)
            assert (row.max_err, row.rms_err) == error_stats(
                fm, kernel, 0.5, 500, seed)
        # only the row that built a map carries its build time
        built_rows = [(m == "qmc" and s == 0) or (m, D, s) == ("sparse", 16, 0)
                      for m, D, s in cells]
        assert [r.build_ms >= 5 for r in reports] == built_rows
        assert all(r.build_ms == 0
                   for r, built in zip(reports, built_rows) if not built)


    def test_evaluates_each_map_and_seed_once(self, monkeypatch):
        from quadfeat import harness
        real = harness.error_curve
        calls = []

        def counting(fm, kernel, Ms, n, seed):
            calls.append((fm.method, fm.count, list(Ms), seed))
            time.sleep(0.005)  # every evaluation takes at least 5 ms
            return real(fm, kernel, Ms, n, seed)

        monkeypatch.setattr(harness, "error_curve", counting)
        config = {"methods": ["rff", "sparse"], "d": 3, "gamma": 0.5,
                  "D": [8, 16], "M": [1.0, 0.25, 1.0], "seeds": [0, 1],
                  "n_eval": 300, "level": 2}
        reports = sweep(config)
        # one call per (map, seed), with the diameters of its cells in order;
        # the sparse grid ignores D, so its two D share one map and one call
        sparse_count = sparse_grid(2, 3).count
        Ms = [1.0, 0.25, 1.0]
        assert calls == [("rff", 8, Ms, 0), ("rff", 8, Ms, 1),
                         ("rff", 16, Ms, 0), ("rff", 16, Ms, 1),
                         ("sparse", sparse_count, 2 * Ms, 0),
                         ("sparse", sparse_count, 2 * Ms, 1)]
        cells = [(m, D, M, s) for m in ("rff", "sparse") for D in (8, 16)
                 for M in Ms for s in (0, 1)]
        assert [(r.method, r.M, r.seed) for r in reports] == [
            (m, M, s) for m, D, M, s in cells]
        # the first row of each group carries its evaluation time, the rest 0
        first = {}
        for i, (m, D, M, s) in enumerate(cells):
            first.setdefault((m, D if m == "rff" else None, s), i)
        timed = sorted(first.values())
        assert [i for i, r in enumerate(reports) if r.embed_ms >= 5] == timed
        assert all(r.embed_ms == 0 for i, r in enumerate(reports) if i not in timed)
        # and every row is its own one-cell evaluation; 1.0 is 0.25 doubled twice
        kernel = GaussianKernel(0.5)
        for row in reports:
            fm = build_method_map(row.method, 3, row.D, 0.5, row.seed, level=2)
            want = error_stats(fm, kernel, row.M, 300, row.seed)
            if row.method == "sparse" or row.M == 0.25:
                assert (row.max_err, row.rms_err) == want
            else:
                bound = 5 * 4**2 * EPS * np.abs(fm.weights).sum()
                assert np.abs(np.subtract((row.max_err, row.rms_err), want)).max() \
                    <= bound

def test_every_cli_method_builds_its_tag():
    assert CLI_METHODS == tuple(METHOD_TAGS)
    data = synthetic_mixture(200, seed=14, d=2, components=2)
    for method in CLI_METHODS:
        fm = build_method_map(method, 2, 30, 0.5, seed=0, L=3, level=1,
                              data=data, pairs=40)
        assert fm.method == METHOD_TAGS[method]


def test_build_anova_map_counts():
    kernel = random_anova(d=12, m=6, subset_size=3, gamma=0.25, seed=11)
    fm = build_anova_map(kernel, "rff", 20, seed=0)
    assert fm.count == 6 * 20
    ds = synthetic_mixture(500, seed=12, d=12)
    fit = build_anova_map(kernel, "reweighted", 10, seed=0, data=ds, pairs=80)
    assert fit.count <= 6 * 10


def test_sweep_reweighted_method(tmp_path):
    ds = synthetic_mixture(400, seed=13, d=5)
    path = tmp_path / "mix.csv"
    np.savetxt(path, ds.rows, delimiter=",")
    reports = sweep({"methods": ["reweighted", "rff"], "d": 5, "gamma": 0.1,
                     "D": [24], "M": [1.0], "seeds": [0], "n_eval": 1000,
                     "L": 4, "pairs": 60, "data": str(path)})
    assert [r.method for r in reports] == ["reweighted", "rff"]
    assert reports[0].D <= 24  # fitted support never exceeds the target
    assert reports[1].D == 24


class TestAnovaConfig:
    @pytest.fixture
    def spec(self, tmp_path):
        path = tmp_path / "anova.json"
        save_anova(random_anova(d=4, m=2, subset_size=2, gamma=0.25, seed=6),
                   str(path))
        return {"methods": ["rff"], "D": [8], "M": [0.5], "seeds": [0],
                "n_eval": 200, "anova": str(path)}

    def test_structure_file_sets_d_and_gamma(self, spec):
        cfg = SweepConfig.from_dict(spec)
        assert (cfg.d, cfg.gamma, cfg.anova) == (4, 0.25, spec["anova"])
        assert isinstance(cfg.kernel(), AnovaKernel)
        # values that agree with the file are accepted
        assert SweepConfig.from_dict({**spec, "d": 4, "gamma": 0.25}) == cfg

    @pytest.mark.parametrize("key,value", [("d", 5), ("gamma", 0.5),
                                           ("gamma", math.nan), ("d", "4")])
    def test_disagreeing_value_is_named(self, spec, key, value):
        with pytest.raises(ConfigError) as exc:
            SweepConfig.from_dict({**spec, key: value})
        assert exc.value.key == key

    def test_unreadable_structure_file_is_named(self, spec, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        for path in (tmp_path / "missing.json", bad):
            with pytest.raises(ConfigError) as exc:
                SweepConfig.from_dict({**spec, "anova": str(path)})
            assert exc.value.key == "anova"

    def test_sweep_measures_the_anova_kernel(self, spec):
        (row,) = sweep(spec)
        kernel = load_anova(spec["anova"])
        fm = build_anova_map(kernel, "rff", 8, 0)
        assert (row.d, row.D, row.gamma) == (4, fm.count, 0.25)
        assert (row.max_err, row.rms_err) == error_stats(fm, kernel, 0.5, 200, 0)


def test_sweep_reweighted_requires_data():
    with pytest.raises(ConfigError) as exc:
        sweep({"methods": ["reweighted"], "d": 4, "gamma": 0.5, "D": [8],
               "M": [1.0], "seeds": [0], "n_eval": 100})
    assert exc.value.key == "data"
