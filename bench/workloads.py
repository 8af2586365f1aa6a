"""The three workloads: set-up, one round of timed public calls, and checks.

A workload object does its set-up in ``__init__`` (inputs from the seed,
input files, the one-dimensional rule cache).  ``ops()`` returns the fixed
script of one round: a list of ``Op`` calls into the package, each a build,
an eval or an embed.  The worker times each call from outside and repeats
the round.  ``check(results)`` runs after the timed phase on the results of
one round and compares them with computations made apart from the program
(``checks.py``) or with properties the method must have.

Sparse-grid embedding and poly-exact sizes below the feasible candidate
count fail by design (negative weights, no exact rule), so no script
contains them.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from quadfeat import cli, harness, kernels, quad1d

import checks

# the literal report header the CLI documents
REPORT_HEADER = "method,d,D,gamma,M,max_err,rms_err,n_eval,seed,build_ms,embed_ms"


@dataclass(frozen=True)
class Op:
    kind: str                 # "build", "eval" or "embed"
    key: str                  # the result is stored under this name
    call: Callable[[dict], object]
    rows: int = 0             # displacements, pairs or data rows processed
    # reduces the result to what the checks need, outside the timed call
    keep: Optional[Callable[[object], object]] = None


def sample_rows(n: int, k: int, seed) -> np.ndarray:
    """k distinct row indices out of n, for the embedding identity checks."""
    return np.sort(np.random.default_rng(seed).choice(n, size=min(k, n),
                                                      replace=False))


def row_pairs(k: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(k) for b in range(a + 1, k)]


def check_map_errors(ck: checks.Checks, label: str, fm, gamma: float, M: float,
                     n: int, seed: int, reported) -> None:
    """Recompute max and RMS error of a map on the documented displacement
    sample and compare with what the program reported."""
    U = harness.displacement_sample(fm.d, M, n, seed)
    ck.add(f"{label} displacements inside the M-ball",
           float(np.linalg.norm(U, axis=1).max()) <= M * (1 + 1e-12))
    points, weights = fm.grid.points, fm.grid.weights
    mx, rms = checks.max_and_rms(checks.gaussian(gamma, U),
                                 checks.ktilde(points, weights, gamma, U))
    ck.close(f"{label} max error", reported[0], mx)
    ck.close(f"{label} rms error", reported[1], rms)


def check_approx(ck: checks.Checks, label: str, fm, gamma: float, U: np.ndarray) -> None:
    points, weights = fm.grid.points, fm.grid.weights
    gap = float(np.abs(fm.approx(U) - checks.ktilde(points, weights, gamma, U)).max())
    ck.add(f"{label} approx matches sum a cos(w'u)", gap <= checks.APPROX_TOL,
           f"gap {gap:.2e}")


class PaperSweep:
    """The paper's d = 25 error-versus-diameter figure, plus a small-d block
    with structured grids, then a short embedding of the non-negative maps."""

    name = "paper-sweep"
    GAMMA = 0.5
    D_DIM, D_COUNT = 25, 1351          # sparse_grid(2, 25) has 1351 points
    METHODS = ("rff", "qmc", "sparse", "subsampled", "poly-exact")
    M = (0.1, 0.25, 0.5, 1.0, 2.0)
    SMALL_DIM, DENSE_L, SPARSE_LEVEL = 5, 4, 3
    SMALL_METHODS = ("dense", "sparse3", "rff5")
    SMALL_M = (0.5, 1.0, 2.0)
    EMBEDDED = ("rff", "qmc", "subsampled", "poly-exact", "dense", "rff5")
    CHECKED_ROWS = 40

    def __init__(self, seed: int, small: bool, workdir: Path):
        self.seeds = (2 * seed, 2 * seed + 1)
        self.n_eval = 300 if small else 2000
        n_rows = 100 if small else 1000
        rng = np.random.default_rng([seed, 25])
        self.rows = {self.D_DIM: rng.standard_normal((n_rows, self.D_DIM)),
                     self.SMALL_DIM: rng.standard_normal((n_rows, self.SMALL_DIM))}
        self.kept = sample_rows(n_rows, self.CHECKED_ROWS, [seed, 1])
        self.kernel = kernels.GaussianKernel(self.GAMMA)
        # the one-dimensional rules every grid constructor reads, cached
        # once per process
        for L in (1, 2, 4, 8, self.DENSE_L):
            quad1d.gauss_hermite(L)

    def _build(self, method: str, s: int) -> Op:
        g = self.GAMMA
        if method in self.METHODS:
            call = lambda r: harness.build_method_map(
                method, self.D_DIM, self.D_COUNT, g, s, L=8, level=2, degree=2)
        elif method == "dense":
            call = lambda r: harness.build_method_map(
                "dense", self.SMALL_DIM, self.DENSE_L ** self.SMALL_DIM, g, s,
                L=self.DENSE_L)
        elif method == "sparse3":
            call = lambda r: harness.build_method_map(
                "sparse", self.SMALL_DIM, 0, g, s, level=self.SPARSE_LEVEL)
        else:  # rff5: the unstructured map beside the structured small-d grids
            call = lambda r: harness.build_method_map(
                "rff", self.SMALL_DIM, self.DENSE_L ** self.SMALL_DIM, g, s)
        return Op("build", f"{method}/{s}", call)

    def _dim(self, method: str) -> int:
        return self.D_DIM if method in self.METHODS else self.SMALL_DIM

    def ops(self) -> list[Op]:
        ops = []
        for s in self.seeds:
            for method in self.METHODS + self.SMALL_METHODS:
                ops.append(self._build(method, s))
            for method in self.METHODS + self.SMALL_METHODS:
                for M in (self.M if method in self.METHODS else self.SMALL_M):
                    ops.append(Op(
                        "eval", f"err/{method}/{s}/{M}",
                        lambda r, k=f"{method}/{s}", M=M, s=s: harness.error_stats(
                            r[k], self.kernel, M, self.n_eval, s),
                        rows=self.n_eval))
        s = self.seeds[0]
        for method in self.EMBEDDED:
            X = self.rows[self._dim(method)]
            ops.append(Op("embed", f"z/{method}",
                          lambda r, k=f"{method}/{s}", X=X: r[k].embed_batch(X),
                          rows=X.shape[0], keep=lambda Z: Z[self.kept]))
        return ops

    def check(self, results: dict) -> list[dict]:
        ck = checks.Checks()
        g = self.GAMMA
        probe = {d: harness.displacement_sample(d, 1.0, 500, 99)
                 for d in (self.D_DIM, self.SMALL_DIM)}
        for s in self.seeds:
            for method in self.METHODS + self.SMALL_METHODS:
                fm = results[f"{method}/{s}"]
                label = f"{method} seed {s}"
                check_approx(ck, label, fm, g, probe[fm.d])
                Ms = self.M if method in self.METHODS else self.SMALL_M
                for M in Ms[:2]:
                    check_map_errors(ck, f"{label} M={M}", fm, g, M, self.n_eval,
                                     s, results[f"err/{method}/{s}/{M}"])
                exact_through = {"poly-exact": 2, "dense": 2 * self.DENSE_L - 2}
                if method in exact_through:
                    R = exact_through[method]
                    for M in Ms:
                        bound = checks.poly_bound(g, M, R)
                        if bound < 1.0:
                            err = results[f"err/{method}/{s}/{M}"][0]
                            ck.add(f"{label} M={M} max error within the degree-{R} bound",
                                   err <= bound, f"{err:.3e} <= {bound:.3e}")
            pe = results[f"poly-exact/{s}"].grid
            res = checks.moment_residual(pe.points, pe.weights, 2)
            ck.add(f"poly-exact seed {s} matches normal moments through degree 2",
                   res <= checks.MOMENT_TOL and bool((pe.weights >= 0).all()),
                   f"residual {res:.2e}")
        sg = results[f"sparse/{self.seeds[0]}"]
        ck.add("sparse_grid(2, 25) has 1351 points", sg.count == 1351,
               f"{sg.count} points")
        pairs = row_pairs(len(self.kept))
        for method in self.EMBEDDED:
            fm = results[f"{method}/{self.seeds[0]}"]
            X = self.rows[fm.d][self.kept]
            points, weights = fm.grid.points, fm.grid.weights
            gap = checks.identity_gap(results[f"z/{method}"], X, pairs,
                                      lambda U: checks.ktilde(points, weights, g, U))
            ck.add(f"{method} embedding identity", gap <= checks.IDENTITY_TOL,
                   f"gap {gap:.2e}")
        return ck.results


class AnovaReweight:
    """Acceptance 09 at benchmark scale: a reweighted ANOVA map (a support
    bisection per subset) against the RFF baseline on held-out pairs."""

    name = "anova-reweight"
    DIM, SUBSET_SIZE, GAMMA, D_S, PAIRS = 40, 5, 0.1, 40, 500
    CHECKED_ROWS = 40

    def __init__(self, seed: int, small: bool, workdir: Path):
        self.seed = seed
        n_data = 1000 if small else 10_000
        self.n_held = 1000 if small else 20_000
        subsets = 2 if small else 10
        self.data = harness.synthetic_mixture(n_data, seed=seed, d=self.DIM)
        self.kernel = kernels.random_anova(d=self.DIM, m=subsets,
                                           subset_size=self.SUBSET_SIZE,
                                           gamma=self.GAMMA, seed=seed)
        self.held = harness.sample_pairs(self.data, self.n_held, seed=seed + 50_000)
        self.kept = sample_rows(n_data, self.CHECKED_ROWS, [seed, 2])
        quad1d.gauss_hermite(8)  # the rule the candidate pools are drawn from

    def ops(self) -> list[Op]:
        kern, rows = self.kernel, self.data.rows
        ops = [
            Op("build", "fit", lambda r: harness.build_anova_map(
                kern, "reweighted", self.D_S, self.seed, data=self.data,
                pairs=self.PAIRS)),
            Op("build", "rff", lambda r: harness.build_anova_map(
                kern, "rff", self.D_S, self.seed)),
        ]
        for key in ("fit", "rff"):
            ops.append(Op("eval", f"rms/{key}",
                          lambda r, key=key: harness.rms_error(r[key], kern, self.held),
                          rows=self.n_held))
        for key in ("fit", "rff"):
            ops.append(Op("embed", f"z/{key}",
                          lambda r, key=key: r[key].embed_batch(rows),
                          rows=rows.shape[0], keep=lambda Z: Z[self.kept]))
        return ops

    def _sub_maps(self, fm):
        return [(S, sub.grid.points, sub.grid.weights) for S, sub in fm.sub_maps]

    def check(self, results: dict) -> list[dict]:
        ck = checks.Checks()
        g = self.GAMMA
        U = self.held[0] - self.held[1]
        exact = checks.anova(self.kernel.subsets, g, U)
        rms = {}
        for key in ("fit", "rff"):
            fm = results[key]
            subs = self._sub_maps(fm)
            ck.add(f"{key} has one sub-map per subset",
                   [S for S, *_ in subs] == list(self.kernel.subsets))
            kt = checks.ktilde_anova(subs, g, U)
            gap = float(np.abs(fm.approx(U[:500]) - kt[:500]).max())
            ck.add(f"{key} approx matches the sum of sub-map estimates",
                   gap <= checks.APPROX_TOL, f"gap {gap:.2e}")
            rms[key] = float(np.sqrt(np.mean((exact - kt) ** 2)))
            ck.close(f"{key} held-out rms error", results[f"rms/{key}"], rms[key])
            X = self.data.rows[self.kept]
            gap = checks.identity_gap(results[f"z/{key}"], X, row_pairs(len(self.kept)),
                                      lambda V: checks.ktilde_anova(subs, g, V))
            ck.add(f"{key} embedding identity", gap <= checks.IDENTITY_TOL,
                   f"gap {gap:.2e}")
        ck.add("reweighted held-out rms below rff", rms["fit"] < rms["rff"],
               f"{rms['fit']:.4f} < {rms['rff']:.4f}")
        sizes = [sub.count for _, sub in results["fit"].sub_maps]
        nonneg = all(bool((sub.grid.weights >= 0).all())
                     for _, sub in results["fit"].sub_maps)
        ck.add(f"every subset keeps <= {self.D_S} points, non-negative weights",
               max(sizes) <= self.D_S and nonneg, f"sizes {sizes}")
        return ck.results


def run_cli(argv: list) -> str:
    """``quadfeat <argv>`` in-process; returns what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"quadfeat {' '.join(map(str, argv))} exited {code}")
    return out.getvalue()


def report_without_timing(text: str) -> dict:
    """A report's header and its rows without the two timing columns, which
    differ from round to round."""
    lines = text.splitlines()
    body = "\n".join(line.rsplit(",", 2)[0] for line in lines)
    return {"header": lines[0], "rows": list(csv.DictReader(io.StringIO(body)))}


class CliRoundtrip:
    """``quadfeat`` commands run in-process on a CSV dataset written at set-up."""

    name = "cli-roundtrip"
    DIM, GAMMA = 16, 0.5
    PE_D, RW_D, EMBED_D, SWEEP_D = 600, 100, 500, 500
    EVAL_M, SWEEP_M = 0.5, (0.25, 1.0)
    SWEEP_METHODS = ("rff", "qmc", "subsampled")
    CHECKED_ROWS = 40

    def __init__(self, seed: int, small: bool, workdir: Path):
        self.seed = seed
        self.n_rows = 100 if small else 500
        self.n_eval = 2000 if small else 20_000
        self.n_sweep = 500 if small else 5000
        rng = np.random.default_rng([seed, 16])
        self.X = 0.7 * rng.standard_normal((self.n_rows, self.DIM))
        self.data = workdir / "data.csv"
        with open(self.data, "w") as fh:
            fh.write(",".join(f"x{i}" for i in range(1, self.DIM + 1)) + "\n")
            for row in self.X:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        self.kept = sample_rows(self.n_rows, self.CHECKED_ROWS, [seed, 3])
        self.files = {k: workdir / k for k in
                      ("pe.json", "rw.json", "ss.csv", "rff.csv", "report.csv")}
        for L in (1, 2, 4, 8):
            quad1d.gauss_hermite(L)

    def ops(self) -> list[Op]:
        s, d, f = self.seed, self.DIM, self.files
        common = ["--gamma", self.GAMMA, "--seed", s]
        read = lambda name: (lambda out: f[name].read_text())
        embed_rows = lambda name: (lambda out: self._kept_feature_rows(f[name]))
        return [
            Op("build", "pe.json", lambda r: run_cli(
                ["build", "--method", "poly-exact", "--d", d, "--D", self.PE_D,
                 "--degree", 2, "--out", f["pe.json"]] + common),
               keep=read("pe.json")),
            Op("build", "rw.json", lambda r: run_cli(
                ["build", "--method", "reweighted", "--data", self.data, "--d", d,
                 "--L", 8, "--D", self.RW_D, "--pairs", 500,
                 "--out", f["rw.json"]] + common),
               keep=read("rw.json")),
            Op("embed", "ss.csv", lambda r: run_cli(
                ["embed", "--method", "subsampled", "--L", 8, "--D", self.EMBED_D,
                 "--data", self.data, "--out", f["ss.csv"]] + common),
               rows=self.n_rows, keep=embed_rows("ss.csv")),
            Op("embed", "rff.csv", lambda r: run_cli(
                ["embed", "--method", "rff", "--D", self.EMBED_D,
                 "--data", self.data, "--out", f["rff.csv"]] + common),
               rows=self.n_rows, keep=embed_rows("rff.csv")),
            Op("eval", "eval", lambda r: run_cli(
                ["eval", "--method", "subsampled", "--d", d, "--L", 8,
                 "--D", self.EMBED_D, "--diameter", self.EVAL_M,
                 "--n-eval", self.n_eval] + common),
               rows=self.n_eval, keep=report_without_timing),
            Op("eval", "report.csv", lambda r: run_cli(
                ["sweep", "--method", ",".join(self.SWEEP_METHODS), "--d", d,
                 "--D", self.SWEEP_D,
                 "--diameter", ",".join(map(str, self.SWEEP_M)),
                 "--seed", s, "--n-eval", self.n_sweep,
                 "--out", f["report.csv"], "--gamma", self.GAMMA]),
               rows=self.n_sweep * len(self.SWEEP_METHODS) * len(self.SWEEP_M),
               keep=lambda out: report_without_timing(f["report.csv"].read_text())),
        ]

    def _kept_feature_rows(self, path: Path) -> dict:
        """Shape of a feature CSV and its checked rows, parsed as text."""
        kept = set(self.kept.tolist())
        rows, width = [], None
        with open(path) as fh:
            for i, line in enumerate(fh):
                cells = line.rstrip("\n").split(",")
                width = len(cells) if width is None else width
                if len(cells) != width:
                    raise ValueError(f"{path.name}: ragged row {i + 1}")
                if i in kept:
                    rows.append([float(c) for c in cells])
        return {"lines": i + 1, "width": width, "rows": np.array(rows)}

    def _map(self, method: str, D: int):
        return harness.build_method_map(method, self.DIM, D, self.GAMMA,
                                        self.seed, L=8)

    def check(self, results: dict) -> list[dict]:
        ck = checks.Checks()
        g, d = self.GAMMA, self.DIM
        pe = json.loads(results["pe.json"])
        ck.add("pe.json names its method, d, gamma and D",
               pe["method"] == "poly_exact" and pe["d"] == d and pe["gamma"] == g
               and pe["D"] == len(pe["points"]) == len(pe["weights"]))
        res = checks.moment_residual(pe["points"], pe["weights"], 2)
        ck.add("pe.json matches normal moments through degree 2",
               res <= checks.MOMENT_TOL and min(pe["weights"]) >= 0,
               f"residual {res:.2e}")
        rw = json.loads(results["rw.json"])
        ck.add(f"rw.json keeps <= {self.RW_D} points with non-negative weights",
               rw["method"] == "reweighted" and 0 < rw["D"] <= self.RW_D
               and rw["D"] == len(rw["points"]) and min(rw["weights"]) >= 0,
               f"D={rw['D']}")

        pairs = row_pairs(len(self.kept))
        for name, method in (("ss.csv", "subsampled"), ("rff.csv", "rff")):
            fm = self._map(method, self.EMBED_D)
            out = results[name]
            ck.add(f"{name} has {self.n_rows} rows of {2 * fm.count} features",
                   out["lines"] == self.n_rows and out["width"] == 2 * fm.count,
                   f"{out['lines']} x {out['width']}")
            points, weights = fm.grid.points, fm.grid.weights
            gap = checks.identity_gap(out["rows"], self.X[self.kept], pairs,
                                      lambda V: checks.ktilde(points, weights, g, V))
            ck.add(f"{name} embedding identity", gap <= checks.IDENTITY_TOL,
                   f"gap {gap:.2e}")

        header, rows = results["eval"]["header"], results["eval"]["rows"]
        ck.add("eval report header is the documented one", header == REPORT_HEADER)
        ss = self._map("subsampled", self.EMBED_D)
        row = rows[0]
        check_map_errors(ck, "eval subsampled", ss, g, self.EVAL_M, self.n_eval,
                         self.seed, (float(row["max_err"]), float(row["rms_err"])))
        header, rows = results["report.csv"]["header"], results["report.csv"]["rows"]
        ck.add("sweep report header is the documented one", header == REPORT_HEADER)
        ck.add("sweep report has one row per cell",
               len(rows) == len(self.SWEEP_METHODS) * len(self.SWEEP_M))
        for row in rows:
            if float(row["M"]) == self.SWEEP_M[0]:
                fm = self._map(row["method"], self.SWEEP_D)
                check_map_errors(ck, f"sweep {row['method']}", fm, g,
                                 self.SWEEP_M[0], self.n_sweep, self.seed,
                                 (float(row["max_err"]), float(row["rms_err"])))
        return ck.results


WORKLOADS = {w.name: w for w in (PaperSweep, AnovaReweight, CliRoundtrip)}
