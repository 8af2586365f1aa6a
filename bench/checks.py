"""Reference computations the benchmark checks the program's outputs against.

Everything here is written from the definitions, apart from the package:
the kernel estimate k~(u) = sum_i a_i cos(sqrt(2 gamma) w_i'u), the Gaussian
and ANOVA kernels, normal moments and the error bound of rules with
non-negative weights.  Only the inputs (points, weights, displacements)
come from the program.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

# k~ from the benchmark and from FeatureMap.approx sum the same terms in a
# different order; an embedding's inner products differ again in order
APPROX_TOL = 1e-12
IDENTITY_TOL = 1e-10
MOMENT_TOL = 1e-8
# reported and recomputed errors use different k~ summation orders
ERROR_RTOL = 1e-9
ERROR_ATOL = 1e-12


class Checks:
    """Collects named pass/fail results with a short detail each."""

    def __init__(self):
        self.results: list[dict] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append({"name": name, "ok": bool(ok), "detail": detail})

    def close(self, name: str, got: float, want: float, rtol=ERROR_RTOL,
              atol=ERROR_ATOL) -> None:
        ok = abs(got - want) <= atol + rtol * abs(want)
        self.add(name, ok, f"reported {got!r}, recomputed {want!r}")

    @property
    def ok(self) -> bool:
        return all(r["ok"] for r in self.results)


def ktilde(points, weights, gamma: float, U: np.ndarray) -> np.ndarray:
    """sum_i a_i cos(sqrt(2 gamma) w_i'u) for each row u of U."""
    W = np.asarray(points, dtype=float)
    a = np.asarray(weights, dtype=float)
    U = np.atleast_2d(np.asarray(U, dtype=float))
    out = np.empty(U.shape[0])
    step = max(1, 2_000_000 // max(W.shape[0], 1))
    for start in range(0, U.shape[0], step):
        phases = (U[start:start + step] * math.sqrt(2.0 * gamma)) @ W.T
        out[start:start + step] = np.cos(phases) @ a
    return out


def ktilde_anova(sub_maps, gamma: float, U: np.ndarray) -> np.ndarray:
    """Sum over subsets S of k~_S(u_S); ``sub_maps`` is ((S, points, weights), ...)."""
    U = np.atleast_2d(U)
    total = np.zeros(U.shape[0])
    for S, points, weights in sub_maps:
        total += ktilde(points, weights, gamma, U[:, [i - 1 for i in S]])
    return total


def gaussian(gamma: float, U: np.ndarray) -> np.ndarray:
    """exp(-gamma |u|^2) for each row u of U."""
    U = np.atleast_2d(U)
    return np.exp(-gamma * np.einsum("ij,ij->i", U, U))


def anova(subsets, gamma: float, U: np.ndarray) -> np.ndarray:
    """Sum over subsets S of prod_{i in S} exp(-gamma u_i^2)."""
    U = np.atleast_2d(U)
    factors = np.exp(-gamma * U * U)
    total = np.zeros(U.shape[0])
    for S in subsets:
        total += np.prod(factors[:, [i - 1 for i in S]], axis=1)
    return total


def max_and_rms(exact: np.ndarray, approx: np.ndarray) -> tuple[float, float]:
    diff = exact - approx
    return float(np.abs(diff).max()), float(np.sqrt(np.mean(diff * diff)))


def normal_moment(r: int) -> float:
    """E[w^r] for w ~ N(0, 1): (r - 1)!! for even r, 0 for odd r."""
    return 0.0 if r % 2 else float(math.prod(range(r - 1, 0, -2)))


def moment_residual(points, weights, R: int) -> float:
    """Worst |sum_i a_i prod_l w_il^r_l - prod_l (r_l - 1)!!| over |r| <= R."""
    W = np.asarray(points, dtype=float)
    a = np.asarray(weights, dtype=float)
    d = W.shape[1]
    worst = 0.0
    for degree in range(R + 1):
        for combo in itertools.combinations_with_replacement(range(d), degree):
            r = np.bincount(np.array(combo, dtype=int), minlength=d)
            achieved = float(np.prod(W ** r, axis=1) @ a)
            target = math.prod(normal_moment(int(k)) for k in r)
            worst = max(worst, abs(achieved - target))
    return worst


def poly_bound(gamma: float, M: float, R: int) -> float:
    """3 (e b^2 M^2 / R)^(R/2) with b = sqrt(2 gamma): the max-error bound of
    a rule with non-negative weights that is exact through degree R."""
    b2 = 2.0 * gamma
    return 3.0 * (math.e * b2 * M * M / R) ** (R / 2)


def identity_gap(Z: np.ndarray, X: np.ndarray, pairs, kt) -> float:
    """Worst |<z(x_i), z(x_j)> - k~(x_i - x_j)| over the given row pairs;
    ``kt`` evaluates k~ on a batch of displacements."""
    i = np.array([p[0] for p in pairs])
    j = np.array([p[1] for p in pairs])
    inner = np.einsum("ij,ij->i", Z[i], Z[j])
    return float(np.abs(inner - kt(X[i] - X[j])).max())
