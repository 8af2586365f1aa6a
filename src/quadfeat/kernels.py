"""Exact kernels being approximated: Gaussian and sparse ANOVA sums.

Both are shift invariant, so everything evaluates on the displacement
u = x - y.  The Gaussian kernel is k(u) = exp(-gamma * |u|^2); gamma = 1/2
is the properly scaled kernel whose spectrum is the standard normal.
An ANOVA kernel sums products of the one-dimensional Gaussian factor over
a hypergraph of index subsets.
"""
from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class GaussianKernel:
    """k(u) = exp(-gamma * |u|^2), with k(0) = 1."""

    gamma: float = 0.5

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma!r}")

    def value(self, u: np.ndarray) -> Union[float, np.ndarray]:
        """Kernel value at displacement(s) u, shape (d,) or (n, d)."""
        u = np.asarray(u, dtype=float)
        sq = np.sum(u * u, axis=-1)
        out = np.exp(-self.gamma * sq)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class AnovaKernel:
    """Sum over subsets S of prod_{i in S} exp(-gamma (x_i - y_i)^2).

    ``subsets`` holds 1-based index tuples over {1..d}.  The hypergraph is
    given a priori; no structure inference happens here.
    """

    subsets: tuple[tuple[int, ...], ...]
    base: GaussianKernel
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be positive")
        if not self.subsets:
            raise ValueError("subset collection must be non-empty")
        canon = []
        for S in self.subsets:
            s = tuple(sorted(int(i) for i in S))
            if not s:
                raise ValueError("subsets must be non-empty")
            if len(set(s)) != len(s):
                raise ValueError(f"subset {S} has repeated indices")
            if s[0] < 1 or s[-1] > self.d:
                raise ValueError(f"subset {S} has indices outside 1..{self.d}")
            canon.append(s)
        object.__setattr__(self, "subsets", tuple(canon))

    def value(self, u: np.ndarray) -> Union[float, np.ndarray]:
        """Kernel value at displacement(s) u; depends on u_S per subset."""
        u = np.asarray(u, dtype=float)
        if u.shape[-1] != self.d:
            raise ValueError(f"expected dimension {self.d}, got {u.shape[-1]}")
        total = 0.0 if u.ndim == 1 else np.zeros(u.shape[0])
        for S in self.subsets:
            idx = np.array(S) - 1
            sq = np.sum(u[..., idx] ** 2, axis=-1)
            total = total + np.exp(-self.base.gamma * sq)
        return float(total) if u.ndim == 1 else total


def eval_gaussian(k: GaussianKernel, u: np.ndarray) -> float:
    """exp(-gamma |u|^2) at a single displacement."""
    return float(k.value(np.asarray(u, dtype=float)))


def eval_anova(k: AnovaKernel, x: np.ndarray, y: np.ndarray) -> float:
    """Sum over S of prod_{i in S} k1(x_i - y_i)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (k.d,) or y.shape != (k.d,):
        raise ValueError(f"inputs must have shape ({k.d},)")
    return float(k.value(x - y))


def anova_stats(k: AnovaKernel) -> tuple[int, int, int]:
    """(rank, degree, size): max |S|, max membership count per index, |S|."""
    rank = max(len(S) for S in k.subsets)
    membership = np.zeros(k.d, dtype=int)
    for S in k.subsets:
        for i in S:
            membership[i - 1] += 1
    return rank, int(membership.max()), len(k.subsets)


def kernel_values(kernel, U: np.ndarray) -> np.ndarray:
    """Evaluate an exact kernel on a batch of displacements (n, d).

    Accepts GaussianKernel, AnovaKernel, or any callable of one
    displacement row.
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    if hasattr(kernel, "value"):
        return np.asarray(kernel.value(U), dtype=float)
    return np.array([float(kernel(u)) for u in U])


def load_anova(path: str) -> AnovaKernel:
    """Read an ANOVA structure file: {"d": int, "gamma": real, "subsets": [[...]]}.

    Indices in the file are 1-based.  A missing or ill-typed field raises
    ConfigError with the field's name as its ``key``.
    """
    with open(path) as fh:
        raw = json.load(fh)

    def field(key, make):
        if not isinstance(raw, dict) or key not in raw:
            raise ConfigError(f"{path}: missing ANOVA structure field {key!r}",
                              key=key)
        try:
            return make(raw[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: ANOVA structure field {key!r}: {exc}",
                              key=key) from None

    d = field("d", _dimension)
    base = field("gamma", lambda g: GaussianKernel(_number(g)))
    return field("subsets", lambda subsets: AnovaKernel(
        tuple(tuple(operator.index(i) for i in S) for S in subsets), base, d))


def _dimension(value) -> int:
    d = operator.index(value)
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    return d


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def save_anova(kernel: AnovaKernel, path: str) -> None:
    payload = {
        "d": kernel.d,
        "gamma": kernel.base.gamma,
        "subsets": [list(S) for S in kernel.subsets],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def random_anova(
    d: int, m: int, subset_size: int, gamma: float, seed: int
) -> AnovaKernel:
    """m random subsets of the given size over {1..d}, chosen a priori."""
    rng = np.random.default_rng(seed)
    subsets = tuple(
        tuple(sorted(rng.choice(d, size=subset_size, replace=False) + 1))
        for _ in range(m)
    )
    return AnovaKernel(subsets=subsets, base=GaussianKernel(gamma), d=d)
