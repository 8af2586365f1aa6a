"""One-dimensional Gaussian quadrature for the standard normal density.

We need rules (nodes w_l, weights a_l) such that

    integral N(0,1)(w) f(w) dw  ~=  sum_l a_l f(w_l),

exact for every polynomial of degree <= 2L - 1.  Nodes are the roots of the
probabilists' Hermite polynomial He_L.  ``gauss_hermite`` takes them from
``numpy.polynomial.hermite_e.hermegauss``: eigenvalues of the symmetric
Jacobi matrix (zero diagonal, off-diagonal sqrt(k)) polished by one Newton
step, with weights from the normalized Hermite recurrence rather than from
eigenvectors, so the tiny outer weights of large rules do not underflow.
Nodes and weights are mirrored, so every rule is exactly symmetric; the
weights are rescaled to total mass 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

MAX_RULE_SIZE = 200


@dataclass(frozen=True)
class QuadratureRule1D:
    """Nodes (ascending) and strictly positive weights summing to 1."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.nodes, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if x.shape != w.shape or x.ndim != 1 or x.size < 1:
            raise ValueError("nodes and weights must be matching 1-d arrays")
        if not (w > 0).all():
            raise ValueError("weights must be strictly positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {w.sum()!r}, expected 1 within 1e-12")
        if x.size > 1 and not (np.diff(x) > 0).all():
            raise ValueError("nodes must be strictly increasing")
        x.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "nodes", x)
        object.__setattr__(self, "weights", w)

    @property
    def point_count(self) -> int:
        return self.nodes.size


@lru_cache(maxsize=None)
def gauss_hermite(L: int) -> QuadratureRule1D:
    """L-point Gauss rule for the standard normal density.

    Exact for all monomials w^p with p <= 2L - 1: the integral is 0 for odd
    p and (p - 1)!! for even p.  ``L`` must lie in 1..200.
    """
    if not isinstance(L, (int, np.integer)) or isinstance(L, bool):
        raise ValueError("L must be an integer")
    if not 1 <= L <= MAX_RULE_SIZE:
        raise ValueError(f"L must be in 1..{MAX_RULE_SIZE}, got {L}")
    nodes, weights = hermegauss(L)
    return QuadratureRule1D(nodes, weights / weights.sum())


def integrate_1d(rule: QuadratureRule1D, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Apply the rule: sum_l a_l f(w_l).  ``f`` is called once, on the whole
    node array, and must return one value per node; a result of any other
    shape raises ValueError naming that shape."""
    values = np.asarray(f(rule.nodes), dtype=float)
    if values.shape != rule.nodes.shape:
        raise ValueError(f"f returned shape {values.shape}, not the nodes' "
                         f"shape {rule.nodes.shape}")
    return float(rule.weights @ values)


def double_factorial(n: int) -> float:
    """n!! as a float; returns 1.0 for n <= 0."""
    result = 1.0
    while n > 1:
        result *= n
        n -= 2
    return result


def normal_moment(p: int) -> float:
    """Exact p-th moment of the standard normal: (p - 1)!! for even p, else 0."""
    if p < 0:
        raise ValueError("moment order must be non-negative")
    return double_factorial(p - 1) if p % 2 == 0 else 0.0
