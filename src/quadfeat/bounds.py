"""Closed-form error bounds and count formulas, usable as test oracles.

The subgaussian parameter of the unit-bandwidth standard normal spectrum
is b = 1; a bandwidth gamma rescales it to b = sqrt(2 gamma).
"""
from __future__ import annotations

import math
from typing import Optional


def subgaussian_parameter(gamma: float) -> float:
    """b for the N(0, 2 gamma I) spectrum of exp(-gamma |u|^2)."""
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
    return math.sqrt(2.0 * gamma)


def poly_bound(b: float, M: float, R: int) -> float:
    """Max-error bound 3 (e b^2 M^2 / R)^(R/2) for rules with non-negative
    weights exact through even degree R >= 2."""
    if R < 2 or R % 2 != 0:
        raise ValueError("R must be an even integer >= 2")
    if not (0 < b < math.inf and 0 <= M < math.inf):
        raise ValueError("b must be positive and M non-negative, both finite")
    return 3.0 * (math.e * b * b * M * M / R) ** (R / 2)


def sparse_bound(b: float, M: float, A: int, d: int) -> Optional[float]:
    """Max-error bound 2^d (12 e b^2 M^2 / A)^A for the level-A sparse grid.

    Applies only when A >= 24 e b^2 M^2; returns None outside that regime.
    """
    if not (0 < b < math.inf and 0 <= M < math.inf) or A < 0 or d < 1:
        raise ValueError("need finite b > 0 and M >= 0, A >= 0, d >= 1")
    if M == 0.0:
        return 0.0
    if A < 24.0 * math.e * b * b * M * M:
        return None
    return (2.0**d) * (12.0 * math.e * b * b * M * M / A) ** A


def counts(d: int, R: int, A: int, L: int) -> tuple[int, int, int]:
    """(moment constraints C(d+R, d), dense size L^d, sparse bound 3^A C(d+A, A)).

    Exact integers; Python's arbitrary precision covers any overflow.
    """
    if min(d, R, A, L) < 0:
        raise ValueError("inputs must be non-negative")
    return math.comb(d + R, d), L**d, (3**A) * math.comb(d + A, A)
