"""Electrostatic baseline for Jacobi roots: the mobility-weighted root
dynamics whose equilibrium is the Jacobi root configuration.

Unlike the other families this is not a plain gradient flow; the right-hand
side carries the factor 2 A(x) = 2 (x^2 - 1), so it gets its own rhs rather
than the generic -gradient path. This module also owns the Jacobi domain
(strictly increasing configurations inside (-1, 1)), which the potential,
the rhs and the command line all check through ``in_domain``.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainViolation
from .params import JacobiParams


def in_domain(x: np.ndarray) -> bool:
    """Whether x is strictly increasing inside (-1, 1); NaN never is."""
    return x.size == 0 or bool((x[1:] > x[:-1]).all() and x[0] > -1 and x[-1] < 1)


def differences(x: np.ndarray) -> np.ndarray:
    """Matrix of x_j - x_k with an infinite diagonal, for x in the domain."""
    if not in_domain(x):
        raise DomainViolation(
            "Jacobi configurations must be strictly increasing inside (-1, 1)"
        )
    d = x[:, None] - x[None, :]
    d.reshape(-1)[:: x.size + 1] = np.inf
    return d


def electrostatic_drift(p: JacobiParams, x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``electrostatic_rhs`` from the matrix ``differences(x)``."""
    a_mob = x * x - 1.0
    b_drift = (p.alpha + 1) * (x + 1.0) + (p.beta + 1) * (x - 1.0)
    return -b_drift - a_mob * (2.0 / d).sum(axis=1)


def electrostatic_rhs(p: JacobiParams, x) -> np.ndarray:
    """Right-hand side -B(x_j) - A(x_j) sum_{k != j} 2/(x_j - x_k).

    A(x) = x^2 - 1 and B(x) = (alpha+1)(x+1) + (beta+1)(x-1); equals
    2 A(x_j) times the electrostatic-potential gradient component.
    """
    x = np.asarray(x, dtype=float)
    return electrostatic_drift(p, x, differences(x))


def jacobi_kappa(p: JacobiParams, n: int) -> float:
    """Guaranteed exponential decay rate 2n + alpha + beta of the baseline flow."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return 2.0 * n + p.alpha + p.beta


def equispaced_start(n: int) -> np.ndarray:
    """Equispaced interior grid -1 + 2j/(n+1), a valid ordered start."""
    j = np.arange(1, n + 1)
    return -1.0 + 2.0 * j / (n + 1)
