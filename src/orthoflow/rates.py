"""Theoretical exponential-rate bounds and empirical decay-rate fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSamples
from .jacobi_baseline import jacobi_kappa
from .params import ContinuousHahnParams, Family, WilsonParams
from .potentials import PotentialKind
from .flow import Trajectory

#: errors below this floor are numerical noise and excluded from fits
_ERROR_FLOOR = 10.0 * np.finfo(float).eps


@dataclass(frozen=True)
class RateReport:
    kappa_bound: float
    measured_slopes: np.ndarray
    fit_window: tuple[float, float]
    R_n: float

    def __post_init__(self):
        if self.kappa_bound <= 0:
            raise ValueError("kappa_bound must be positive")


def _param_term(a: complex, r: float) -> float:
    # a zero parameter (a reduced system's d = 0) contributes its limit 0
    return a.real / (a.real**2 + (r + abs(a.imag)) ** 2) if a else 0.0


def kappa_continuous_hahn(p: ContinuousHahnParams, r_n: float) -> float:
    """Right endpoint of the admissible decay-rate interval (full flow)."""
    if r_n < 0:
        raise ValueError("R_n must be nonnegative")
    return _param_term(p.a, r_n) + _param_term(p.b, r_n)


def _wilson_terms(values, m: int, r_n: float) -> float:
    if r_n < 0:
        raise ValueError("R_n must be nonnegative")
    crowd = 2.0 * (m - 1) / (1.0 + 4.0 * r_n * r_n)
    return crowd + sum(_param_term(e, r_n) for e in values)


def kappa_wilson(p: WilsonParams, n: int, r_n: float) -> float:
    """Right endpoint of the Wilson decay-rate interval."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return _wilson_terms(p.values, n, r_n)


def kappa_continuous_hahn_symmetric(p: ContinuousHahnParams, n: int, r_n: float) -> float:
    """Improved rate endpoint valid for parity-symmetric initial conditions:
    the Wilson bound of the parity-reduced system, with m = n // 2 roots and
    the extra parameters (c, d) = (1/2, n mod 2)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return _wilson_terms(Family.reduction(n).wilson_params(p).values, n // 2, r_n)


def kappa_bound(kind: PotentialKind, n: int, r_n: float) -> float:
    """Decay-rate bound of the flow of ``kind`` at degree n, whose
    equilibrium has R_n = max_j |x_j*| (the reduced systems are Wilson
    flows, and their bound is the parity-symmetric bound of the full
    degree-2n or 2n+1 flow)."""
    fam = kind.family
    p = kind.params
    if fam is Family.CONTINUOUS_HAHN:
        return kappa_continuous_hahn(p, r_n)
    if fam is Family.JACOBI:
        return jacobi_kappa(p, n)
    return kappa_wilson(fam.wilson_params(p), n, r_n)


def measure_decay(
    traj: Trajectory, equilibrium, window: tuple[float, float] | None = None
) -> RateReport:
    """Fit per-coordinate slopes of log|x_j(t) - x_j*| inside the window.

    Slopes are negated so positive values mean decay. Samples with error at
    the numerical noise floor are excluded; a trajectory of one sample (the
    flow recorded no step) or fewer than 5 usable samples for any
    coordinate raises InsufficientSamples.
    """
    eq = np.asarray(equilibrium, dtype=float)
    t = traj.times
    if eq.size != traj.states.shape[1]:
        raise ValueError("equilibrium length does not match trajectory states")
    if eq.size == 0:
        raise ValueError("no coordinates to fit: n must be at least 1")
    if t.size == 1:
        raise InsufficientSamples(
            "the flow recorded no step (its start already meets grad_tol): no decay to fit"
        )
    if window is None:
        window = (float(t[-1]) / 6.0, 5.0 * float(t[-1]) / 6.0)
    w0, w1 = window
    if not (t[0] <= w0 < w1 <= t[-1]):
        raise ValueError(f"window {window} outside trajectory time range")

    in_window = (t >= w0) & (t <= w1)
    err = np.abs(traj.states - eq[None, :])
    slopes = np.empty(eq.size)
    for jdx in range(eq.size):
        usable = in_window & (err[:, jdx] > _ERROR_FLOOR)
        if np.count_nonzero(usable) < 5:
            raise InsufficientSamples(
                f"coordinate {jdx + 1} has fewer than 5 samples above the noise floor"
            )
        slope, _ = np.polyfit(t[usable], np.log(err[usable, jdx]), 1)
        slopes[jdx] = -slope

    r_n = float(np.max(np.abs(eq)))
    kappa = kappa_bound(traj.kind, eq.size, r_n)
    return RateReport(kappa, slopes, (float(w0), float(w1)), r_n)
