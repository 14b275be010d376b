"""Theoretical exponential-rate bounds and empirical decay-rate fits."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSamples
from .params import ContinuousHahnParams, Family, JacobiParams
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
    """alpha / (alpha^2 + s^2), with alpha = Re a and s = r + |Im a|; a zero
    parameter (a reduced system's d = 0) contributes its limit 0. Dividing
    by the hypotenuse twice keeps the term where the squares under- or
    overflow."""
    if not a:
        return 0.0
    h = math.hypot(a.real, r + abs(a.imag))
    return a.real / h / h


def kappa_bound(kind: PotentialKind, n: int, r_n: float) -> float:
    """Decay-rate bound of the flow of ``kind`` at degree n >= 1, whose
    equilibrium has R_n = max_j |x_j*|.

    Continuous Hahn: the parameter terms of ``_param_term``. Jacobi: the
    guaranteed rate 2n + alpha + beta, independent of R_n. Wilson: the
    parameter terms plus the crowd term 2(n - 1)/(1 + 4 R_n^2). A reduced
    system of n = m roots is a Wilson flow, and its bound is the
    parity-symmetric bound of the full degree-2m or 2m+1 flow.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if r_n < 0:
        raise ValueError("R_n must be nonnegative")
    fam, p = kind.family, kind.params
    if fam is Family.JACOBI:
        return 2.0 * n + p.alpha + p.beta
    if fam is Family.CONTINUOUS_HAHN:
        return _param_term(p.a, r_n) + _param_term(p.b, r_n)
    crowd = 2.0 * (n - 1) / (1.0 + 4.0 * r_n * r_n)
    return crowd + sum(_param_term(e, r_n) for e in fam.wilson_params(p).values)


def kappa_continuous_hahn(p: ContinuousHahnParams, r_n: float) -> float:
    """``kappa_bound`` of the full continuous Hahn flow, at any degree."""
    return kappa_bound(PotentialKind(Family.CONTINUOUS_HAHN, p), 1, r_n)


def kappa_continuous_hahn_symmetric(p: ContinuousHahnParams, n: int, r_n: float) -> float:
    """``kappa_bound`` of the parity-reduced system of the degree-n flow,
    which holds for parity-symmetric starts; n >= 2."""
    return kappa_bound(PotentialKind(Family.reduction(n), p), n // 2, r_n)


def jacobi_kappa(p: JacobiParams, n: int) -> float:
    """``kappa_bound`` of the Jacobi flow: 2n + alpha + beta."""
    return kappa_bound(PotentialKind(Family.JACOBI, p), n, 0.0)


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

    # one least-squares line per column of the window's log errors, each
    # over its usable samples only: centred on their means, the slope is
    # sum tc (L - mean L) / sum tc^2 with tc = t - mean t there, 0 elsewhere
    rows = (t >= w0) & (t <= w1)
    err = np.abs(traj.states[rows] - eq)
    usable = err > _ERROR_FLOOR
    count = np.count_nonzero(usable, axis=0)
    short = np.flatnonzero(count < 5)
    if short.size:
        raise InsufficientSamples(
            f"coordinate {short[0] + 1} has fewer than 5 samples above the noise floor"
        )
    logs = np.log(err, out=np.zeros_like(err), where=usable)
    tc = np.where(usable, t[rows, None], 0.0)
    tc -= usable * (tc.sum(axis=0) / count)
    lc = logs - usable * (logs.sum(axis=0) / count)
    slopes = -(tc * lc).sum(axis=0) / (tc * tc).sum(axis=0)

    r_n = float(np.max(np.abs(eq)))
    kappa = kappa_bound(traj.kind, eq.size, r_n)
    return RateReport(kappa, slopes, (float(w0), float(w1)), r_n)
