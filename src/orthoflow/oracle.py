"""Independent verification of computed roots.

Companion-matrix eigenvalues, Bethe-type product identities and the
second-order difference equation at the nodes all check a computed
equilibrium without touching the code that computed it. The
difference-equation residual evaluates the polynomial in factored form
(products over the supplied roots); Horner on the expanded coefficients
loses several digits at degree ~30 and large |x|. The companion
eigenvalues are Newton-polished with exact integer evaluation of the
polynomial at each double iterate, and a residual whose products overflow
raises instead of passing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComplexRoots, PrecisionLoss, SingularFactor
from .flow import PotentialKind, default_start, newton_solve
from .params import ContinuousHahnParams, Family, WilsonParams
from .polynomials import (
    MonicPoly,
    VariableKind,
    _dyadic,
    _exact_to_float,
    monic_continuous_hahn,
    monic_wilson,
)
from .potentials import hessian

_IMAG_ROOT_TOL = 1e-6
_NEWTON_MAX_STEPS = 50
_SINGULAR_TOL = 1e-12
_BETHE_ROWS = 32


@dataclass(frozen=True)
class VerificationReport:
    max_bethe_residual: float
    max_diff_eq_residual: float
    root_mismatch: float
    hessian_min_eigenvalue: float

    def __post_init__(self):
        vals = (
            self.max_bethe_residual,
            self.max_diff_eq_residual,
            self.root_mismatch,
        )
        if not all(np.isfinite(v) and v >= 0 for v in vals):
            raise ValueError("residual entries must be finite and nonnegative")
        if not np.isfinite(self.hessian_min_eigenvalue):
            raise ValueError("hessian_min_eigenvalue must be finite")


def _newton_polish(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Newton-polish real roots of sum(coeffs[k] x^k) from the estimates z.

    At degree ~25 the eigenvalue solver returns roots good to ~1e-6 only.
    Each step evaluates p and p' exactly at the double iterates (all roots
    at once, by a homogeneous integer Horner scheme) and rounds the exact
    Newton update to double; a root is done when its iterate repeats or
    p' vanishes there. This recovers the roots of the stored coefficients
    to full double precision.
    """
    cs, _ = _dyadic(coeffs[::-1])  # the common scale cancels in p / p'
    z = np.array(z, dtype=float)
    todo = np.arange(z.size)
    for _ in range(_NEWTON_MAX_STEPS):
        if todo.size == 0:
            break
        nums, sh = _dyadic(z[todo])  # iterate = num / 2**sh
        num = np.array(nums, dtype=object)
        # after t coefficients: pv = p_t(z) 2**(sh (t-1)), dv = p_t'(z) 2**(sh (t-2))
        pv = np.zeros(todo.size, dtype=object)
        dv = np.zeros(todo.size, dtype=object)
        for t, c in enumerate(cs):
            dv = dv * num + pv
            pv = pv * num + (c << (sh * t))
        live = dv != 0
        # z - p / p' = (num dv - pv) / (2**sh dv)
        new = _exact_to_float(num[live] * dv[live] - pv[live], [v << sh for v in dv[live]])
        moved = new != z[todo[live]]
        z[todo[live]] = new
        todo = todo[live][moved]
    return z


def companion_roots(poly: MonicPoly) -> np.ndarray:
    """All roots via balanced QR iteration on the companion matrix, sorted,
    then Newton-polished with exact evaluation of the polynomial.

    For polynomials in x**2 the roots in x**2 must all be positive; the
    positive square roots are returned.
    """
    if poly.degree < 1:
        raise ValueError("degree must be at least 1")
    raw = np.roots(poly.coeffs[::-1])
    if not np.all(np.isfinite(raw)):
        raise PrecisionLoss("companion eigenvalues are not finite")
    scale = 1.0 + np.abs(raw.real)
    if np.any(np.abs(raw.imag) > _IMAG_ROOT_TOL * scale):
        raise ComplexRoots("companion roots have non-negligible imaginary parts")
    roots = np.sort(_newton_polish(poly.coeffs, raw.real))
    if poly.variable_kind is VariableKind.X_SQUARED:
        if np.any(roots <= 0):
            raise ComplexRoots("x^2-roots must be positive inside the orthogonality regime")
        roots = np.sqrt(roots)
    return roots


def min_eigenvalue_symmetric(a: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix (LAPACK ``eigvalsh``)."""
    a = np.array(a, dtype=float)
    if a.shape[0] == 0:
        raise ValueError("empty matrix")
    return float(np.linalg.eigvalsh(a)[0])


def _finite(value, what: str):
    """``value``, or PrecisionLoss if it is not finite: max(0.0, nan) is 0.0,
    so an overflowed term would otherwise drop out of a residual silently."""
    if not np.isfinite(value):
        raise PrecisionLoss(f"{what} is not finite ({value}): its arithmetic overflowed")
    return value


def _bethe_lhs(x, values, signs) -> np.ndarray:
    """Left sides of the Bethe product identities, one per root x_j:

        prod_e (i e + x_j) / (i e - x_j)
          * prod_{k != j} prod_s (i + x_j + s x_k) / (i - x_j - s x_k)

    over the parameter values e and the signs s. The factors of a block of
    rows form one array of ratios, multiplied out along each row; blocks of
    _BETHE_ROWS rows keep the temporaries O(n), not O(n^2).
    """
    x = np.asarray(x, dtype=float)
    e = 1j * np.asarray(values, dtype=complex)
    lhs = np.empty(x.size, dtype=complex)
    for lo in range(0, x.size, _BETHE_ROWS):
        xj = x[lo:lo + _BETHE_ROWS, None]
        diagonal = (np.arange(xj.size), lo + np.arange(xj.size))
        nums, dens = [e + xj], [e - xj]
        for s in signs:
            u = xj + s * x[None, :]
            u[diagonal] = 0.0  # the k = j factor becomes i / i = 1
            nums.append(1j + u)
            dens.append(1j - u)
        den = np.concatenate(dens, axis=1)
        small = np.abs(den) < _SINGULAR_TOL  # a NaN compares False: not small
        if np.any(small):
            raise SingularFactor(f"denominator factor {den[small][0]} below {_SINGULAR_TOL}")
        lhs[lo:lo + _BETHE_ROWS] = np.prod(np.concatenate(nums, axis=1) / den, axis=1)
    return lhs


def _bethe_residual(lhs: np.ndarray, target: float) -> float:
    worst = np.max(np.abs(lhs - target), initial=0.0)  # a NaN propagates
    return _finite(float(worst), "Bethe residual")


def bethe_residual_ch(x, p: ContinuousHahnParams) -> float:
    """Max deviation of the continuous Hahn product identity from (-1)^(n+1)."""
    x = np.asarray(x, dtype=float)
    return _bethe_residual(_bethe_lhs(x, (p.a, p.b), (-1.0,)), (-1.0) ** (x.size + 1))


def bethe_residual_w(x, p: WilsonParams) -> float:
    """Max deviation of the Wilson product identity from 1."""
    return _bethe_residual(_bethe_lhs(x, p.values, (1.0, -1.0)), 1.0)


def _factored_eval(roots: np.ndarray, z: complex, squared: bool) -> complex:
    if squared:
        return complex(np.prod(z * z - roots * roots))
    return complex(np.prod(z - roots))


def diff_eq_residual(poly: MonicPoly, roots, family: Family, params) -> float:
    """Normalized residual of the difference equation at the nodes.

    Max over j of |A(x_j) p(x_j + i) + A(-x_j) p(x_j - i)| divided by
    |lambda_n| |p'(x_j)|; p is evaluated through its factored form.
    """
    roots = np.asarray(roots, dtype=float)
    n = poly.degree
    if roots.size != n:
        raise ValueError("number of roots must match the polynomial degree")

    if family is Family.CH:
        a, b = params.a, params.b
        lam = -n * (n + 2 * a + 2 * b - 1)

        def coeff_a(z):
            return (z + 1j * a) * (z + 1j * b)

        squared = False
    elif family is Family.WILSON:
        a, b, c, d = params.values
        lam = -n * (n + a + b + c + d - 1)

        def coeff_a(z):
            if abs(z) < _SINGULAR_TOL:
                raise SingularFactor("Wilson A(x) is singular at x = 0")
            return (z + 1j * a) * (z + 1j * b) * (z + 1j * c) * (z + 1j * d) / (
                2.0 * z * (2.0 * z + 1j)
            )

        squared = True
    else:
        raise ValueError(f"unsupported family {family}")

    worst = 0.0
    for j in range(n):
        xj = roots[j]
        others = np.delete(roots, j)
        if squared:
            dp = 2.0 * xj * np.prod(xj * xj - others * others)
        else:
            dp = np.prod(xj - others)
        lhs = coeff_a(xj) * _factored_eval(roots, xj + 1j, squared)
        lhs += coeff_a(-xj) * _factored_eval(roots, xj - 1j, squared)
        scale = _finite(abs(lam) * abs(dp), "difference-equation scale")
        _finite(lhs, "difference-equation term")
        if scale < _SINGULAR_TOL:
            raise SingularFactor("degenerate normalization scale (repeated roots?)")
        worst = max(worst, abs(lhs) / scale)
    return worst


def full_verify(family: Family, params, n: int) -> VerificationReport:
    """Solve for the equilibrium by damped Newton from the default start and
    cross-check it against every oracle.

    A parity-reduced system is checked as the Wilson system it is, at
    ``family.wilson_params(params)``; at d = 0 the Bethe factor of d is -1.
    """
    if family is Family.JACOBI:
        raise ValueError("verify supports the families ch, wilson, ch-even and ch-odd")
    kind = PotentialKind(family, params)
    if family is Family.CH:
        poly, bethe_residual = monic_continuous_hahn(n, params), bethe_residual_ch
    else:
        family, params = Family.WILSON, family.wilson_params(params)
        poly, bethe_residual = monic_wilson(n, params), bethe_residual_w
    eq = newton_solve(kind, default_start(kind, n), tol=1e-12)
    roots = np.sort(eq)
    comp = companion_roots(poly)
    mismatch = float(np.max(np.abs(roots - comp)))

    bethe = bethe_residual(roots, params)
    diff_res = diff_eq_residual(poly, roots, family, params)
    min_eig = min_eigenvalue_symmetric(hessian(kind, eq))
    return VerificationReport(bethe, diff_res, mismatch, min_eig)
