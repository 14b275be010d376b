"""Independent verification of computed roots.

The companion oracle is the independent check: it finds the roots of the
series polynomial from its coefficients, as companion-matrix eigenvalues
Newton-polished with exact integer evaluation of the polynomial. An even or
odd polynomial x^r q(x^2), such as a symmetric continuous Hahn one, is
solved as q, at half the degree: half the roots, each polished with half the
terms.

The Bethe product identities and the difference equation at the nodes are
one identity in two normalisations. With u_j = A(x_j) p(x_j + i) / p'(x_j) and
w_j = A(-x_j) p(x_j - i) / p'(x_j), the difference equation is
u_j + w_j = 0 and the Bethe identity is u_j / w_j = -1, so one product pass
(``_node_terms``) serves both. It forms each p(x_j + i) / p'(x_j) as a
product of O(1) ratios over the other nodes, so it neither evaluates the
polynomial nor overflows with the degree, and it forms the Bethe quotient
u_j / w_j factor by factor, so the quotient stays in range where A(+-x_j)
overflows. A residual whose arithmetic overflows raises instead of passing.
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
_ROWS = 32


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
    positive square roots are returned. A polynomial in x of degree n > 1
    whose coefficients of the other parity than n are all exactly 0 is
    p(x) = x^r q(x**2), r = n mod 2: unless q(0) = 0, its roots are found as
    those of q, at half the degree, and returned as -sqrt(y) (reversed),
    0.0 when r = 1, and sqrt(y).
    """
    if poly.degree < 1:
        raise ValueError("degree must be at least 1")
    c, r = poly.coeffs, poly.degree % 2
    if (poly.variable_kind is VariableKind.X and poly.degree > 1 and c[r] != 0
            and not np.any(c[1 - r::2])):
        y = companion_roots(MonicPoly(c[r::2], VariableKind.X_SQUARED))
        return np.concatenate([-y[::-1], np.zeros(r), y])
    raw = np.roots(c[::-1])
    if not np.all(np.isfinite(raw)):
        raise PrecisionLoss("companion eigenvalues are not finite")
    scale = 1.0 + np.abs(raw.real)
    if np.any(np.abs(raw.imag) > _IMAG_ROOT_TOL * scale):
        raise ComplexRoots("companion roots have non-negligible imaginary parts")
    roots = np.sort(_newton_polish(c, raw.real))
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


def _shift_ratios(x: np.ndarray, squared: bool) -> np.ndarray:
    """p(x_j + i) / p'(x_j) at every node x_j of p(z) = prod_k (q(z) - q(x_k)),
    with q(z) = z, or q(z) = z^2 when ``squared``, in ratio form:

        (t_j / q'(x_j)) prod_{k != j} (1 + t_j / (q(x_j) - q(x_k))),

    where t_j = q(x_j + i) - q(x_j) is i or 2 i x_j - 1. Every factor is
    O(1) for well-separated nodes, so the products stay in range where
    p(x_j + i) and p'(x_j) overflow on their own. Blocks of _ROWS rows keep
    the temporaries O(n), not O(n^2). Since x_j is real, p(x_j - i) / p'(x_j)
    is the conjugate.
    """
    if squared:  # p sees a node x_k only through x_k^2, so through |x_k|
        nodes, t, dq = np.abs(x), 2j * x - 1.0, 2.0 * x
    else:
        nodes, t, dq = x, np.full(x.size, 1j), 1.0
    ratios = t / dq
    for lo in range(0, x.size, _ROWS):
        rows = slice(lo, lo + _ROWS)
        gap = nodes[rows, None] - nodes
        gap[np.arange(gap.shape[0]), lo + np.arange(gap.shape[0])] = np.inf  # k = j: factor 1
        if np.any(np.abs(gap) < _SINGULAR_TOL):
            raise SingularFactor(f"two nodes lie within {_SINGULAR_TOL} (repeated roots?)")
        den = gap * (nodes[rows, None] + nodes) if squared else gap
        ratios[rows] *= np.prod(1.0 + t[rows, None] / den, axis=1)
    return ratios


def _node_terms(roots, family: Family, params):
    """u_j = A(x_j) p(x_j + i) / p'(x_j), w_j = A(-x_j) p(x_j - i) / p'(x_j),
    the quotient u_j / w_j at every node, for p the monic polynomial with the
    given roots, and lambda_n. u_j / w_j is (-1)^n times the left side of the
    continuous Hahn product identity and minus the left side of the Wilson
    one; it is formed factor by factor, as prod_e (x_j + i e) / (-x_j + i e)
    times ratio_j / conj(ratio_j), so it stays in range where A(+-x_j) on its
    own overflows."""
    roots = np.asarray(roots, dtype=float)
    n = roots.size
    if family is Family.CH:
        values, squared = (params.a, params.b), False
        lam = -n * (n + 2 * params.a + 2 * params.b - 1)
    elif family is Family.WILSON:
        values, squared = params.values, True
        a, b, c, d = values
        lam = -n * (n + a + b + c + d - 1)
        # A(x) = prod_v (x + i v) / (2 x (2 x + i)); a parameter v = 0 gives
        # the factor x, which cancels the pole at x = 0, so only a node
        # exactly at 0, where p'(x) of a polynomial in x^2 vanishes, is singular
        pole = 0 not in values
        if np.any(np.abs(roots) < _SINGULAR_TOL if pole else roots == 0):
            raise SingularFactor("Wilson A(x) is singular at x = 0")
        if not pole:
            values = list(values)
            values.remove(0)
    else:
        raise ValueError(f"unsupported family {family}")
    e = 1j * np.array(values, dtype=complex)
    with np.errstate(all="ignore"):  # overflow shows as a non-finite residual
        z = np.stack([roots, -roots])
        factors = z[..., None] + e
        coeff_a = np.prod(factors, axis=-1)
        quotient = np.prod(factors[0] / factors[1], axis=-1)
        if squared:
            wilson = 2.0 * z * (2.0 * z + 1j) if pole else 2.0 * (2.0 * z + 1j)
            coeff_a /= wilson
            quotient *= wilson[1] / wilson[0]
        ratios = _shift_ratios(roots, squared)
        quotient *= ratios / ratios.conj()
        return coeff_a[0] * ratios, coeff_a[1] * ratios.conj(), quotient, lam


def _bethe_max(quotient: np.ndarray) -> float:
    """max_j |1 + u_j / w_j|, the deviation of either product identity."""
    with np.errstate(all="ignore"):
        worst = np.max(np.abs(1.0 + quotient), initial=0.0)  # a NaN propagates
    return _finite(float(worst), "Bethe residual")


def _diff_eq_max(u: np.ndarray, w: np.ndarray, lam) -> float:
    scale = _finite(abs(lam), "difference-equation scale")
    if scale < _SINGULAR_TOL:
        raise SingularFactor(f"|lambda_n| = {scale} below {_SINGULAR_TOL}")
    with np.errstate(all="ignore"):
        worst = np.max(np.abs(u + w)) / scale
    return _finite(float(worst), "difference-equation term")


def bethe_residual_ch(x, p: ContinuousHahnParams) -> float:
    """Max deviation of the continuous Hahn product identity from (-1)^(n+1)."""
    return _bethe_max(_node_terms(x, Family.CH, p)[2])


def bethe_residual_w(x, p: WilsonParams) -> float:
    """Max deviation of the Wilson product identity from 1."""
    return _bethe_max(_node_terms(x, Family.WILSON, p)[2])


def diff_eq_residual(poly: MonicPoly, roots, family: Family, params) -> float:
    """Normalized residual of the difference equation at the nodes.

    Max over j of |A(x_j) p(x_j + i) + A(-x_j) p(x_j - i)| divided by
    |lambda_n| |p'(x_j)|, for p the monic polynomial with the given roots.
    ``poly`` supplies only the degree n: the residual tests the roots
    against the difference equation of ``params``, not the coefficients.
    """
    roots = np.asarray(roots, dtype=float)
    n = poly.degree
    if roots.size != n:
        raise ValueError("number of roots must match the polynomial degree")
    if n == 0:
        return 0.0
    u, w, _, lam = _node_terms(roots, family, params)
    return _diff_eq_max(u, w, lam)


def full_verify(family: Family, params, n: int) -> VerificationReport:
    """Solve for the equilibrium by damped Newton from the default start and
    cross-check it against every oracle.

    A parity-reduced system is checked as the Wilson system it is, at
    ``family.wilson_params(params)``; at d = 0 the Bethe factor of d is -1.
    """
    if family is Family.JACOBI:
        raise ValueError("verify supports the families ch, wilson, ch-even and ch-odd")
    if n < 1:
        raise ValueError(f"verify needs n >= 1, got {n}")
    kind = PotentialKind(family, params)
    if family is Family.CH:
        poly = monic_continuous_hahn(n, params)
    else:
        family, params = Family.WILSON, family.wilson_params(params)
        poly = monic_wilson(n, params)
    eq = newton_solve(kind, default_start(kind, n), tol=1e-12)
    roots = np.sort(eq)
    comp = companion_roots(poly)
    mismatch = float(np.max(np.abs(roots - comp)))

    u, w, quotient, lam = _node_terms(roots, family, params)
    bethe, diff_res = _bethe_max(quotient), _diff_eq_max(u, w, lam)
    min_eig = min_eigenvalue_symmetric(hessian(kind, eq))
    return VerificationReport(bethe, diff_res, mismatch, min_eig)
