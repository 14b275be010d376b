"""Monic continuous Hahn, Wilson and Jacobi polynomials from their
terminating hypergeometric series.

The alternating series terms cancel massively (tens of digits at degree
30), so the series is summed exactly: every double parameter is a dyadic
rational, and after scaling term k by the full Pochhammer denominators the
sum is a polynomial with Gaussian-integer coefficients. Each coefficient is
rounded to double once, by one exact integer division, so no working
precision has to be chosen. The conjugate-pair parameter constraints make
the imaginary parts vanish (up to the conjugacy tolerance of the parameter
records), which is asserted rather than silently truncated.

The Horner scheme over the terms multiplies the coefficient array by one
polynomial factor per step; the other per-term factors enter through exact
prefix products of scalars (``_series``). The Wilson series is summed around
a real parameter where one can serve (``_pivot``), which makes that factor
real.

Only the Wilson 4F3 and the Jacobi 2F1 are summed. The symmetric continuous
Hahn polynomials are Wilson polynomials in x^2 (Koekoek, Lesky & Swarttouw
2010, sections 9.1 and 9.4): CH_2m(x) = W_m(x^2; a, b, 1/2, 0) and
CH_2m+1(x) = x W_m(x^2; a, b, 1/2, 1). The rounded Wilson leading
coefficient is exactly +-1, so making it monic rounds nothing again, and
each continuous Hahn coefficient is the correctly rounded value of its exact
rational, the value a continuous Hahn 3F2 series summed exactly would give.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import comb, factorial

import numpy as np

from .errors import DegenerateParameters, PrecisionLoss
from .params import ContinuousHahnParams, Family, JacobiParams, WilsonParams

#: scaled tolerance for discarding imaginary coefficient residue
_IMAG_RESIDUE_TOL = 1e-9

#: default degree cap; companion-matrix verification degrades beyond this
MAX_DEGREE = 64


class VariableKind(Enum):
    X = "x"
    X_SQUARED = "x^2"


@dataclass(frozen=True)
class MonicPoly:
    """Real monic polynomial, coefficients ascending (coeffs[-1] == 1).

    ``variable_kind`` records whether the indeterminate is x or x**2
    (Wilson polynomials are monic in x**2).
    """

    coeffs: np.ndarray
    variable_kind: VariableKind = VariableKind.X

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a nonempty 1-d vector")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        if c[-1] != 1.0:
            raise ValueError("leading coefficient must be exactly 1")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1


def _dyadic(values) -> tuple[list[int], int]:
    """Finite doubles as integers over one power of two.

    Returns ``(nums, shift)`` with ``values[i] == nums[i] / 2**shift`` exactly.
    """
    ratios = [float(v).as_integer_ratio() for v in values]
    shift = max(den.bit_length() for _, den in ratios) - 1
    return [num << (shift + 1 - den.bit_length()) for num, den in ratios], shift


def _exact_to_float(nums, dens) -> np.ndarray:
    """Correctly rounded doubles of the exact ratios nums[i] / dens[i]."""
    try:
        return np.array([num / den for num, den in zip(nums, dens)], dtype=float)
    except OverflowError:
        raise PrecisionLoss("an exact result exceeds the double range") from None


def _gmul(x, y):
    """Product of Gaussian integers given as (re, im) pairs; the parts of
    ``y`` may be object arrays. A real ``x`` (the Jacobi y-shift in
    ``_series``, every factor of a real-pivot series) costs two products, not
    four."""
    if not x[1]:
        return (x[0] * y[0], x[0] * y[1])
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gprod(zs):
    out = (1, 0)
    for z in zs:
        out = _gmul(out, z)
    return out


def _rising(z, d: int, n: int) -> list:
    """The Gaussian integers z, z + d, ..., z + (n-1) d."""
    return [(z[0] + j * d, z[1]) for j in range(n)]


def _series(upper, lower, const, lin):
    """Exact sum over k = 0..n of

        (-1)^k C(n, k) prod_{j<k} upper[j] prod_{k<=j<n} lower[j] prod_{j<k} (const[j] + lin y)

    for length-n lists of Gaussian integers (re, im). Returns the ascending
    coefficients in y as a pair (re, im) of integer object arrays, and the
    product U_n of all the upper factors.

    Horner over k: H_n = s_n and H_k = s_k + (const[k] + lin y) H_{k+1}, with
    the scalars s_k = (-1)^k C(n, k) U_k L_k, U_k = prod_{j<k} upper[j] (the
    prefix products) and L_k = prod_{j>=k} lower[j]. The upper factors thus
    enter through the scalars only: a step multiplies the array by const[k]
    alone, and by lin unless lin is 1.
    """
    n = len(upper)
    prefix = [(1, 0)]
    for u in upper:
        prefix.append(_gmul(prefix[-1], u))
    sign = (-1) ** n
    re = np.array([sign * prefix[n][0]], dtype=object)
    im = np.array([sign * prefix[n][1]], dtype=object)
    low = (1, 0)
    for k in range(n - 1, -1, -1):
        low = _gmul(low, lower[k])
        pr, pi = _gmul(const[k], (re, im))
        qr, qi = (re, im) if lin == (1, 0) else _gmul(lin, (re, im))
        re, im = np.append(pr, 0), np.append(pi, 0)
        re[1:] += qr
        im[1:] += qi
        c = (-1) ** k * comb(n, k)
        s = _gmul(prefix[k], low)
        re[0] += c * s[0]
        im[0] += c * s[1]
    return re, im, prefix[n]


def _divide(re, im, den, shifts) -> tuple[np.ndarray, np.ndarray]:
    """Doubles of (re[m] + i im[m]) / (den * 2**shifts[m]), den a nonzero
    Gaussian integer (re, im)."""
    dr, di = den
    if di:
        re, im = _gmul((dr, -di), (re, im))
        dr = dr * dr + di * di
    dens = [dr << int(s) for s in shifts]
    return _exact_to_float(re, dens), _exact_to_float(im, dens)


def _check_denominators(factors, n: int):
    # a sum of two doubles is 0 only when it is exactly 0, so this test is
    # exact: a small but nonzero factor is summed without loss by the
    # exact series
    for z in factors:
        for j in range(n):
            if complex(z) + j == 0:
                raise DegenerateParameters(
                    f"Pochhammer factor ({complex(z)})_{n} vanishes at offset {j}"
                )


def _to_real(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    bound = _IMAG_RESIDUE_TOL * (1.0 + np.abs(re))
    if np.any(np.abs(im) > bound):
        worst = float(np.max(np.abs(im) / bound))
        raise PrecisionLoss(
            f"imaginary coefficient residue exceeds tolerance ({worst:.2e}x)"
        )
    return re


def _monic(coeffs: np.ndarray, kind: VariableKind) -> MonicPoly:
    lead = coeffs[-1]
    if lead == 0:
        raise DegenerateParameters("leading coefficient vanishes")
    c = coeffs / lead
    c[-1] = 1.0
    return MonicPoly(c, kind)


def _check_degree(n: int):
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n > MAX_DEGREE:
        raise ValueError(f"degree {n} exceeds double-precision cap {MAX_DEGREE}")


def _gaussian(values) -> tuple[list[tuple[int, int]], int]:
    """Complex doubles as Gaussian integers (re, im) over one power of two."""
    nums, shift = _dyadic([part for v in values for part in (v.real, v.imag)])
    return list(zip(nums[0::2], nums[1::2])), shift


def monic_continuous_hahn(n: int, p: ContinuousHahnParams) -> MonicPoly:
    """Monic symmetric continuous Hahn polynomial of degree n in x.

    CH_2m(x) = W_m(x^2; a, b, 1/2, 0) and CH_2m+1(x) = x W_m(x^2; a, b, 1/2,
    1): the coefficients of the reduced Wilson polynomial of degree n // 2
    (``Family.reduction(n)``) sit at x^(n mod 2), x^(n mod 2 + 2), ...; the
    others are exactly 0. That leading coefficient rounds to exactly +-1, so
    each coefficient is rounded once, as from an exactly summed 3F2 series.
    """
    _check_degree(n)
    w = monic_wilson(n // 2, Family.reduction(n).wilson_params(p))
    coeffs = np.zeros(n + 1)
    coeffs[n % 2::2] = w.coeffs
    return MonicPoly(coeffs)


def _pivot(values) -> int:
    """Index of the parameter the Wilson series is summed around: a itself
    when it is real, else the largest positive real parameter, if any, else a.

    A non-real a, like a positive pivot, has a positive real part, and so
    has its sum with any other parameter: no factor (a+e)_n vanishes. Only
    the sums of a real a = 0 can, and that a stays the pivot, so the series
    raises ``DegenerateParameters`` on exactly the inputs it would with a.
    """
    if values[0].imag == 0:
        return 0
    real = [i for i, v in enumerate(values) if v.imag == 0 and v.real > 0]
    return max(real, key=lambda i: values[i].real, default=0)


def monic_wilson(n: int, p: WilsonParams) -> MonicPoly:
    """Monic Wilson polynomial of degree n in x**2.

    The factor (a+ix)_k (a-ix)_k of the 4F3 series is expanded as a
    polynomial in x**2 and the series is summed exactly. The polynomial is
    symmetric in (a, b, c, d), so the series' a is the pivot of ``_pivot``:
    with a real pivot every factor (a+j)^2 + x^2 is real.
    """
    _check_degree(n)
    if n == 0:
        return MonicPoly(np.array([1.0]), VariableKind.X_SQUARED)
    pivot = _pivot(p.values)
    others = [v for i, v in enumerate(p.values) if i != pivot]
    _check_denominators([p.values[pivot] + e for e in others], n)
    _check_denominators([n + p.a + p.b + p.c + p.d - 1], n)

    # with D = 2**sh, term k times (e1)_n (e2)_n (e3)_n is D^-3n times an
    # integer polynomial in v = D^2 x^2; the factor of (a+ix)_k (a-ix)_k is
    # (a+j)^2 + x^2 = D^-2 ((A+jD)^2 + v)
    vals, sh = _gaussian(p.values)
    d = 1 << sh
    vals.insert(0, vals.pop(pivot))
    a = vals[0]
    sigma = ((n - 1) * d + sum(z[0] for z in vals), sum(z[1] for z in vals))
    upper = _rising(sigma, d, n)
    es = [(a[0] + e[0], a[1] + e[1]) for e in vals[1:]]  # a+b, a+c, a+d
    lower = [_gprod(f) for f in zip(*(_rising(e, d, n) for e in es))]
    re, im, upper_n = _series(upper, lower, [_gmul(z, z) for z in _rising(a, d, n)], (1, 0))
    # coefficient of x^(2m): (-1)^n D^(2m-2n) v_m / (n+sigma-1)_n
    if n % 2:
        re, im = -re, -im
    re, im = _divide(re, im, upper_n, 2 * sh * (n - np.arange(n + 1)))
    return _monic(_to_real(re, im), VariableKind.X_SQUARED)


def monic_jacobi(n: int, p: JacobiParams) -> MonicPoly:
    """Monic rescaling of the Jacobi polynomial P_n^(alpha, beta)."""
    _check_degree(n)
    if n == 0:
        return MonicPoly(np.array([1.0]))

    # with D = 2**sh, term k times 2^n (alpha+1)_n is D^-n (-1)^k C(n, k)
    # (n+alpha+beta+1)_k 2^(n-k) (alpha+1+k)_{n-k} (1-x)^k, and the
    # polynomial is (alpha+1)_n / n! times the series
    (al, be), sh = _dyadic([p.alpha, p.beta])
    d = 1 << sh
    upper = _rising(((n + 1) * d + al + be, 0), d, n)
    lower = [(2 * z[0], 0) for z in _rising((d + al, 0), d, n)]
    re = _series(upper, lower, [(1, 0)] * n, (-1, 0))[0]
    den = factorial(n) << (n * sh + n)
    return _monic(_exact_to_float(re, [den] * (n + 1)), VariableKind.X)
