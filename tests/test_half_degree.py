"""The oracle at half the degree, against the full-degree code it replaced.

``_full_series``, ``_full_monic_wilson`` and ``_full_companion_roots`` are
verbatim copies of the series (the upper factor multiplied into every Horner
step), the Wilson series always summed around a, and the companion oracle
that solves an even or odd polynomial at its full degree. The exact integers
are the same, so every coefficient must be bitwise equal; the roots of
x^r q(x^2) are found from q, so they must agree within 1 ulp.
"""

from math import comb

import numpy as np
import pytest

from orthoflow import (
    ComplexRoots,
    ContinuousHahnParams,
    DegenerateParameters,
    JacobiParams,
    MonicPoly,
    VariableKind,
    WilsonParams,
    companion_roots,
    monic_continuous_hahn,
    monic_jacobi,
    monic_wilson,
)
from orthoflow import polynomials
from orthoflow.errors import OrthoflowError, PrecisionLoss
from orthoflow.oracle import _IMAG_ROOT_TOL, _newton_polish
from orthoflow.params import Family
from orthoflow.polynomials import (
    _check_degree,
    _check_denominators,
    _divide,
    _gaussian,
    _gmul,
    _gprod,
    _monic,
    _rising,
    _to_real,
)

from conftest import random_ch_params, random_wilson_params

# -- the full-degree reference ---------------------------------------------------


def _full_series(upper, lower, const, lin):
    n = len(upper)
    re = np.array([(-1) ** n], dtype=object)
    im = np.array([0], dtype=object)
    low = (1, 0)
    for k in range(n - 1, -1, -1):
        low = _gmul(low, lower[k])
        pr, pi = _gmul(_gmul(upper[k], const[k]), (re, im))
        qr, qi = _gmul(_gmul(upper[k], lin), (re, im))
        re, im = np.append(pr, 0), np.append(pi, 0)
        re[1:] += qr
        im[1:] += qi
        c = (-1) ** k * comb(n, k)
        re[0] += c * low[0]
        im[0] += c * low[1]
    return re, im


def _full_monic_wilson(n: int, p: WilsonParams) -> MonicPoly:
    _check_degree(n)
    if n == 0:
        return MonicPoly(np.array([1.0]), VariableKind.X_SQUARED)
    _check_denominators([p.a + p.b, p.a + p.c, p.a + p.d], n)
    _check_denominators([n + p.a + p.b + p.c + p.d - 1], n)

    vals, sh = _gaussian(p.values)
    d = 1 << sh
    a = vals[0]
    sigma = ((n - 1) * d + sum(z[0] for z in vals), sum(z[1] for z in vals))
    upper = _rising(sigma, d, n)
    es = [(a[0] + e[0], a[1] + e[1]) for e in vals[1:]]  # a+b, a+c, a+d
    lower = [_gprod(f) for f in zip(*(_rising(e, d, n) for e in es))]
    re, im = _full_series(upper, lower, [_gmul(z, z) for z in _rising(a, d, n)], (1, 0))
    if n % 2:
        re, im = -re, -im
    re, im = _divide(re, im, _gprod(upper), 2 * sh * (n - np.arange(n + 1)))
    return _monic(_to_real(re, im), VariableKind.X_SQUARED)


def _full_companion_roots(poly: MonicPoly) -> np.ndarray:
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


def _outcome(fn, *args):
    """The result of ``fn(*args)``, or the class of the error it raised."""
    try:
        return fn(*args)
    except (OrthoflowError, ValueError) as exc:
        return type(exc)


# -- the series ------------------------------------------------------------------


def _draws(rng):
    """Wilson all-real, two real and a conjugate pair, two pairs; CH and its
    two reduced systems (conftest draws); Jacobi with alpha != beta."""
    def pair():
        z = complex(rng.uniform(0.3, 2.5), rng.uniform(0.1, 1.2))
        return [z, z.conjugate()]

    r = rng.uniform(0.3, 2.5, size=4)
    ch = random_ch_params(rng)
    return [
        (monic_wilson, WilsonParams(*r)),
        (monic_wilson, WilsonParams(r[0], r[1], *pair())),
        (monic_wilson, WilsonParams(*pair(), *pair())),
        (monic_wilson, WilsonParams(*pair(), r[2], r[3])),
        (monic_continuous_hahn, ch),
        (monic_wilson, Family.REDUCED_EVEN.wilson_params(ch)),
        (monic_wilson, Family.REDUCED_ODD.wilson_params(ch)),
        (monic_jacobi, JacobiParams(rng.uniform(-0.9, 4.0), rng.uniform(-0.9, 4.0))),
    ]


def _with_full_series(monkeypatch):
    monkeypatch.setattr(polynomials, "_series", _full_series)
    monkeypatch.setattr(polynomials, "monic_wilson", _full_monic_wilson)


@pytest.mark.parametrize("n", list(range(21)) + [33, 64])
def test_series_coefficients_bitwise_equal_to_full_series(n, monkeypatch):
    draws = _draws(np.random.default_rng([14, n]))
    fast = [monic(n, p).coeffs for monic, p in draws]
    _with_full_series(monkeypatch)
    for (monic, p), coeffs in zip(draws, fast):
        # monic_wilson itself is patched in the module, not in this namespace
        full = _full_monic_wilson if monic is monic_wilson else monic
        assert np.array_equal(full(n, p).coeffs, coeffs), (monic.__name__, p)


@pytest.mark.parametrize("values", [
    (0.0, 0.0, 1.0, 1.0),          # a = b = 0: (a+b)_n vanishes
    (0.0, 1.0, 0.5, 0.0),          # a = d = 0
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 1 + 1j, 1 - 1j, 0.0),
    (0.5, 0.0, 0.0, 1.0),          # c = d = 0 with a real pivot
    (1 + 1j, 1 - 1j, 0.0, 0.0),    # no positive real parameter: a stays the pivot
    (1 + 1j, 1 - 1j, 0.0, 2.0),
    (1 + 1j, 1 - 1j, 0.5, 0.0),
])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_boundary_parameters_raise_as_with_a_as_pivot(values, n):
    p = WilsonParams(*values, allow_boundary=True)
    got, want = _outcome(monic_wilson, n, p), _outcome(_full_monic_wilson, n, p)
    if isinstance(want, type):
        assert got is want
    else:
        assert np.array_equal(got.coeffs, want.coeffs)


def test_zero_pair_is_degenerate():
    with pytest.raises(DegenerateParameters):
        monic_wilson(3, WilsonParams(0.0, 0.0, 1.0, 1.0, allow_boundary=True))


# -- the companion oracle --------------------------------------------------------


def _within_one_ulp(got, want) -> bool:
    return bool(np.all(np.abs(got - want) <= np.spacing(np.abs(want))))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [1, 2, 3, 7, 33, 64])
@pytest.mark.parametrize("family", [Family.CH, Family.REDUCED_EVEN, Family.REDUCED_ODD])
def test_companion_roots_within_one_ulp_of_full_degree(family, n, seed):
    p = random_ch_params(np.random.default_rng([seed, n]))
    if family is Family.CH:
        poly = monic_continuous_hahn(n, p)
    else:
        poly = monic_wilson(n, family.wilson_params(p))
    got, want = _outcome(companion_roots, poly), _outcome(_full_companion_roots, poly)
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
    else:
        assert _within_one_ulp(got, want)


@pytest.mark.parametrize("n", [2, 3, 8, 17])
def test_jacobi_with_equal_parameters_takes_the_half_degree_path(n):
    poly = monic_jacobi(n, JacobiParams(0.75, 0.75))
    assert np.all(poly.coeffs[1 - n % 2::2] == 0.0)
    assert _within_one_ulp(companion_roots(poly), _full_companion_roots(poly))


@pytest.mark.parametrize("n", [3, 7, 33, 63])
def test_odd_degree_middle_root_is_exactly_zero(n):
    roots = companion_roots(monic_continuous_hahn(n, ContinuousHahnParams(1.5, 0.7)))
    mid = roots[n // 2]
    assert mid == 0.0 and not np.signbit(mid)
    assert np.array_equal(roots, -roots[::-1])


def test_even_polynomial_in_x_squared():
    # x^4 - 5 x^2 + 4 = (x^2 - 1)(x^2 - 4)
    roots = companion_roots(MonicPoly(np.array([4.0, 0.0, -5.0, 0.0, 1.0])))
    assert np.array_equal(roots, [-2.0, -1.0, 1.0, 2.0])


def test_even_polynomial_with_complex_roots_raises():
    with pytest.raises(ComplexRoots):
        companion_roots(MonicPoly(np.array([1.0, 0.0, 1.0])))  # x^2 + 1


def test_even_polynomial_with_a_root_at_zero_keeps_the_full_degree():
    # x^4 - x^2: q(y) = y^2 - y has the root y = 0, which the positivity
    # check of the x^2 path would refuse
    poly = MonicPoly(np.array([0.0, 0.0, -1.0, 0.0, 1.0]))
    roots = companion_roots(poly)
    assert np.array_equal(roots, _full_companion_roots(poly))
    assert roots == pytest.approx([-1.0, 0.0, 0.0, 1.0], abs=1e-7)


@pytest.mark.parametrize("coeffs", [
    [6.0, -7.0, 0.0, 1.0],          # (x - 1)(x - 2)(x + 3)
    [-2.0, 1.0],                    # degree 1 keeps the full-degree path
    [0.0, 1.0],
    [0.0, -1.0, 0.0, 1.0],          # x^3 - x: q(0) = 0
])
def test_mixed_parity_and_excluded_polynomials_unchanged(coeffs):
    poly = MonicPoly(np.array(coeffs))
    assert np.array_equal(companion_roots(poly), _full_companion_roots(poly))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [2, 7, 33])
def test_jacobi_mixed_parity_bitwise_unchanged(n, seed):
    rng = np.random.default_rng([seed, n])
    poly = monic_jacobi(n, JacobiParams(rng.uniform(-0.9, 2.0), rng.uniform(-0.9, 2.0)))
    got, want = _outcome(companion_roots, poly), _outcome(_full_companion_roots, poly)
    if isinstance(want, type):
        assert got is want
    else:
        assert np.array_equal(got, want)


def test_wilson_draws_unchanged():
    # polynomials in x^2 never take the half-degree path
    for seed in range(4):
        p = random_wilson_params(np.random.default_rng([seed, 12]))
        poly = monic_wilson(12, p)
        assert np.array_equal(companion_roots(poly), _full_companion_roots(poly))
