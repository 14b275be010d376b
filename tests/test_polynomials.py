import math
from fractions import Fraction

import numpy as np
import pytest

from orthoflow import (
    ComplexRoots,
    ContinuousHahnParams,
    DegenerateParameters,
    JacobiParams,
    MonicPoly,
    ParameterError,
    VariableKind,
    WilsonParams,
    companion_roots,
    monic_continuous_hahn,
    monic_jacobi,
    monic_wilson,
)
from orthoflow import polynomials
from orthoflow.polynomials import _check_denominators

from conftest import random_ch_params


def test_continuous_hahn_degree_zero():
    poly = monic_continuous_hahn(0, ContinuousHahnParams(2.0, 3.0))
    assert poly.coeffs.tolist() == [1.0]


def test_continuous_hahn_degree_one_is_x():
    poly = monic_continuous_hahn(1, ContinuousHahnParams(1.0, 1.0))
    assert poly.coeffs == pytest.approx([0.0, 1.0], abs=1e-14)


@pytest.mark.parametrize("n", [2, 5, 12, 25, 40])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_continuous_hahn_coefficient_parity(n, seed):
    # symmetric parameters force p(-x) = (-1)^n p(x): coefficients of the
    # opposite parity vanish
    p = random_ch_params(np.random.default_rng(seed))
    poly = monic_continuous_hahn(n, p)
    off_parity = poly.coeffs[(n % 2 != np.arange(n + 1) % 2)]
    scale = np.max(np.abs(poly.coeffs))
    assert np.max(np.abs(off_parity)) < 1e-10 * scale


@pytest.mark.parametrize("seed", range(6))
def test_continuous_hahn_low_degrees_are_exact(seed):
    p = random_ch_params(np.random.default_rng(seed))
    assert monic_continuous_hahn(0, p).coeffs.tolist() == [1.0]
    assert monic_continuous_hahn(1, p).coeffs.tolist() == [0.0, 1.0]


@pytest.mark.parametrize("n", [5, 17, 64])
def test_continuous_hahn_near_conjugate_pair_has_exact_parity(n):
    # the record accepts b = conj(a) (1 + 1e-13); the Wilson route places the
    # reduced coefficients only, so the other parity is exactly 0, not ~1e-13
    # relative roundoff of the residue
    a = complex(2.0, 1.0)
    poly = monic_continuous_hahn(n, ContinuousHahnParams(a, a.conjugate() * (1 + 1e-13)))
    assert np.all(poly.coeffs[(np.arange(n + 1) % 2) != n % 2] == 0.0)
    assert np.all(poly.coeffs[n % 2::2] != 0.0)


def test_wilson_degree_zero():
    poly = monic_wilson(0, WilsonParams(1, 1, 1, 1))
    assert poly.variable_kind is VariableKind.X_SQUARED
    assert poly.coeffs.tolist() == [1.0]


def test_wilson_degree_one_half_parameters():
    # direct expansion of the degree-1 series with a=b=c=d=1/2 gives x^2 - 1/4
    poly = monic_wilson(1, WilsonParams(0.5, 0.5, 0.5, 0.5))
    assert poly.coeffs == pytest.approx([-0.25, 1.0], abs=1e-14)


def test_wilson_boundary_d_zero():
    with pytest.raises(ParameterError):
        WilsonParams(1.0, 1.0, 0.5, 0.0)
    poly = monic_wilson(3, WilsonParams(1.0, 1.0, 0.5, 0.0, allow_boundary=True))
    assert poly.degree == 3


def _monic_legendre(n):
    # classical recurrence: p_{k+1} = x p_k - k^2/(4k^2-1) p_{k-1}
    prev = np.array([1.0])
    cur = np.array([0.0, 1.0])
    for k in range(1, n):
        nxt = np.concatenate([[0.0], cur])
        nxt[: prev.size] -= k * k / (4.0 * k * k - 1.0) * prev
        prev, cur = cur, nxt
    return cur if n >= 1 else prev


def test_jacobi_symmetric_degree_one():
    poly = monic_jacobi(1, JacobiParams(2.5, 2.5))
    assert poly.coeffs == pytest.approx([0.0, 1.0], abs=1e-14)


def test_jacobi_degree_one_root():
    poly = monic_jacobi(1, JacobiParams(0.0, 1.0))
    assert -poly.coeffs[0] == pytest.approx(1.0 / 3.0, rel=1e-14)


@pytest.mark.parametrize("n", range(1, 9))
def test_jacobi_legendre_recurrence(n):
    poly = monic_jacobi(n, JacobiParams(0.0, 0.0))
    assert poly.coeffs == pytest.approx(_monic_legendre(n), abs=1e-13)


def test_jacobi_near_the_boundary_matches_exact_arithmetic():
    # alpha + beta + 2 can be as small as 2e-13 or less: the exact series'
    # leading coefficient is still positive, and the monic P_1 is
    # x + (alpha - beta) / (alpha + beta + 2)
    rng = np.random.default_rng(11)
    cases = [(-1 + 1e-13, -1 + 1e-13), (-1 + 1e-13, -1 + 3e-13), (-1 + 2e-16, 0.5)]
    cases += [tuple(-1 + rng.uniform(0, 1e-10, 2)) for _ in range(200)]
    for alpha, beta in cases:
        poly = monic_jacobi(1, JacobiParams(alpha, beta))
        a, b = Fraction(alpha), Fraction(beta)
        exact = float((a - b) / (a + b + 2))
        assert poly.coeffs[1] == 1.0
        assert abs(poly.coeffs[0] - exact) <= 2 * math.ulp(exact)


def test_jacobi_legendre_degree_two():
    poly = monic_jacobi(2, JacobiParams(0.0, 0.0))
    assert poly.coeffs == pytest.approx([-1.0 / 3.0, 0.0, 1.0], abs=1e-14)


@pytest.mark.parametrize("m", range(1, 11))
def test_quadratic_relations_coefficients(m):
    p = ContinuousHahnParams(10.0, 0.3)
    even = monic_continuous_hahn(2 * m, p)
    odd = monic_continuous_hahn(2 * m + 1, p)
    w_even = monic_wilson(m, WilsonParams(p.a, p.b, 0.5, 0.0, allow_boundary=True))
    w_odd = monic_wilson(m, WilsonParams(p.a, p.b, 0.5, 1.0))

    expect = np.zeros(2 * m + 1)
    expect[::2] = w_even.coeffs
    assert np.max(np.abs(even.coeffs - expect) / (1.0 + np.abs(expect))) < 1e-8

    expect = np.zeros(2 * m + 2)
    expect[1::2] = w_odd.coeffs
    assert np.max(np.abs(odd.coeffs - expect) / (1.0 + np.abs(expect))) < 1e-8


def test_companion_roots_are_roots():
    p = random_ch_params(np.random.default_rng(7))
    poly = monic_continuous_hahn(12, p)
    roots = companion_roots(poly)
    scale = np.max(np.abs(poly.coeffs)) * np.max(1.0 + np.abs(roots)) ** 12
    for r in roots:
        assert abs(np.polyval(poly.coeffs[::-1], r)) <= 1e-8 * scale


def test_degenerate_denominator_detection():
    with pytest.raises(DegenerateParameters):
        _check_denominators([-2.0], 5)


def test_degree_cap():
    with pytest.raises(ValueError):
        monic_continuous_hahn(65, ContinuousHahnParams(1.0, 1.0))


def test_monic_poly_validates_leading_coefficient():
    with pytest.raises(ValueError):
        MonicPoly(np.array([1.0, 2.0]))


def test_companion_rejects_complex_roots():
    with pytest.raises(ComplexRoots):
        companion_roots(MonicPoly(np.array([1.0, 0.0, 1.0])))  # x^2 + 1


def _four_product_gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _series_draws(rng):
    """One draw per parameter shape: CH (a conftest draw), Wilson all-real,
    one conjugate pair, two pairs and d = 0, and Jacobi."""
    def pair():
        z = complex(rng.uniform(0.3, 2.5), rng.uniform(0.1, 1.2))
        return [z, z.conjugate()]

    r = rng.uniform(0.3, 2.5, size=4)
    return [
        (monic_continuous_hahn, random_ch_params(rng)),
        (monic_wilson, WilsonParams(*r)),
        (monic_wilson, WilsonParams(r[0], r[1], *pair())),
        (monic_wilson, WilsonParams(*pair(), *pair())),
        (monic_wilson, WilsonParams(r[2], r[3], 0.5, 0.0, allow_boundary=True)),
        (monic_jacobi, JacobiParams(rng.uniform(-0.9, 4.0), rng.uniform(-0.9, 4.0))),
    ]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n", [1, 2, 7, 33, 64])
def test_real_scalar_products_leave_the_series_unchanged(n, seed, monkeypatch):
    # the real-scalar path of _gmul skips products by zero only: the exact
    # integers, and so every rounded coefficient, are the same
    draws = _series_draws(np.random.default_rng([seed, n]))
    fast = [monic(n, p).coeffs for monic, p in draws]
    monkeypatch.setattr(polynomials, "_gmul", _four_product_gmul)
    for (monic, p), coeffs in zip(draws, fast):
        assert np.array_equal(monic(n, p).coeffs, coeffs), (monic.__name__, p)


@pytest.mark.parametrize("a,b", [(1e-13, 1.0), (6e-13, 6e-13), (4e-13, 2.0),
                                 (1e-13 + 1j, 1e-13 - 1j)])
def test_small_real_parts_sum_in_either_order(a, b):
    # a Pochhammer factor vanishes only when it is exactly 0, so a small
    # real part raises nothing and the polynomial is symmetric in a <-> b
    for n in range(20):
        p = monic_continuous_hahn(n, ContinuousHahnParams(a, b))
        q = monic_continuous_hahn(n, ContinuousHahnParams(b, a))
        assert p.variable_kind == q.variable_kind
        assert np.array_equal(p.coeffs, q.coeffs)
