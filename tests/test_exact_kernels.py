"""The exact integer kernels against extended-precision references.

The references are the mpmath series summation and the 50-digit Newton
polish that the exact kernels replaced; the series runs at 100 + 4n digits,
well above the 30 + 2n digits it used to run at.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")
from mpmath import mp, mpc, mpf  # noqa: E402

import orthoflow  # noqa: E402
from orthoflow import (  # noqa: E402
    ComplexRoots,
    ContinuousHahnParams,
    JacobiParams,
    VariableKind,
    WilsonParams,
    companion_roots,
    monic_continuous_hahn,
    monic_jacobi,
    monic_wilson,
)

from conftest import random_ch_params, random_wilson_params  # noqa: E402

DEGREES = [1, 2, 5, 17, 33, 64]
SEEDS = [0, 1]


def random_jacobi_params(rng) -> JacobiParams:
    return JacobiParams(rng.uniform(-0.9, 2.0), rng.uniform(-0.9, 2.0))


# -- extended-precision references -----------------------------------------------


def _ref_dps(n: int) -> int:
    return 100 + 4 * n


def _poch(z, k: int):
    out = mpc(1)
    for j in range(k):
        out *= z + j
    return out


def _accumulate(n, factor_step, coeff_step):
    acc = [mpc(0)] * (n + 1)
    factor = [mpc(1)]
    c = mpc(1)
    for k in range(n + 1):
        for idx, f in enumerate(factor):
            acc[idx] += c * f
        if k < n:
            factor = factor_step(factor, k)
            c = coeff_step(c, k)
    return acc


def _linear_step(const, lin):
    """factor_step multiplying by const(k) + lin * y."""

    def step(factor, k):
        new = [mpc(0)] * (len(factor) + 1)
        for idx, f in enumerate(factor):
            new[idx] += f * const(k)
            new[idx + 1] += f * lin
        return new

    return step


def _monic_doubles(values) -> np.ndarray:
    re = np.array([float(v.real) for v in values])
    out = re / re[-1]
    out[-1] = 1.0
    return out


def ref_continuous_hahn(n, p):
    with mp.workdps(_ref_dps(n)):
        a, b = mpc(p.a), mpc(p.b)
        e1, e2 = a + a.conjugate(), a + b.conjugate()
        s = e1 + b + b.conjugate()
        acc = _accumulate(
            n,
            _linear_step(lambda k: a + k, mpc(1j)),
            lambda c, k: c * (-n + k) * (n + s - 1 + k) / ((k + 1) * (e1 + k) * (e2 + k)),
        )
        pref = mpc(1j) ** n * _poch(e1, n) * _poch(e2, n) / _poch(n + s - 1, n)
        return _monic_doubles([pref * v for v in acc])


def ref_wilson(n, p):
    with mp.workdps(_ref_dps(n)):
        a, b, c_, d = (mpc(v) for v in p.values)
        e = [a + b, a + c_, a + d]
        sigma = a + b + c_ + d
        acc = _accumulate(
            n,
            _linear_step(lambda k: (a + k) ** 2, mpc(1)),
            lambda c, k: c * (-n + k) * (n + sigma - 1 + k)
            / ((k + 1) * (e[0] + k) * (e[1] + k) * (e[2] + k)),
        )
        pref = (-1) ** n * _poch(e[0], n) * _poch(e[1], n) * _poch(e[2], n) / _poch(
            n + sigma - 1, n
        )
        return _monic_doubles([pref * v for v in acc])


def ref_jacobi(n, p):
    with mp.workdps(_ref_dps(n)):
        al, be = mpf(p.alpha), mpf(p.beta)
        acc = _accumulate(
            n,
            _linear_step(lambda k: mpf(1) / 2, mpf(-1) / 2),
            lambda c, k: c * (-n + k) * (n + al + be + 1 + k) / ((k + 1) * (al + 1 + k)),
        )
        scale = _poch(al + 1, n) / mp.factorial(n)
        return _monic_doubles([scale * v for v in acc])


def ref_newton(coeffs, z0: float) -> float:
    """50-digit Newton polish of a simple real root of sum(coeffs[k] z^k)."""
    cs = [mpf(c) for c in coeffs]
    with mp.workdps(50):
        z = mpf(z0)
        for _ in range(50):
            pv = mpf(0)
            dv = mpf(0)
            for c in reversed(cs):
                dv = dv * z + pv
                pv = pv * z + c
            if dv == 0:
                break
            step = pv / dv
            z -= step
            if abs(step) < mpf("1e-40") * (1 + abs(z)):
                break
        return float(z)


FAMILIES = {
    "ch": (random_ch_params, monic_continuous_hahn, ref_continuous_hahn),
    "wilson": (random_wilson_params, monic_wilson, ref_wilson),
    "jacobi": (random_jacobi_params, monic_jacobi, ref_jacobi),
}


def _draw(family, n, seed):
    draw, exact, ref = FAMILIES[family]
    p = draw(np.random.default_rng([seed, n]))
    return p, exact, ref


def _within_one_ulp(got, want) -> bool:
    return bool(np.all(np.abs(got - want) <= np.spacing(np.abs(want))))


# -- coefficients ----------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", DEGREES)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_coefficients_within_one_ulp_of_reference(family, n, seed):
    """The exact kernels against the mpmath series. For ``ch`` the reference
    is a continuous Hahn 3F2, while ``monic_continuous_hahn`` is built from
    the reduced Wilson 4F3, so this is the independent check of the
    continuous Hahn coefficients and keeps the quadratic relations of
    criterion 7 from holding by construction alone."""
    p, exact, ref = _draw(family, n, seed)
    got, want = exact(n, p).coeffs, ref(n, p)
    if family == "ch":
        # symmetric parameters: p(-x) = (-1)^n p(x), the other parity is exactly 0
        off = np.arange(n + 1) % 2 != n % 2
        assert np.all(got[off] == 0.0)
        got, want = got[~off], want[~off]
    assert _within_one_ulp(got, want)


# -- companion polish ------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", DEGREES)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_companion_roots_within_one_ulp_of_reference_polish(family, n, seed):
    p, exact, _ = _draw(family, n, seed)
    poly = exact(n, p)
    try:
        got = companion_roots(poly)
    except ComplexRoots:
        return  # no polish to compare: the estimates fail the unchanged checks
    raw = np.roots(poly.coeffs[::-1])
    want = np.sort([ref_newton(poly.coeffs, r) for r in raw.real])
    if poly.variable_kind is VariableKind.X_SQUARED:
        want = np.sqrt(want)
    zero = got == 0.0
    # the exact polish lands on a root at 0 (odd-degree CH); the reference
    # stops within 1e-40 of it
    assert np.all(np.abs(want[zero]) < 1e-30)
    assert _within_one_ulp(got[~zero], want[~zero])


# -- imaginary residue -----------------------------------------------------------


@pytest.mark.parametrize("n", [5, 17, 64])
def test_conjugate_pair_exact_to_rel_1e13_passes_residue_check(n):
    a = complex(1.7, 0.6)
    p = ContinuousHahnParams(a, a.conjugate() * (1 + 1e-13))
    near = monic_continuous_hahn(n, p).coeffs
    exact_pair = monic_continuous_hahn(n, ContinuousHahnParams(a, a.conjugate())).coeffs
    assert np.allclose(near, exact_pair, rtol=1e-8, atol=1e-8 * np.max(np.abs(exact_pair)))

    z = complex(1.1, 0.4)
    w = WilsonParams(0.8, 1.3, z, z.conjugate() * (1 - 1e-13))
    assert monic_wilson(n, w).degree == n


# -- import path -----------------------------------------------------------------


def test_import_does_not_load_mpmath():
    src = os.path.dirname(os.path.dirname(os.path.abspath(orthoflow.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = subprocess.run(
        [sys.executable, "-c", "import sys, orthoflow; print('mpmath' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
