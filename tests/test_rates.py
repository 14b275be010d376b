from fractions import Fraction

import numpy as np
import pytest

from orthoflow import (
    ContinuousHahnParams,
    FlowFamily,
    InsufficientSamples,
    PotentialKind,
    Trajectory,
    WilsonParams,
    default_start,
    gradient,
    hessian,
    kappa_bound,
    kappa_continuous_hahn,
    kappa_continuous_hahn_symmetric,
    measure_decay,
    newton_solve,
)

from orthoflow.rates import _param_term
from conftest import random_ch_params
from test_flow_kernel import FAMILIES, draw_kind

_KIND = PotentialKind(FlowFamily.CONTINUOUS_HAHN, ContinuousHahnParams(1.0, 1.0))


def test_kappa_ch_unit_parameters_origin():
    assert kappa_continuous_hahn(ContinuousHahnParams(1.0, 1.0), 0.0) == pytest.approx(2.0)


def test_kappa_ch_conjugate_pair_origin():
    p = ContinuousHahnParams(1 + 1j, 1 - 1j)
    assert kappa_continuous_hahn(p, 0.0) == pytest.approx(1.0)


_WILSON_UNIT = PotentialKind(FlowFamily.WILSON, WilsonParams(1.0, 1.0, 1.0, 1.0))


def test_kappa_wilson_unit_parameters():
    assert kappa_bound(_WILSON_UNIT, 1, 0.0) == pytest.approx(4.0)
    assert kappa_bound(_WILSON_UNIT, 2, 0.0) == pytest.approx(6.0)


def test_kappa_symmetric_n1():
    # odd n = 1: the reduced system has m = 0 roots and no bound; the n = 1
    # flow's one rate is H(0) = 2 at (1, 1), the plain bound
    p = ContinuousHahnParams(1.0, 1.0)
    with pytest.raises(ValueError):
        kappa_continuous_hahn_symmetric(p, 1, 0.0)
    assert kappa_continuous_hahn(p, 0.0) == pytest.approx(2.0)


@pytest.mark.parametrize("seed", range(5))
def test_symmetric_bound_dominates_plain(seed):
    rng = np.random.default_rng(seed)
    p = random_ch_params(rng)
    n = int(rng.integers(1, 30))
    r = rng.uniform(0, 20)
    assert kappa_continuous_hahn_symmetric(p, n, r) >= kappa_continuous_hahn(p, r)


def test_symmetric_even_decomposition():
    # for even n = 2m the improvement over the plain bound is exactly
    # 2m / (1 + 4 R^2)
    p = ContinuousHahnParams(2.0, 0.7)
    for m in (1, 3, 7):
        for r in (0.0, 1.5, 12.0):
            expect = kappa_continuous_hahn(p, r) + 2.0 * m / (1.0 + 4.0 * r * r)
            assert kappa_continuous_hahn_symmetric(p, 2 * m, r) == pytest.approx(expect)


@pytest.mark.parametrize(
    "fn",
    [
        lambda p, r: kappa_continuous_hahn(p, r),
        lambda p, r: kappa_bound(_WILSON_UNIT, 5, r),
        lambda p, r: kappa_continuous_hahn_symmetric(p, 5, r),
    ],
)
def test_bounds_decrease_in_radius(fn):
    p = ContinuousHahnParams(2.0, 0.5)
    radii = np.linspace(0.0, 30.0, 40)
    vals = [fn(p, r) for r in radii]
    assert np.all(np.diff(vals) < 0)


def test_bounds_reject_negative_radius():
    with pytest.raises(ValueError):
        kappa_continuous_hahn(ContinuousHahnParams(1, 1), -0.1)
    with pytest.raises(ValueError):
        kappa_bound(_WILSON_UNIT, 0, 1.0)


def _synthetic_trajectory(rate, eq, amp, t_max=10.0, dt=0.1):
    t = np.arange(0.0, t_max + dt / 2, dt)
    states = eq[None, :] + amp[None, :] * np.exp(-rate * t)[:, None]
    return Trajectory(t, states, _KIND)


def test_measure_decay_recovers_synthetic_rate():
    eq = np.array([-1.0, 0.5, 2.0])
    amp = np.array([0.3, -0.8, 1.1])
    traj = _synthetic_trajectory(0.7, eq, amp)
    report = measure_decay(traj, eq)
    assert report.measured_slopes == pytest.approx(np.full(3, 0.7), rel=1e-10)
    assert report.R_n == pytest.approx(2.0)
    assert report.fit_window == pytest.approx((10.0 / 6.0, 50.0 / 6.0))


def test_measure_decay_explicit_window():
    eq = np.zeros(2)
    amp = np.array([1.0, -2.0])
    traj = _synthetic_trajectory(1.3, eq, amp)
    report = measure_decay(traj, eq, window=(2.0, 8.0))
    assert report.measured_slopes == pytest.approx([1.3, 1.3], rel=1e-10)
    assert report.fit_window == (2.0, 8.0)


def test_measure_decay_rejects_bad_window():
    traj = _synthetic_trajectory(1.0, np.zeros(1), np.ones(1))
    with pytest.raises(ValueError):
        measure_decay(traj, np.zeros(1), window=(5.0, 50.0))
    with pytest.raises(ValueError):
        measure_decay(traj, np.zeros(2))


def test_measure_decay_insufficient_samples_at_equilibrium():
    eq = np.array([0.3, 1.7])
    t = np.linspace(0.0, 10.0, 50)
    states = np.tile(eq, (t.size, 1))
    traj = Trajectory(t, states, _KIND)
    with pytest.raises(InsufficientSamples):
        measure_decay(traj, eq)


def _exact_param_term(a: complex, r: float) -> float:
    alpha, s = Fraction(a.real), Fraction(r) + Fraction(abs(a.imag))
    return float(alpha / (alpha**2 + s**2))


@pytest.mark.parametrize("r", [0.0, 3e-190, 1e-300, 1e-150, 0.7])
@pytest.mark.parametrize("a", [1e-200, 1e-300, 1e-300 + 1e-250j, 1e200, 1e200 + 1e200j,
                               1.0, 2.5 + 0.5j])
def test_param_term_matches_the_exact_quotient(a, r):
    # alpha^2 + s^2 underflows (or overflows) where the term itself is finite;
    # the plain quotient raised ZeroDivisionError (or OverflowError) there
    got = _param_term(complex(a), r)
    assert got == pytest.approx(_exact_param_term(complex(a), r), rel=4 * 2.0**-52)



# -- the bounds against the true rates ----------------------------------------------

def _equilibria(family, n):
    """Four conftest draws of ``family`` with their equilibria: Newton's,
    and one more full Newton step, which takes the gradient from the
    tolerance to the rounding level."""
    rng = np.random.default_rng([n, 53, FAMILIES.index(family)])
    for _ in range(4):
        kind = draw_kind(family, rng)
        eq = newton_solve(kind, default_start(kind, n))
        yield kind, eq - np.linalg.solve(hessian(kind, eq), gradient(kind, eq))


@pytest.mark.parametrize("n", [1, 2, 7, 33, 64])
@pytest.mark.parametrize("family", [f for f in FAMILIES if f is not FlowFamily.JACOBI],
                         ids=lambda f: f.value)
def test_kappa_is_at_most_the_slowest_linear_rate(family, n):
    # the linearised flow at x* decays at the eigenvalues of H(x*); at n = 1
    # the bound is tight, up to rounding
    for kind, eq in _equilibria(family, n):
        lam = np.linalg.eigvalsh(hessian(kind, eq))[0]
        assert kappa_bound(kind, n, float(np.max(np.abs(eq)))) <= lam * (1.0 + 1e-12)


@pytest.mark.parametrize("n", [1, 2, 7, 33])
def test_jacobi_kappa_is_the_slowest_linear_rate(n):
    # the mobility-weighted flow linearises to M H with M = diag 2(1 - x^2),
    # whose eigenvalues are those of M^{1/2} H M^{1/2}
    for kind, eq in _equilibria(FlowFamily.JACOBI, n):
        root_m = np.sqrt(2.0 * (1.0 - eq * eq))
        lam = np.linalg.eigvalsh(root_m[:, None] * hessian(kind, eq) * root_m[None, :])[0]
        kappa = kappa_bound(kind, n, float(np.max(np.abs(eq))))
        assert abs(lam - kappa) <= 1e-12 * kappa
