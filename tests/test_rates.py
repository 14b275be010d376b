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
    integrate,
    kappa_bound,
    kappa_continuous_hahn,
    kappa_continuous_hahn_symmetric,
    measure_decay,
    newton_solve,
)

from orthoflow.rates import _ERROR_FLOOR, RateReport, _param_term
from conftest import random_ch_params
from test_flow_kernel import FAMILIES, _trajectory_case, draw_kind

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


def ref_measure_decay(
    traj: Trajectory, equilibrium, window: tuple[float, float] | None = None
) -> RateReport:
    """Verbatim copy of the per-coordinate ``np.polyfit`` loop that
    ``measure_decay`` replaced by one least-squares pass."""
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


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
def test_measure_decay_is_the_per_coordinate_fit(family, seed):
    kind, x0, settings = _trajectory_case(family, seed)
    traj = integrate(kind, x0, settings)
    eq = newton_solve(kind, traj.states[-1])
    for window in (None, (0.1 * traj.times[-1], 0.9 * traj.times[-1])):
        got, ref = measure_decay(traj, eq, window), ref_measure_decay(traj, eq, window)
        assert np.all(np.abs(got.measured_slopes - ref.measured_slopes)
                      <= 1e-12 * np.abs(ref.measured_slopes))
        assert (got.kappa_bound, got.fit_window, got.R_n) == (
            ref.kappa_bound, ref.fit_window, ref.R_n)


def _failing_fits():
    """(trajectory, equilibrium, window) of each way a fit is refused."""
    eq = np.array([0.3, -0.2, 1.7, 0.5])
    amp = np.array([1.0, -2.0, 0.5, 1.5])
    traj = _synthetic_trajectory(0.9, eq, amp)
    yield Trajectory(np.zeros(1), eq[None, :], _KIND), eq, None  # one sample
    yield traj, eq, (5.0, 50.0)  # a window past the last time
    yield traj, eq, (-1.0, 5.0)  # a window before the first time
    yield traj, eq[:3], None  # a length mismatch
    yield traj, eq, (2.0, 2.3)  # too few samples in the window
    # coordinates 2 and 4 sit at their equilibrium after 3 and 1 window samples
    states = traj.states.copy()
    states[20:, 1] = eq[1]
    states[18:, 3] = eq[3]
    yield Trajectory(traj.times, states, _KIND), eq, None
    # coordinate 3 errs by less than the noise floor from t = 1.5 on
    states = traj.states.copy()
    states[15:, 2] = eq[2] + 0.5 * _ERROR_FLOOR
    yield Trajectory(traj.times, states, _KIND), eq, None


@pytest.mark.parametrize("case", range(7))
def test_measure_decay_refuses_as_the_per_coordinate_fit(case):
    traj, eq, window = list(_failing_fits())[case]
    with pytest.raises((InsufficientSamples, ValueError)) as ref:
        ref_measure_decay(traj, eq, window)
    with pytest.raises(ref.type) as got:
        measure_decay(traj, eq, window)
    assert got.type is ref.type and str(got.value) == str(ref.value)


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


@pytest.mark.parametrize("n", [1, 2, 7, 33])
def test_jacobi_linear_rates_are_the_whole_spectrum(n):
    # M^{1/2} H M^{1/2} at the Jacobi roots has the eigenvalues
    # k (2n + alpha + beta + 1 - k), k = 1, ..., n, the rates of the
    # linearised flow's modes; the smallest, k = 1, is kappa
    k = np.arange(1, n + 1)
    for kind, eq in _equilibria(FlowFamily.JACOBI, n):
        p = kind.params
        root_m = np.sqrt(2.0 * (1.0 - eq * eq))
        lam = np.linalg.eigvalsh(root_m[:, None] * hessian(kind, eq) * root_m[None, :])
        expect = k * (2 * n + p.alpha + p.beta + 1 - k)
        assert np.all(np.abs(lam - expect) <= 1e-9 * expect)
