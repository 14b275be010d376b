"""The per-run evaluator against references kept from the code it replaced:
one formula branch per family for the potential and its gradient, and the
RK4 loop that evaluated the rhs and the potential separately (five calls per
accepted step)."""

import numpy as np
import pytest

from orthoflow import (
    BranchCrossing,
    DomainViolation,
    FlowFamily,
    FlowSettings,
    JacobiParams,
    PotentialKind,
    StepUnderflow,
    Trajectory,
    WilsonParams,
    equispaced_start,
    gradient,
    integrate,
    potential,
)
from orthoflow import potentials
from orthoflow.potentials import evaluator

from conftest import random_ch_params, random_wilson_params

FAMILIES = list(FlowFamily)
DEGREES = [0, 1, 2, 7, 33]


# -- references: the per-family formulas ----------------------------------------

def _F(x):
    return x * np.arctan(x) - 0.5 * np.log1p(x * x)


def _params(kind):
    if kind.family is FlowFamily.WILSON:
        return kind.params.values
    return (kind.params.a, kind.params.b)


def ref_potential(kind, x):
    x = np.asarray(x, dtype=float)
    n = x.size
    if n == 0:
        return 0.0
    j = np.arange(1, n + 1)
    fam = kind.family
    iu = np.triu_indices(n, 1)
    d = (x[:, None] - x[None, :])[iu]
    if fam is FlowFamily.JACOBI:
        p = kind.params
        v = -np.sum(np.log(-d))
        v -= np.sum(0.5 * (p.alpha + 1) * np.log(1.0 - x) + 0.5 * (p.beta + 1) * np.log(1.0 + x))
        return float(v)
    v = 0.0
    for a in _params(kind):
        z = x / complex(a)
        v += float(np.sum((x * np.arctan(z) - 0.5 * a * np.log(1.0 + z * z)).real))
    v += float(np.sum(_F(d)))
    if fam is FlowFamily.CONTINUOUS_HAHN:
        return v + float(0.5 * np.pi * np.sum((n + 1 - 2 * j) * x))
    v += float(np.sum(_F((x[:, None] + x[None, :])[iu])))
    if fam is FlowFamily.WILSON:
        return v - float(np.pi * np.sum(j * x))
    v += float(np.sum(0.5 * _F(2.0 * x)))
    if fam is FlowFamily.REDUCED_EVEN:
        return v - float(np.pi * np.sum((j - 0.5) * x))
    return v + float(np.sum(_F(x))) - float(np.pi * np.sum(j * x))


def ref_gradient(kind, x):
    x = np.asarray(x, dtype=float)
    n = x.size
    j = np.arange(1, n + 1)
    fam = kind.family
    d = x[:, None] - x[None, :]
    if fam is FlowFamily.JACOBI:
        p = kind.params
        np.fill_diagonal(d, np.inf)
        g = -np.sum(1.0 / d, axis=1)
        return g - (0.5 * (p.alpha + 1) / (x - 1.0) + 0.5 * (p.beta + 1) / (x + 1.0))
    g = np.sum(np.arctan(d), axis=1)
    for a in _params(kind):
        g += np.arctan(x / complex(a)).real
    if fam is FlowFamily.CONTINUOUS_HAHN:
        return g + 0.5 * np.pi * (n + 1 - 2 * j)
    g += np.sum(np.arctan(x[:, None] + x[None, :]), axis=1)
    if fam is FlowFamily.WILSON:
        return g - np.arctan(2.0 * x) - np.pi * j
    if fam is FlowFamily.REDUCED_EVEN:
        return g - np.pi * (j - 0.5)
    return g + np.arctan(x) - np.pi * j


def ref_rhs(kind, x):
    x = np.asarray(x, dtype=float)
    if kind.family is not FlowFamily.JACOBI:
        return -ref_gradient(kind, x)
    p = kind.params
    d = x[:, None] - x[None, :]
    np.fill_diagonal(d, np.inf)
    b_drift = (p.alpha + 1) * (x + 1.0) + (p.beta + 1) * (x - 1.0)
    return -b_drift - (x * x - 1.0) * np.sum(2.0 / d, axis=1)


# -- reference: the five-evaluation RK4 loop ------------------------------------

def ref_integrate(kind, x0, settings):
    x = np.asarray(x0, dtype=float).copy()
    t, h = 0.0, settings.step
    times, states = [0.0], [x.copy()]

    def check(y):
        if kind.family is FlowFamily.JACOBI and not (
            np.all(np.diff(y) > 0) and y[0] > -1 and y[-1] < 1
        ):
            raise DomainViolation("outside the Jacobi domain")

    def value(y):
        check(y)
        return ref_potential(kind, y)

    def rhs(y):
        check(y)
        return ref_rhs(kind, y)

    v = value(x)
    accepted = 0
    while t < settings.t_max - 1e-14:
        k1 = rhs(x)
        if np.max(np.abs(k1)) < settings.grad_tol:
            break
        h_try = min(h, settings.t_max - t)
        while True:
            try:
                k2 = rhs(x + 0.5 * h_try * k1)
                k3 = rhs(x + 0.5 * h_try * k2)
                k4 = rhs(x + h_try * k3)
                x_new = x + (h_try / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                v_new = value(x_new)
            except DomainViolation:
                v_new = np.inf
            if np.isfinite(v_new) and v_new <= v + 1e-12 * (1.0 + abs(v)):
                break
            h_try *= 0.5
            if h_try < 1e-12:
                raise StepUnderflow("step halving underflowed")
        x, v = x_new, v_new
        t += h_try
        accepted += 1
        h = min(h_try * 2.0, settings.step)
        if accepted % settings.record_every == 0:
            times.append(t)
            states.append(x.copy())
    if times[-1] < t:
        times.append(t)
        states.append(x.copy())
    return np.array(times), np.array(states)


# -- inputs ---------------------------------------------------------------------

def draw_kind(family, rng):
    if family is FlowFamily.WILSON:
        return PotentialKind(family, random_wilson_params(rng))
    if family is FlowFamily.JACOBI:
        return PotentialKind(family, JacobiParams(rng.uniform(-0.9, 3), rng.uniform(-0.9, 3)))
    return PotentialKind(family, random_ch_params(rng))


def draw_config(kind, n, rng):
    if kind.family is FlowFamily.JACOBI:
        # jitter the equispaced grid by less than half its spacing
        return equispaced_start(n) + rng.uniform(-0.4, 0.4, n) / (n + 1)
    return rng.uniform(-6.0, 6.0, n) * (1.0 + n / 8.0)


def _close(got, ref, rel=1e-13):
    scale = max(1.0, float(np.max(np.abs(ref)))) if np.size(ref) else 1.0
    return np.shape(got) == np.shape(ref) and np.max(np.abs(got - ref), initial=0.0) <= rel * scale


# -- value and gradient ----------------------------------------------------------

@pytest.mark.parametrize("n", DEGREES)
@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
def test_value_and_rhs_match_the_per_family_formulas(family, n):
    rng = np.random.default_rng([n, FAMILIES.index(family)])
    for _ in range(4):  # conftest draws: real and conjugate-pair parameters
        kind = draw_kind(family, rng)
        ev = evaluator(kind, n)
        x = draw_config(kind, n, rng)
        v_ref, g_ref = ref_potential(kind, x), ref_gradient(kind, x)
        v, rhs = ev.value_rhs(x)
        assert _close(v, v_ref)
        assert _close(rhs, ref_rhs(kind, x))
        v, g = ev.value_gradient(x)
        assert _close(v, v_ref) and _close(g, g_ref)
        assert _close(potential(kind, x), v_ref)
        assert _close(gradient(kind, x), g_ref)
        if family is not FlowFamily.JACOBI:
            assert np.array_equal(rhs, -gradient(kind, x))


def test_boundary_parameter_raises_branch_crossing():
    kind = PotentialKind(FlowFamily.WILSON, WilsonParams(1.0, 1.0, 0.5, 0.0, allow_boundary=True))
    x = np.array([0.5, 1.5, 2.5])
    with pytest.raises(BranchCrossing):
        potential(kind, x)
    with pytest.raises(BranchCrossing):
        gradient(kind, x)
    with pytest.raises(BranchCrossing):
        integrate(kind, x)


# -- the integrator against the reference loop -------------------------------------

def _trajectory_case(family, seed):
    rng = np.random.default_rng([seed, 7, FAMILIES.index(family)])
    kind = draw_kind(family, rng)
    if family is FlowFamily.JACOBI:
        n = int(rng.integers(3, 9))
        return kind, draw_config(kind, n, rng), FlowSettings(
            step=1.0 / (2 * n * n + 10), t_max=10.0 / (2 * n), grad_tol=1e-13
        )
    n = int(rng.integers(3, 9))
    return kind, rng.uniform(-3.0, 3.0, n), FlowSettings(step=0.05, t_max=4.0, grad_tol=1e-13)


def _assert_same_trajectory(traj: Trajectory, times, states):
    assert np.array_equal(traj.times, times)
    assert np.max(np.abs(traj.states - states)) <= 1e-12


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
def test_integrate_matches_the_five_evaluation_loop(family, seed):
    kind, x0, settings = _trajectory_case(family, seed)
    _assert_same_trajectory(integrate(kind, x0, settings), *ref_integrate(kind, x0, settings))


@pytest.mark.parametrize("family", [FlowFamily.CONTINUOUS_HAHN, FlowFamily.JACOBI],
                         ids=lambda f: f.value)
def test_integrate_matches_the_reference_through_step_halving(family):
    # a step far above the stable one: CH overshoots until the descent test
    # halves it, Jacobi steps leave (-1, 1) and are halved on DomainViolation
    rng = np.random.default_rng(3)
    kind = draw_kind(family, rng)
    if family is FlowFamily.JACOBI:
        x0, settings = equispaced_start(6), FlowSettings(step=0.2, t_max=1.0)
    else:
        x0, settings = rng.uniform(-20.0, 20.0, 6), FlowSettings(step=2.0, t_max=20.0)
    traj = integrate(kind, x0, settings)
    steps = np.diff(traj.times)
    assert np.any(steps[:-1] < settings.step), "no step was halved"
    _assert_same_trajectory(traj, *ref_integrate(kind, x0, settings))


# -- evaluation count ------------------------------------------------------------

@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
def test_accepted_step_costs_four_evaluations(family, monkeypatch):
    calls = []
    for name in ("rhs", "value_rhs"):
        method = getattr(potentials._Evaluator, name)

        def counted(self, x, _method=method):
            calls.append(1)
            return _method(self, x)

        monkeypatch.setattr(potentials._Evaluator, name, counted)
    kind, x0, settings = _trajectory_case(family, 0)
    traj = integrate(kind, x0, settings)
    accepted = traj.times.size - 1
    assert np.allclose(np.diff(traj.times)[:-1], settings.step), "a step was halved"
    assert accepted > 10
    assert len(calls) == 1 + 4 * accepted
