"""The per-run evaluator against references kept from the code it replaced:
one formula branch per family for the potential and its gradient, and the
fixed-step RK4 loop that evaluated the rhs and the potential separately
(five calls per accepted step). Where the integrator lengthens its step, its
samples are compared with the loop's within a bound relative to the
distance from equilibrium (``assert_close_to_fixed_step``). Where it halves
its step, the loop's value test and the integrator's convexity certificate
refuse different steps, so both are compared with Radau instead."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

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
    newton_solve,
    potential,
)
from orthoflow import flow, potentials
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
        v, rhs, g = ev.value(x), ev.rhs(x), ev.gradient(x)
        assert _close(v, v_ref)
        assert _close(rhs, ref_rhs(kind, x))
        assert _close(g, g_ref)
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


def count_potential(monkeypatch) -> list:
    """One entry per evaluation of the potential by any evaluator."""
    calls = []
    for cls in (potentials._MorseEvaluator, potentials._JacobiEvaluator):
        method = cls.value

        def counted(self, x, _method=method):
            calls.append(1)
            return _method(self, x)

        monkeypatch.setattr(cls, "value", counted)
    return calls


def radau_states(kind, x0, times) -> np.ndarray:
    """The flow from x0 at the given times, by scipy's Radau at rtol 1e-12."""
    ev = evaluator(kind, len(x0))
    sol = solve_ivp(lambda _, y: ev.rhs(y), (0.0, times[-1]), x0, method="Radau",
                    t_eval=times, rtol=1e-12, atol=1e-14)
    assert sol.success, sol.message
    return sol.y.T


def assert_potential_does_not_rise(kind, states):
    """V over the recorded samples, up to the roundoff slack of a certified
    step: 1e-12 (1 + |V|)."""
    ev = evaluator(kind, states.shape[1])
    v = np.array([ev.value(x) for x in states])
    assert np.all(np.diff(v) <= 1e-12 * (1.0 + np.abs(v[:-1])))


def trial_steps(monkeypatch) -> list:
    """The step h of every integrator trial, kept or refused, in the order
    tried, recorded from its RK4 kernel."""
    steps = []
    rk4_step = flow._rk4_step

    def spy(rhs, x, h, k1, buf):
        steps.append(h)
        return rk4_step(rhs, x, h, k1, buf)

    monkeypatch.setattr(flow, "_rk4_step", spy)
    return steps


def assert_halved_like_the_loop(kind, x0, settings, traj: Trajectory, times, states, steps):
    """A trajectory whose steps are halved (``steps``, from ``trial_steps``)
    against a fixed-step loop's run of the same settings (``times``,
    ``states``): a step was halved, V does not rise over the samples, and
    the largest error against Radau is the loop's, up to 1e-12."""
    assert min(steps) <= settings.step / 2, "no step was halved"
    assert_potential_does_not_rise(kind, traj.states)
    err = np.max(np.abs(traj.states - radau_states(kind, x0, traj.times)))
    ref_err = np.max(np.abs(states - radau_states(kind, x0, times)))
    assert err <= ref_err + 1e-12


def lengthened_starts(monkeypatch) -> list:
    """The start times of the integrator's trials of more than one grid
    interval, in the order tried, recorded from its grid helper."""
    starts = []
    grid = flow._grid

    def spy(t, step, t_max, m):
        if m > 1:
            starts.append(t)
        return grid(t, step, t_max, m)

    monkeypatch.setattr(flow, "_grid", spy)
    return starts


def assert_close_to_fixed_step(kind, settings, traj: Trajectory, times, states, starts=()):
    """A lengthened-step trajectory against the fixed-step loop's.

    The grid times are the loop's; only a flow that the loop stopped at
    grad_tol may go on for a few more samples, since the stop test runs at
    step ends only. Up to the first lengthened trial (``starts[0]``) the
    states are the loop's within 1e-12; after it each common sample is
    within 1e-3 |x_ref - x*|_inf + 1e-12, with x* Newton's from the loop's
    end.
    """
    k = times.size
    assert traj.times.size >= k
    assert np.array_equal(traj.times[:k], times)
    if traj.times.size > k:
        assert times[-1] < settings.t_max, "the loop ran to t_max, so must the integrator"
    x_star = newton_solve(kind, states[-1], tol=1e-11)
    bound = 1e-3 * np.max(np.abs(states - x_star), axis=1) + 1e-12
    if starts:
        bound[times <= starts[0]] = 1e-12
    else:
        bound[:] = 1e-12
    assert np.all(np.max(np.abs(traj.states[:k] - states), axis=1) <= bound)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
def test_integrate_matches_the_five_evaluation_loop(family, seed, monkeypatch):
    kind, x0, settings = _trajectory_case(family, seed)
    starts = lengthened_starts(monkeypatch)
    traj = integrate(kind, x0, settings)
    assert_close_to_fixed_step(kind, settings, traj, *ref_integrate(kind, x0, settings), starts)


def halving_case(family):
    """A step far above the stable one: CH overshoots until the descent
    guard halves it, Jacobi steps leave (-1, 1) and are halved on
    DomainViolation."""
    rng = np.random.default_rng(3)
    kind = draw_kind(family, rng)
    if family is FlowFamily.JACOBI:
        return kind, equispaced_start(6), FlowSettings(step=0.2, t_max=1.0)
    return kind, rng.uniform(-20.0, 20.0, 6), FlowSettings(step=2.0, t_max=20.0)


@pytest.mark.parametrize("family", [FlowFamily.CONTINUOUS_HAHN, FlowFamily.JACOBI],
                         ids=lambda f: f.value)
def test_integrate_matches_the_reference_through_step_halving(family, monkeypatch):
    kind, x0, settings = halving_case(family)
    calls = count_potential(monkeypatch)
    steps = trial_steps(monkeypatch)
    traj = integrate(kind, x0, settings)
    assert calls == []
    assert_halved_like_the_loop(kind, x0, settings, traj, *ref_integrate(kind, x0, settings),
                                steps)


# -- evaluation count ------------------------------------------------------------

@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
def test_accepted_step_costs_four_evaluations(family, monkeypatch):
    calls = []
    for cls in (potentials._MorseEvaluator, potentials._JacobiEvaluator):
        method = cls.rhs

        def counted(self, x, _method=method):
            calls.append(1)
            return _method(self, x)

        monkeypatch.setattr(cls, "rhs", counted)
    trials = trial_steps(monkeypatch)
    kind, x0, settings = _trajectory_case(family, 0)
    traj = integrate(kind, x0, settings)
    intervals = traj.times.size - 1
    assert np.allclose(np.diff(traj.times)[:-1], settings.step), "a step was halved"
    assert intervals > 10
    # every trial, kept or refused, costs four evaluations, and no more
    # trials run than the fixed-step loop's one per grid interval
    assert len(calls) == 1 + 4 * len(trials)
    assert len(calls) <= 1 + 4 * intervals
