"""The convexity certificate that guards descent in the integrator and in
Newton's line search, against verbatim copies of the value-test loops it
replaced: the certificate never accepts a step that the value test would
refuse, the potential drops out of steps that are not halved, and times,
states, Newton roots and CLI outputs stay bitwise equal."""

import numpy as np
import pytest

from orthoflow import (
    DomainViolation,
    FlowFamily,
    FlowSettings,
    MaxIterations,
    SingularHessian,
    StepUnderflow,
    Trajectory,
    default_start,
    equispaced_start,
    integrate,
    jacobi_kappa,
    newton_solve,
)
from orthoflow import cli, flow, oracle, potentials
from orthoflow.flow import _DESCENT_SLACK, _MIN_STEP, _start
from orthoflow.jacobi_baseline import in_domain
from orthoflow.potentials import PotentialKind, evaluator

from test_flow_kernel import FAMILIES, _trajectory_case, draw_config, draw_kind, ref_integrate


# -- reference: the value-test integrator and Newton solver ------------------------

def value_rk4_step(rhs, x, h, k1):
    k2 = rhs(x + 0.5 * h * k1)
    k3 = rhs(x + 0.5 * h * k2)
    k4 = rhs(x + h * k3)
    # x + (h/6)(k1 + 2 k2 + 2 k3 + k4), formed in place in one new array
    acc = k2 + k3
    acc *= 2.0
    acc += k1
    acc += k4
    acc *= h / 6.0
    acc += x
    return acc


def value_integrate(kind: PotentialKind, x0, settings: FlowSettings | None = None) -> Trajectory:
    """Integrate the flow from x0 until t_max or the rhs max-norm drops
    below grad_tol; the final state is always recorded."""
    settings = settings or FlowSettings()
    x = _start(x0)
    n = x.size
    if n == 0:
        return Trajectory(np.zeros(1), np.zeros((1, 0)), kind)

    ev = evaluator(kind, n)
    t = 0.0
    h = settings.step
    times = [0.0]
    states = [x.copy()]
    v, k1 = ev.value_rhs(x)
    accepted = 0

    while t < settings.t_max - 1e-14:
        if np.abs(k1).max() < settings.grad_tol:
            break
        h_try = min(h, settings.t_max - t)
        while True:
            try:
                x_new = value_rk4_step(ev.rhs, x, h_try, k1)
                # first same as last: the descent test's evaluation at the
                # accepted x_new is k1 of the next step
                v_new, k1_new = ev.value_rhs(x_new)
            except DomainViolation:
                v_new = np.inf
            if np.isfinite(v_new) and v_new <= v + _DESCENT_SLACK * (1.0 + abs(v)):
                break
            h_try *= 0.5
            if h_try < _MIN_STEP:
                raise StepUnderflow(
                    f"step halving underflowed at t={t:.6g} (domain singularity?)"
                )
        x, v, k1 = x_new, v_new, k1_new
        t += h_try
        accepted += 1
        # recover towards the requested step after a forced halving
        h = min(h_try * 2.0, settings.step)
        if accepted % settings.record_every == 0:
            times.append(t)
            states.append(x.copy())

    if times[-1] < t:
        times.append(t)
        states.append(x.copy())
    return Trajectory(np.array(times), np.array(states), kind)


def value_newton_solve(kind: PotentialKind, x0, tol: float = 1e-10, max_iter: int = 200) -> np.ndarray:
    """Damped Newton descent on the potential down to gradient max-norm tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = _start(x0)
    if x.size == 0:
        return x
    ev = evaluator(kind, x.size)
    v, g = ev.value_gradient(x)
    for _ in range(max_iter):
        if np.max(np.abs(g)) < tol:
            return x
        h = ev.hessian(x)
        try:
            step = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError as exc:
            raise SingularHessian(str(exc)) from exc
        damping = 1.0
        while damping >= _MIN_STEP:
            x_try = x + damping * step
            try:
                # the accepted trial also gives the next gradient
                v_new, g_new = ev.value_gradient(x_try)
            except DomainViolation:
                v_new = np.inf
            if np.isfinite(v_new) and v_new <= v + _DESCENT_SLACK * (1.0 + abs(v)):
                break
            damping *= 0.5
        else:
            raise SingularHessian("damped Newton step failed to decrease the potential")
        x, v, g = x_try, v_new, g_new
    raise MaxIterations(f"no convergence to gradient tolerance {tol} in {max_iter} steps")


# -- the certificate ------------------------------------------------------------------

def _increments(kind, ev, x, rng):
    """A flow step and a random step, each at three lengths, so that some
    overshoot; for Jacobi each is halved until x + dx stays in the domain."""
    base = [0.05 * ev.rhs(x), 0.05 * rng.standard_normal(x.size) * (1.0 + np.abs(x))]
    if kind.family is FlowFamily.JACOBI:
        base = [0.01 * b / max(1.0, float(np.abs(b).max())) / (x.size + 1) for b in base]
    for dx0 in base:
        for scale in (1.0, 10.0, 100.0):
            dx = scale * dx0
            if kind.family is FlowFamily.JACOBI:
                while not in_domain(x + dx):
                    dx *= 0.5
            yield dx


@pytest.mark.parametrize("n", [1, 2, 7, 33])
@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
def test_a_non_positive_slope_certifies_descent(family, n):
    rng = np.random.default_rng([n, 13, FAMILIES.index(family)])
    signs = set()
    for _ in range(4):  # conftest draws: real and conjugate-pair parameters
        kind = draw_kind(family, rng)
        ev = evaluator(kind, n)
        x = draw_config(kind, n, rng)
        v = ev.value(x)
        for dx in _increments(kind, ev, x, rng):
            x_new = x + dx
            s = ev.slope(x_new, ev.rhs(x_new), dx)
            g = ev.gradient(x_new)
            assert abs(s - g.dot(dx)) <= 1e-13 * np.abs(g).dot(np.abs(dx))
            signs.add(bool(s <= 0.0))
            if s <= 0.0:
                assert ev.value(x_new) <= v + 1e-12 * (1.0 + abs(v))
    assert signs == {True, False}, "the draws must give slopes of both signs"


def _count_potential(monkeypatch):
    calls = []
    for name in ("value", "value_rhs", "value_gradient"):
        method = getattr(potentials._Evaluator, name)

        def counted(self, x, _method=method):
            calls.append(1)
            return _method(self, x)

        monkeypatch.setattr(potentials._Evaluator, name, counted)
    return calls


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
def test_steps_that_are_not_halved_evaluate_no_potential(family, seed, monkeypatch):
    calls = _count_potential(monkeypatch)
    kind, x0, settings = _trajectory_case(family, seed)
    traj = integrate(kind, x0, settings)
    assert np.allclose(np.diff(traj.times)[:-1], settings.step), "a step was halved"
    assert traj.times.size > 10
    assert calls == []


def test_a_refused_certificate_falls_back_to_the_value_test(monkeypatch):
    # test_flow_kernel's continuous Hahn halving case: steps overshoot, the
    # slope turns positive and the value test decides
    rng = np.random.default_rng(3)
    kind = draw_kind(FlowFamily.CONTINUOUS_HAHN, rng)
    x0, settings = rng.uniform(-20.0, 20.0, 6), FlowSettings(step=2.0, t_max=20.0)
    calls = _count_potential(monkeypatch)
    traj = integrate(kind, x0, settings)
    assert len(calls) >= 1
    assert np.any(np.diff(traj.times)[:-1] < settings.step), "no step was halved"
    times, states = ref_integrate(kind, x0, settings)
    assert np.array_equal(traj.times, times)
    assert np.max(np.abs(traj.states - states)) <= 1e-12


# -- same results as the value test ------------------------------------------------

#: the trajectory workload's degree ranges (ch-even and ch-odd in reduced
#: coordinates m = n // 2), their ends and middle
WORKLOAD_DEGREES = {
    FlowFamily.CONTINUOUS_HAHN: (8, 19, 32),
    FlowFamily.WILSON: (5, 10, 16),
    FlowFamily.REDUCED_EVEN: (4, 10, 16),
    FlowFamily.REDUCED_ODD: (4, 10, 16),
    FlowFamily.JACOBI: (4, 11, 20),
}


def _workload_settings(kind, n):
    if kind.family is not FlowFamily.JACOBI:
        return FlowSettings(step=0.05, t_max=30.0, grad_tol=1e-13)
    return FlowSettings(step=min(0.05, 1.0 / (2 * n * n + 10)),
                        t_max=30.0 / jacobi_kappa(kind.params, n), grad_tol=1e-13)


def _outcome(solve, *args, **kwargs):
    try:
        return solve(*args, **kwargs)
    except (MaxIterations, SingularHessian) as exc:
        return repr(exc)


def _same_runs(kind, x0, settings):
    traj, ref = integrate(kind, x0, settings), value_integrate(kind, x0, settings)
    assert np.array_equal(traj.times, ref.times)
    assert np.array_equal(traj.states, ref.states)
    # from the flow's endpoint as ``solve_roots`` and the trajectory workload
    # do, and from the start as ``roots`` and ``full_verify`` do; Jacobi
    # misses 1e-12 from n = 18, so the failures must agree too
    for start, tol in ((traj.states[-1], 1e-11), (default_start(kind, x0.size), 1e-12)):
        got, ref = _outcome(newton_solve, kind, start, tol=tol), \
            _outcome(value_newton_solve, kind, start, tol=tol)
        assert type(got) is type(ref) and np.array_equal(got, ref)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
def test_same_trajectories_and_roots_as_the_value_test(family):
    rng = np.random.default_rng([17, FAMILIES.index(family)])
    for n in WORKLOAD_DEGREES[family]:
        kind = draw_kind(family, rng)
        _same_runs(kind, default_start(kind, n), _workload_settings(kind, n))


@pytest.mark.parametrize("family", [FlowFamily.CONTINUOUS_HAHN, FlowFamily.JACOBI],
                         ids=lambda f: f.value)
def test_same_trajectories_and_roots_through_step_halving(family):
    # steps far above the stable one: descent failures and domain exits
    rng = np.random.default_rng(3)
    kind = draw_kind(family, rng)
    if family is FlowFamily.JACOBI:
        x0, settings = equispaced_start(6), FlowSettings(step=0.2, t_max=1.0)
    else:
        x0, settings = rng.uniform(-20.0, 20.0, 6), FlowSettings(step=2.0, t_max=20.0)
    _same_runs(kind, x0, settings)
    # Newton from the far start damps its first steps
    got, ref = newton_solve(kind, x0, tol=1e-11), value_newton_solve(kind, x0, tol=1e-11)
    assert np.array_equal(got, ref)


CH = ["--family", "ch", "--n", "30", "--a", "10", "--b", "3/10"]
WILSON = ["--family", "wilson", "--n", "15", "--a", "17/3", "--b", "1/5", "--c", "1+1i",
          "--d", "1-1i"]
EVEN = ["--family", "ch-even", "--n", "12", "--a", "1+0.5i", "--b", "1-0.5i"]
JACOBI = ["--family", "jacobi", "--n", "8", "--alpha", "1/2", "--beta", "1/4"]


@pytest.mark.parametrize("argv", [
    ["flow", *CH, "--output", "{tmp}/out.csv"],
    ["flow", *WILSON, "--t-max", "10", "--output", "{tmp}/out.csv"],
    ["flow", *JACOBI, "--step", "0.007", "--t-max", "1", "--output", "{tmp}/out.csv"],
    ["rate", *EVEN],
    ["rate", *JACOBI, "--step", "0.007", "--t-max", "1"],
    ["roots", *CH, "--format", "json"],
    ["roots", *JACOBI, "--format", "csv", "--output", "{tmp}/out.csv"],
    ["verify", *CH],
    ["verify", *WILSON],
], ids=["flow-ch", "flow-wilson", "flow-jacobi", "rate-ch-even", "rate-jacobi", "roots-ch",
        "roots-jacobi", "verify-ch", "verify-wilson"])
def test_cli_outputs_are_byte_identical_to_the_value_test(argv, monkeypatch, tmp_path, capsys):
    def run():
        code = cli.main([arg.format(tmp=tmp_path) for arg in argv])
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        for p in tmp_path.iterdir():
            p.unlink()
        return code, capsys.readouterr(), files

    got = run()
    monkeypatch.setattr(flow, "integrate", value_integrate)
    for module in (flow, cli, oracle):
        monkeypatch.setattr(module, "newton_solve", value_newton_solve)
    assert got == run()
    assert got[0] == cli.EXIT_OK
