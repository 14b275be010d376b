"""The convexity certificate that guards descent in the integrator and in
Newton's line search, against verbatim copies of the value-test loops it
replaced: the certificate never accepts a step that the value test would
refuse, the integrator never evaluates the potential, and Newton roots stay
bitwise equal. Times and states stay bitwise equal where the integrator
keeps to one grid interval per step; where it lengthens its step they obey
``assert_close_to_fixed_step``, and so do the CLI outputs of those flows.
Where it halves its step, a refused certificate and the value test refuse
different steps, and the trajectories are compared with Radau
(``assert_halved_like_the_loop``)."""

import json

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
    integrate,
    jacobi_kappa,
    newton_solve,
)
from orthoflow import cli, flow, oracle, potentials
from orthoflow.flow import _DESCENT_SLACK, _MIN_STEP, _start
from orthoflow.potentials import in_domain
from orthoflow.potentials import PotentialKind, evaluator

from test_flow_kernel import (
    FAMILIES,
    _trajectory_case,
    assert_close_to_fixed_step,
    assert_halved_like_the_loop,
    assert_potential_does_not_rise,
    count_potential,
    draw_config,
    draw_kind,
    halving_case,
    lengthened_starts,
    trial_steps,
)


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
    v, k1 = ev.value(x), ev.rhs(x)
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
                v_new, k1_new = ev.value(x_new), ev.rhs(x_new)
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
    v, g = ev.value(x), ev.gradient(x)
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
                v_new, g_new = ev.value(x_try), ev.gradient(x_try)
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


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
def test_steps_that_are_not_halved_evaluate_no_potential(family, seed, monkeypatch):
    calls = count_potential(monkeypatch)
    kind, x0, settings = _trajectory_case(family, seed)
    traj = integrate(kind, x0, settings)
    assert np.allclose(np.diff(traj.times)[:-1], settings.step), "a step was halved"
    assert traj.times.size > 10
    assert calls == []


def test_a_refused_certificate_halves_the_step(monkeypatch):
    # test_flow_kernel's continuous Hahn halving case: steps overshoot, the
    # slope turns positive, and the step is halved without evaluating the
    # potential
    kind, x0, settings = halving_case(FlowFamily.CONTINUOUS_HAHN)
    slopes = []
    slope = potentials._MorseEvaluator.slope

    def recorded(self, *args):
        slopes.append(slope(self, *args))
        return slopes[-1]

    monkeypatch.setattr(potentials._MorseEvaluator, "slope", recorded)
    calls = count_potential(monkeypatch)
    steps = trial_steps(monkeypatch)
    traj = integrate(kind, x0, settings)
    assert calls == []
    assert max(slopes) > 0.0, "no certificate was refused"
    assert min(steps) <= settings.step / 2, "no step was halved"
    assert_potential_does_not_rise(kind, traj.states)


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


def _same_roots(kind, end, n):
    """Newton and the value-test Newton, bitwise: from the flow's endpoint as
    ``solve_roots`` and the trajectory workload do, and from the start as
    ``roots`` and ``full_verify`` do; Jacobi misses 1e-12 from n = 18, so the
    failures must agree too."""
    for start, tol in ((end, 1e-11), (default_start(kind, n), 1e-12)):
        got, ref = _outcome(newton_solve, kind, start, tol=tol), \
            _outcome(value_newton_solve, kind, start, tol=tol)
        assert type(got) is type(ref) and np.array_equal(got, ref)


def _close_runs(kind, x0, settings, monkeypatch):
    """Flows that lengthen their step: the trajectory obeys
    ``assert_close_to_fixed_step``, and Newton stays bitwise equal."""
    starts = lengthened_starts(monkeypatch)
    traj, ref = integrate(kind, x0, settings), value_integrate(kind, x0, settings)
    assert_close_to_fixed_step(kind, settings, traj, ref.times, ref.states, starts)
    _same_roots(kind, traj.states[-1], x0.size)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
def test_same_trajectories_and_roots_as_the_value_test(family, monkeypatch):
    rng = np.random.default_rng([17, FAMILIES.index(family)])
    for n in WORKLOAD_DEGREES[family]:
        kind = draw_kind(family, rng)
        _close_runs(kind, default_start(kind, n), _workload_settings(kind, n), monkeypatch)


@pytest.mark.parametrize("family", [FlowFamily.CONTINUOUS_HAHN, FlowFamily.JACOBI],
                         ids=lambda f: f.value)
def test_same_roots_and_accuracy_through_step_halving(family, monkeypatch):
    # steps far above the stable one: refused certificates and domain exits;
    # the value test refuses other steps than the certificate, so the
    # trajectories are compared with Radau, and Newton stays bitwise equal
    kind, x0, settings = halving_case(family)
    calls = count_potential(monkeypatch)
    steps = trial_steps(monkeypatch)
    traj = integrate(kind, x0, settings)
    assert calls == []
    ref = value_integrate(kind, x0, settings)
    assert_halved_like_the_loop(kind, x0, settings, traj, ref.times, ref.states, steps)
    _same_roots(kind, traj.states[-1], x0.size)
    # Newton from the far start damps its first steps
    got, ref = newton_solve(kind, x0, tol=1e-11), value_newton_solve(kind, x0, tol=1e-11)
    assert np.array_equal(got, ref)


CH = ["--family", "ch", "--n", "30", "--a", "10", "--b", "3/10"]
WILSON = ["--family", "wilson", "--n", "15", "--a", "17/3", "--b", "1/5", "--c", "1+1i",
          "--d", "1-1i"]
EVEN = ["--family", "ch-even", "--n", "12", "--a", "1+0.5i", "--b", "1-0.5i"]
JACOBI = ["--family", "jacobi", "--n", "8", "--alpha", "1/2", "--beta", "1/4"]


def _assert_close_cli(got, ref, eqs):
    """CLI outputs of a flow that lengthens its step against the fixed-step
    loop's: the same exit code, stderr and file names, byte-identical time
    columns, states within the bound of ``assert_close_to_fixed_step`` of the
    loop's equilibrium (logerr files: also the gap between the two
    equilibria), and ``rate`` slopes within 1e-3 relative."""
    (code, (out, err), files), (ref_code, (ref_out, ref_err), ref_files) = got, ref
    assert (code, err, sorted(files)) == (ref_code, ref_err, sorted(ref_files))
    eq, ref_eq = eqs
    gap = np.max(np.abs(eq - ref_eq))
    for name, text in files.items():
        rows = [line.split(",") for line in text.decode().splitlines()]
        ref_rows = [line.split(",") for line in ref_files[name].decode().splitlines()]
        assert rows[0] == ref_rows[0] and [r[0] for r in rows] == [r[0] for r in ref_rows]
        values = np.array([r[1:] for r in rows[1:]], dtype=float)
        ref_values = np.array([r[1:] for r in ref_rows[1:]], dtype=float)
        if name.endswith(".logerr.csv"):
            values, ref_values = 10.0 ** values, 10.0 ** ref_values
            dev, slack = np.max(ref_values, axis=1), gap
        else:
            dev, slack = np.max(np.abs(ref_values - ref_eq), axis=1), 0.0
        assert np.all(np.max(np.abs(values - ref_values), axis=1) <= 1e-3 * dev + 1e-12 + slack)
    if not files:  # rate: the JSON report on stdout
        report, ref_report = json.loads(out), json.loads(ref_out)
        assert report.keys() == ref_report.keys()
        slopes, ref_slopes = (np.array(r.pop("measured_slopes")) for r in (report, ref_report))
        assert np.all(np.abs(slopes - ref_slopes) <= 1e-3 * np.abs(ref_slopes))
        for key in ("kappa_bound", "kappa_bound_symmetric", "R_n"):
            if key in report:
                assert report.pop(key) == pytest.approx(ref_report.pop(key), rel=1e-12)
        assert report == ref_report
    else:
        assert out == ref_out


@pytest.mark.parametrize("argv,exact", [
    (["flow", *CH, "--output", "{tmp}/out.csv"], False),
    (["flow", *WILSON, "--t-max", "10", "--output", "{tmp}/out.csv"], False),
    (["flow", *JACOBI, "--step", "0.007", "--t-max", "1", "--output", "{tmp}/out.csv"], True),
    (["rate", *EVEN], False),
    (["rate", *JACOBI, "--step", "0.007", "--t-max", "1"], True),
    (["roots", *CH, "--format", "json"], True),
    (["roots", *JACOBI, "--format", "csv", "--output", "{tmp}/out.csv"], True),
    (["verify", *CH], True),
    (["verify", *WILSON], True),
], ids=["flow-ch", "flow-wilson", "flow-jacobi", "rate-ch-even", "rate-jacobi", "roots-ch",
        "roots-jacobi", "verify-ch", "verify-wilson"])
def test_cli_outputs_are_byte_identical_to_the_value_test(argv, exact, monkeypatch, tmp_path,
                                                          capsys):
    # ``exact``: the request runs no flow, or one that keeps to one grid
    # interval per step; the others lengthen their steps
    def run():
        code = cli.main([arg.format(tmp=tmp_path) for arg in argv])
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        for p in tmp_path.iterdir():
            p.unlink()
        return code, capsys.readouterr(), files

    eqs = []  # the equilibria of the flows' Newton polish, from ``solve_roots``

    def recorded(solve):
        def solve_and_record(*args, **kwargs):
            eqs.append(solve(*args, **kwargs))
            return eqs[-1]
        return solve_and_record

    monkeypatch.setattr(flow, "newton_solve", recorded(flow.newton_solve))
    got = run()
    monkeypatch.setattr(flow, "integrate", value_integrate)
    for module in (cli, oracle):
        monkeypatch.setattr(module, "newton_solve", value_newton_solve)
    monkeypatch.setattr(flow, "newton_solve", recorded(value_newton_solve))
    ref = run()
    if exact:
        assert got == ref
    else:
        _assert_close_cli(got, ref, eqs)
    assert got[0] == cli.EXIT_OK
