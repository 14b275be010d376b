"""The integrator's lengthened steps: accuracy against an independent
high-order integrator, the recorded grid, the Jacobi domain, the work saved,
the trial budget that ends a stalled flow, and the default-step Jacobi
flows, which converge."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from orthoflow import FlowFamily, FlowSettings, default_start, integrate, newton_solve
from orthoflow import flow, potentials
from orthoflow.flow import _TRIALS_PER_INTERVAL
from orthoflow.cli import EXIT_NUMERICAL, main
from orthoflow.params import Family, JacobiParams
from orthoflow.potentials import PotentialKind, evaluator, in_domain

from test_descent_certificate import WORKLOAD_DEGREES, _workload_settings, value_integrate
from test_flow_kernel import (
    FAMILIES,
    assert_close_to_fixed_step,
    draw_kind,
    lengthened_starts,
    radau_states,
)

DEGREES = [1, 2, 7, 33]


def _draws(family, n, seed):
    """Four conftest draws of ``family`` (real and conjugate-pair parameters)."""
    rng = np.random.default_rng([n, seed, FAMILIES.index(family)])
    return [draw_kind(family, rng) for _ in range(4)]


@pytest.mark.parametrize("n", DEGREES)
@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
def test_no_less_accurate_than_the_fixed_step_loop(family, n):
    # DOP853 at rtol 1e-12 as the reference solution; each sample's error may
    # exceed the fixed-step loop's by 1e-3 of its distance from equilibrium
    for kind in _draws(family, n, 31):
        x0, settings = default_start(kind, n), _workload_settings(kind, n)
        traj, fixed = integrate(kind, x0, settings), value_integrate(kind, x0, settings)
        k = min(traj.times.size, fixed.times.size)
        if k == 1:  # the start meets grad_tol: nothing was integrated
            assert np.array_equal(traj.states, fixed.states)
            continue
        t = fixed.times[:k]
        ev = evaluator(kind, n)
        ref = solve_ivp(lambda _, y: ev.rhs(y), (0.0, t[-1]), x0, method="DOP853",
                        t_eval=t, rtol=1e-12, atol=1e-14).y.T
        err = np.max(np.abs(traj.states[:k] - ref), axis=1)
        fixed_err = np.max(np.abs(fixed.states[:k] - ref), axis=1)
        # Jacobi at n = 33 meets no tighter tolerance
        x_star = newton_solve(kind, fixed.states[-1], tol=1e-10)
        dev = np.max(np.abs(fixed.states[:k] - x_star), axis=1)
        assert np.all(err <= fixed_err + 1e-3 * dev + 1e-12)


@pytest.mark.parametrize("n", DEGREES)
def test_every_recorded_jacobi_sample_is_in_the_domain(n, monkeypatch):
    starts = lengthened_starts(monkeypatch)
    for kind in _draws(FlowFamily.JACOBI, n, 37):
        traj = integrate(kind, default_start(kind, n), _workload_settings(kind, n))
        assert all(in_domain(x) for x in traj.states)
    if n > 1:
        assert starts, "no step was lengthened"


@pytest.mark.parametrize("every", [3, 7])
@pytest.mark.parametrize("family", [f for f in FAMILIES if f is not FlowFamily.JACOBI],
                         ids=lambda f: f.value)
def test_record_every_counts_grid_intervals(family, every, monkeypatch):
    # every-th grid time, whether a step ends there or the interpolant
    # supplies it, as the fixed-step loop records it
    starts = lengthened_starts(monkeypatch)
    kind = _draws(family, 10, 41)[0]
    x0 = default_start(kind, 10)
    settings = FlowSettings(step=0.05, t_max=30.0, grad_tol=1e-13, record_every=every)
    ref = value_integrate(kind, x0, settings)
    assert_close_to_fixed_step(kind, settings, integrate(kind, x0, settings), ref.times,
                               ref.states, starts)
    assert starts, "no step was lengthened"


def _count_rhs(monkeypatch):
    calls = []
    for cls in (potentials._MorseEvaluator, potentials._JacobiEvaluator):
        method = cls.rhs

        def counted(self, x, _method=method):
            calls.append(1)
            return _method(self, x)

        monkeypatch.setattr(cls, "rhs", counted)
    return calls


def test_a_stalled_flow_ends_in_a_numerical_failure(tmp_path, capsys):
    # 1/Re a = 1e300 makes the flow so stiff that no step of at least 1e-12
    # certifies descent: the halving ends it; at 1/Re a = 1e12 the step stays
    # near 1e-11, where it used to run for ~1e12 steps: the trial count
    # bounds the run
    def run(a, b):
        argv = ["flow", "--family", "ch", "--n", "3", "--a", a, "--b", b,
                "--output", str(tmp_path / "f.csv")]
        assert main(argv) == EXIT_NUMERICAL
        out, err = capsys.readouterr()
        assert out == ""
        return err

    err = run("1e-300+1i", "1e-300-1i")
    assert err.startswith("numerical failure: StepUnderflow: step halving underflowed at t=")
    assert err.endswith(": no step down to 1e-12 certified descent\n")
    err = run("1e-12+1i", "1e-12-1i")
    assert err.startswith("numerical failure: StepUnderflow: the flow stalled at t=")
    assert "of t_max=30: 38400 step trials below 4.77e-08, smallest step " in err


def test_a_stiff_flow_that_progresses_is_not_a_stall(monkeypatch):
    # the Jacobi step near its stability edge shrinks like 1/n^2: at n = 60 and
    # the default step each grid interval takes ~130 halved trials, more than
    # the 64 per interval that end a stall, but none below the stall step
    kind = PotentialKind(Family.JACOBI, JacobiParams(0.5, 0.5))
    settings = FlowSettings(step=0.05, t_max=1.0)
    trials = []
    rk4_step = flow._rk4_step

    def counted_trial(*args):
        trials.append(1)
        return rk4_step(*args)

    monkeypatch.setattr(flow, "_rk4_step", counted_trial)
    x0 = default_start(kind, 60)
    traj = integrate(kind, x0, settings)
    assert len(trials) > _TRIALS_PER_INTERVAL * traj.times[-1] / settings.step
    assert np.max(np.abs(traj.states[-1] - newton_solve(kind, x0))) <= 1e-12


@pytest.mark.parametrize("n", [8, 18, 33])
def test_default_step_jacobi_flows_converge(n):
    # at the default step the Jacobi flow rings at its stability edge; the
    # certificate refuses those steps, so the flow meets grad_tol early,
    # and its end is the flow's (Radau) and Newton's
    kind = PotentialKind(Family.JACOBI, JacobiParams(0.5, 0.25))
    x0 = default_start(kind, n)
    traj = integrate(kind, x0, FlowSettings(step=0.05, grad_tol=1e-10))
    assert traj.times[-1] < 2.0
    end = traj.states[-1]
    assert np.max(np.abs(evaluator(kind, n).rhs(end))) < 1e-10
    assert np.max(np.abs(end - radau_states(kind, x0, traj.times[-1:])[-1])) <= 1e-9
    assert np.max(np.abs(end - newton_solve(kind, x0))) <= 1e-9


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
def test_flows_take_fewer_evaluations_than_the_fixed_step_loop(family, monkeypatch):
    # over the workload's degrees and the conftest draws: the Morse flows
    # decay smoothly after their first time units, and take under half the
    # loop's evaluations; the Jacobi step sits near its stability edge, where
    # a refused lengthening costs a trial of four evaluations, so one flow
    # may take a trial more than the loop, but not all of them together
    calls = _count_rhs(monkeypatch)
    counts = []
    for n in WORKLOAD_DEGREES[family]:
        for kind in _draws(family, n, 47):
            x0, settings = default_start(kind, n), _workload_settings(kind, n)
            calls.clear()
            value_integrate(kind, x0, settings)
            fixed = len(calls)
            calls.clear()
            integrate(kind, x0, settings)
            counts.append((len(calls), fixed))
    got, fixed = np.sum(counts, axis=0)
    assert got <= fixed if family is FlowFamily.JACOBI else got < fixed / 2
