"""Flow integration to equilibrium and Newton polishing.

The integrator is a classical explicit 4th-order one-step method whose
step is halved whenever the potential fails to decrease across a step;
monotone descent is the natural cheap error monitor for these flows.

Each ``integrate`` and ``newton_solve`` call builds one evaluator for its
(kind, n) (see ``potentials``) and keeps it for the run only. The descent
test evaluates the potential and the rhs together at the trial state, and
an accepted trial reuses that rhs as the next step's first stage (first
same as last), so an accepted RK4 step costs four evaluations. Newton
likewise takes the next gradient from its accepted line-search trial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, MaxIterations, SingularHessian, StepUnderflow
from .jacobi_baseline import equispaced_start
from .params import Family
from .potentials import PotentialKind, evaluator

_MIN_STEP = 1e-12
#: descent-check slack for potential differences at the roundoff floor
_DESCENT_SLACK = 1e-12


@dataclass(frozen=True)
class FlowSettings:
    step: float = 0.05
    t_max: float = 30.0
    grad_tol: float = 1e-12
    record_every: int = 1

    def __post_init__(self):
        if not (0 < self.step < self.t_max):
            raise ValueError("require 0 < step < t_max")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")
        if self.record_every < 1:
            raise ValueError("record_every must be a positive integer")


@dataclass(frozen=True)
class Trajectory:
    """Recorded states of one flow run; times[0] == 0, strictly increasing."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), n)
    kind: PotentialKind

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.states, dtype=float)
        if t.ndim != 1 or s.ndim != 2 or s.shape[0] != t.size:
            raise ValueError("times and states have inconsistent shapes")
        if t.size and (t[0] != 0.0 or np.any(np.diff(t) <= 0)):
            raise ValueError("times must start at 0 and increase strictly")
        if not np.all(np.isfinite(s)):
            raise ValueError("states must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)


def flow_rhs(kind: PotentialKind, x) -> np.ndarray:
    """dx/dt of the flow: -gradient, except the mobility-weighted Jacobi case."""
    x = np.asarray(x, dtype=float)
    return evaluator(kind, x.size).rhs(x)


def _start(x0) -> np.ndarray:
    x = np.asarray(x0, dtype=float).copy()
    if not np.all(np.isfinite(x)):
        raise ValueError("the start x0 must be finite")
    return x


def _rk4_step(rhs, x, h, k1):
    k2 = rhs(x + 0.5 * h * k1)
    k3 = rhs(x + 0.5 * h * k2)
    k4 = rhs(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(kind: PotentialKind, x0, settings: FlowSettings | None = None) -> Trajectory:
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
        if np.max(np.abs(k1)) < settings.grad_tol:
            break
        h_try = min(h, settings.t_max - t)
        while True:
            try:
                x_new = _rk4_step(ev.rhs, x, h_try, k1)
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


def newton_solve(kind: PotentialKind, x0, tol: float = 1e-10, max_iter: int = 200) -> np.ndarray:
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


def embed(parity: str, y) -> np.ndarray:
    """Embed reduced coordinates into the parity-symmetric full configuration.

    "even": (-y_m, ..., -y_1, y_1, ..., y_m); "odd" additionally inserts 0.
    """
    y = np.asarray(y, dtype=float)
    if parity == "even":
        return np.concatenate([-y[::-1], y])
    if parity == "odd":
        return np.concatenate([-y[::-1], [0.0], y])
    raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")


def default_start(kind: PotentialKind, n: int) -> np.ndarray:
    """All-zeros start, except Jacobi which needs an ordered interior grid."""
    if kind.family is Family.JACOBI:
        return equispaced_start(n)
    return np.zeros(n)


def solve_roots(
    kind: PotentialKind,
    n: int,
    x0=None,
    settings: FlowSettings | None = None,
    newton_tol: float = 1e-10,
) -> tuple[Trajectory, np.ndarray]:
    """Integrate the flow and Newton-polish the endpoint.

    Returns the trajectory and the equilibrium configuration.
    """
    settings = settings or FlowSettings()
    if x0 is None:
        x0 = default_start(kind, n)
    traj = integrate(kind, x0, settings)
    eq = traj.states[-1]
    if n > 0:
        eq = newton_solve(kind, eq, tol=newton_tol)
    return traj, eq
