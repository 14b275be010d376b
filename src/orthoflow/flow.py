"""Flow integration to equilibrium and Newton polishing.

The integrator is a classical explicit 4th-order one-step method whose
step is halved whenever the potential fails to decrease across a step;
monotone descent is the natural cheap error monitor for these flows.

Every potential is convex on its (convex) domain, so a step from x to x_new
cannot raise it when the slope grad V(x_new) . (x_new - x) is not positive
(the first-order condition of convexity). The descent guard is this
certificate, read off the rhs at x_new (``_Evaluator.slope``), which an
accepted step reuses as the next step's first stage (first same as last).
Only when the slope is positive or NaN does the guard fall back to the value
test, V(x_new) <= V(x) up to ``_DESCENT_SLACK``, evaluating the potential at
x once per state and at x_new. An accepted step thus costs four evaluations
and, in nearly every step, no potential. Newton's line search applies the
same rule with the gradient at its trial, which is also the next gradient.

Each ``integrate`` and ``newton_solve`` call builds one evaluator for its
(kind, n) (see ``potentials``) and keeps it for the run only. At the flows'
sizes an evaluation costs a few numpy calls on a small table, so the RK4
stages and the increment are formed in place in one per-run buffer, and
the stop test calls the array methods directly: max |v| < tol is read off
v.max() and v.min() (``_below``), with no temporary |v|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, MaxIterations, SingularHessian, StepUnderflow
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
        if not (0 < self.step < self.t_max < np.inf):
            raise ValueError("require 0 < step < t_max, t_max finite")
        if not 0 < self.grad_tol < np.inf:
            raise ValueError("grad_tol must be finite and positive")
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


def _start(x0) -> np.ndarray:
    x = np.asarray(x0, dtype=float).copy()
    if not np.all(np.isfinite(x)):
        raise ValueError("the start x0 must be finite")
    return x


def _rk4_step(rhs, x, h, k1, buf):
    """The RK4 increment (h/6)(k1 + 2 k2 + 2 k3 + k4), formed in ``buf``;
    the stages x + c h k are formed there too, so ``buf`` is overwritten."""
    k2 = rhs(np.add(np.multiply(k1, 0.5 * h, out=buf), x, out=buf))
    k3 = rhs(np.add(np.multiply(k2, 0.5 * h, out=buf), x, out=buf))
    k4 = rhs(np.add(np.multiply(k3, h, out=buf), x, out=buf))
    np.add(k2, k3, out=buf)
    buf *= 2.0
    buf += k1
    buf += k4
    buf *= h / 6.0
    return buf


def _below(v: np.ndarray, tol: float) -> bool:
    """Whether max |v| < tol, from the extremes of v: no temporary array,
    and the second reduction only when the first passes. NaN never is."""
    return v.max() < tol and v.min() > -tol


def _value_descends(v: float, v_new: float) -> bool:
    """The fallback descent test: V(x_new) <= V(x) up to the roundoff slack."""
    return bool(np.isfinite(v_new) and v_new <= v + _DESCENT_SLACK * (1.0 + abs(v)))


def integrate(kind: PotentialKind, x0, settings: FlowSettings | None = None) -> Trajectory:
    """Integrate the flow from x0 until t_max or the rhs max-norm drops
    below grad_tol; the final state is always recorded.

    A trial step dx is accepted when the slope grad V(x_new) . dx, read off
    the rhs at x_new, is not positive: V is convex, so then V(x_new) <=
    V(x). In floating point a computed slope <= 0 can hide a true slope of
    about n eps |rhs| |dx|_1 (plus eps |rhs| |x_new|_1 from rounding x + dx),
    a possible rise in V far below the ``_DESCENT_SLACK`` (1 + |V|) that the
    value test allows. A positive or NaN slope falls back to that value
    test, with V(x) evaluated once per state; a step that leaves the domain
    (``DomainViolation``) or fails both tests is halved.
    """
    settings = settings or FlowSettings()
    x = _start(x0)
    n = x.size
    if n == 0:
        return Trajectory(np.zeros(1), np.zeros((1, 0)), kind)

    ev = evaluator(kind, n)
    t = 0.0
    h = settings.step
    times = [0.0]
    states = [x]
    k1 = ev.rhs(x)
    v = None  # V(x), evaluated only for the fallback test
    buf = np.empty(n)
    accepted = 0

    while t < settings.t_max - 1e-14:
        if _below(k1, settings.grad_tol):
            break
        h_try = min(h, settings.t_max - t)
        while True:
            try:
                dx = _rk4_step(ev.rhs, x, h_try, k1, buf)
                x_new = x + dx
                # first same as last: the rhs at the accepted x_new is k1 of
                # the next step
                k1_new = ev.rhs(x_new)
            except DomainViolation:
                pass
            else:
                v_new = None
                if ev.slope(x_new, k1_new, dx) <= 0.0:
                    break
                if v is None:
                    v = ev.value(x)
                v_new = ev.value(x_new)
                if _value_descends(v, v_new):
                    break
            h_try *= 0.5
            if h_try < _MIN_STEP:
                raise StepUnderflow(
                    f"step halving underflowed at t={t:.6g} (domain singularity?)"
                )
        # x_new is a fresh array that nothing writes to, so it is recorded as is
        x, v, k1 = x_new, v_new, k1_new
        t += h_try
        accepted += 1
        # recover towards the requested step after a forced halving
        h = min(h_try * 2.0, settings.step)
        if accepted % settings.record_every == 0:
            times.append(t)
            states.append(x)

    if times[-1] < t:
        times.append(t)
        states.append(x)
    return Trajectory(np.array(times), np.array(states), kind)


def newton_solve(kind: PotentialKind, x0, tol: float = 1e-10, max_iter: int = 200) -> np.ndarray:
    """Damped Newton descent on the potential down to gradient max-norm tol.

    The line search halves the damping until a trial descends, by the same
    rule as ``integrate``: the convexity certificate grad V(x_try) .
    (x_try - x) <= 0, whose gradient is the next iteration's, and otherwise
    the value test, with V(x) evaluated once per iterate.
    """
    if not 0 < tol < np.inf:
        raise ValueError("tol must be finite and positive")
    x = _start(x0)
    if x.size == 0:
        return x
    ev = evaluator(kind, x.size)
    g = ev.gradient(x)
    v = None  # V(x), evaluated only for the fallback test
    for _ in range(max_iter):
        if _below(g, tol):
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
                g_new = ev.gradient(x_try)
            except DomainViolation:
                pass
            else:
                v_new = None
                if g_new.dot(x_try - x) <= 0.0:
                    break
                if v is None:
                    v = ev.value(x)
                v_new = ev.value(x_try)
                if _value_descends(v, v_new):
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


def equispaced_start(n: int) -> np.ndarray:
    """Equispaced interior grid -1 + 2j/(n+1), a valid ordered start."""
    j = np.arange(1, n + 1)
    return -1.0 + 2.0 * j / (n + 1)


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
