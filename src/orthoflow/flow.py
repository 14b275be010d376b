"""Flow integration to equilibrium and Newton polishing.

The integrator is the classical explicit 4th-order Runge-Kutta method on a
recording grid of spacing ``FlowSettings.step``. A step spans m grid
intervals. At m = 1, the shortest step, it is halved whenever the descent
guard below refuses it, and recovers by doubling; monotone descent is the
natural cheap error monitor for these flows. Where the flow is smooth, m
grows to 2, 4, 8, ...: RK4 with the rhs at x_new, which is the next step's
first stage k1 (first same as last), carries a free embedded
third-order solution, (1, 2, 2, 0, 1)/6 on (k1, ..., k5), whose distance
from x_new is (h/6)(k4 - k5) (Hairer, Norsett & Wanner, *Solving ODEs I*,
II.4). A lengthened step is kept while that estimate is at most
``_ERR_TOL`` of the step's own increment, and the grid times inside it are
recorded from the cubic Hermite interpolant of its two ends. The estimate
is measured against the increment, not against an absolute tolerance: the
flows decay exponentially and their decay rates are fitted down to the
rounding floor, and an absolute tolerance lets the step ride the stability
edge, where the fast modes ring at tolerance level. A flow stalls
(``StepUnderflow``) when it makes more than ``_TRIALS_PER_INTERVAL`` trials
per grid interval of t_max at a step below ``_STALL_FRACTION`` of the grid
interval. Only a stall has such steps for so long: a stiff flow that still
progresses, such as a Jacobi flow at a large degree, steps near its stability
edge, which shrinks with n; at step 0.05 and (alpha, beta) = (1/2, 1/2)
its smallest step is 2^-5 of the interval at n = 40, 2^-7 at n = 60, 2^-9
at n = 100 and 2^-12 at n = 200.

Every potential is convex on its (convex) domain, so a step from x to x_new
cannot raise it when the slope grad V(x_new) . (x_new - x) is not positive
(the first-order condition of convexity). The descent guard is this
certificate alone, read off the rhs at x_new (``_Evaluator.slope``), which an
accepted step reuses as the next step's first stage (first same as last): a
positive or NaN slope refuses the step. An accepted step thus costs four
evaluations and no potential. Newton's line search tries the same
certificate with the gradient at its trial, which is also the next gradient,
and falls back to the value test V(x_new) <= V(x) up to ``_DESCENT_SLACK``.

Each ``integrate`` and ``newton_solve`` call builds one evaluator for its
(kind, n) (see ``potentials``) and keeps it for the run only. At the flows'
sizes an evaluation costs a few numpy calls on a small table, so the RK4
stages and the increment are formed in place in one per-run buffer, and
the stop test calls the array methods directly: max |v| < tol is read off
v.max() and v.min() (``_below``), with no temporary |v|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, MaxIterations, SingularHessian, StepUnderflow
from .params import Family
from .potentials import PotentialKind, evaluator, in_domain

_MIN_STEP = 1e-12
#: descent-check slack for potential differences at the roundoff floor
_DESCENT_SLACK = 1e-12
#: a step of several grid intervals is refused when its error estimate
#: exceeds this fraction of its increment (max-norms)
_ERR_TOL = 1e-4
#: accepted steps after a refused lengthening before the step may grow again
_HOLD = 16
#: a step below this fraction of the grid interval needs over a million
#: trials per interval: only such trials count towards the stall budget
_STALL_FRACTION = 2.0**-20
#: trials per grid interval of t_max at such steps before ``integrate`` gives up
_TRIALS_PER_INTERVAL = 64


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
    """The RK4 increment (h/6)(k1 + 2 k2 + 2 k3 + k4), formed in ``buf``,
    and k4; the stages x + c h k are formed in ``buf`` too, so it is
    overwritten."""
    k2 = rhs(np.add(np.multiply(k1, 0.5 * h, out=buf), x, out=buf))
    k3 = rhs(np.add(np.multiply(k2, 0.5 * h, out=buf), x, out=buf))
    k4 = rhs(np.add(np.multiply(k3, h, out=buf), x, out=buf))
    np.add(k2, k3, out=buf)
    buf *= 2.0
    buf += k1
    buf += k4
    buf *= h / 6.0
    return buf, k4


def _hermite(x, f, x_new, f_new, h, fractions):
    """The cubic Hermite interpolant of a step of length h from x (rhs f) to
    x_new (rhs f_new), at the given fractions of the step, one row each.
    The weights are formed in Python: a step has few inner samples, and
    per-call numpy overhead dominates at the flows' sizes."""
    weights = []
    for s in fractions:
        q = s * s * (3.0 - 2.0 * s)
        r = h * s * (1.0 - s)
        weights.append((1.0 - q, r * (1.0 - s), q, -r * s))
    return np.array(weights) @ np.array([x, f, x_new, f_new])


def _below(v: np.ndarray, tol: float) -> bool:
    """Whether max |v| < tol, from the extremes of v: no temporary array,
    and the second reduction only when the first passes. NaN never is."""
    return v.max() < tol and v.min() > -tol


def _value_descends(v: float, v_new: float) -> bool:
    """Newton's fallback descent test: V(x_new) <= V(x) up to the roundoff
    slack."""
    return bool(np.isfinite(v_new) and v_new <= v + _DESCENT_SLACK * (1.0 + abs(v)))


def _grid(t: float, step: float, t_max: float, m: int) -> list[float]:
    """The next grid times t + step, (t + step) + step, ..., summed one
    interval at a time as the fixed-step loop sums them: at most m, and only
    while a full interval fits before t_max (t_max - t >= step), as the
    loop's steps do."""
    ends = []
    while len(ends) < m and t_max - t >= step:
        t += step
        ends.append(t)
    return ends


def integrate(kind: PotentialKind, x0, settings: FlowSettings | None = None) -> Trajectory:
    """Integrate the flow from x0 until t_max or the rhs max-norm drops
    below grad_tol (tested at step ends); the final state is always
    recorded.

    A trial step dx is accepted when the slope grad V(x_new) . dx, read off
    the rhs at x_new, is not positive: V is convex, so then V(x_new) <=
    V(x). In floating point a computed slope <= 0 can hide a true slope of
    about n eps |rhs| |dx|_1 (plus eps |rhs| |x_new|_1 from rounding x + dx).
    The potential itself is never evaluated. A step of one grid interval
    whose slope is positive or NaN, or that leaves the domain
    (``DomainViolation``), is halved.

    A step spans m grid intervals of ``settings.step`` (the shortest step
    the lengthening chooses). m doubles after an accepted step whose error
    estimate e = (h/6)(k4 - k5) is below ``_ERR_TOL / 16`` of its increment
    (max-norms); k5 = rhs(x_new) is the next step's k1. A trial of m > 1 is
    retried at m // 2 when e exceeds ``_ERR_TOL`` of the increment, when it
    fails the descent guard or when a stage or a recorded sample leaves the
    domain; m then stays put for ``_HOLD`` accepted steps. The grid times
    inside a lengthened step are recorded from the cubic Hermite
    interpolant of its two ends, and ``record_every`` counts grid intervals.
    More than ``_TRIALS_PER_INTERVAL`` trials per grid interval of t_max at
    a step below ``_STALL_FRACTION`` of the grid interval raise
    ``StepUnderflow``.
    """
    settings = settings or FlowSettings()
    x = _start(x0)
    n = x.size
    if n == 0:
        return Trajectory(np.zeros(1), np.zeros((1, 0)), kind)

    ev = evaluator(kind, n)
    step, t_max, every = settings.step, settings.t_max, settings.record_every
    domain = in_domain if kind.family is Family.JACOBI else None
    t = 0.0
    h = step  # the one-interval step, below ``step`` while it recovers
    m, hold = 1, 0  # grid intervals per step; accepted steps before m may double
    times = [0.0]
    states = [x]
    k1 = ev.rhs(x)
    buf = np.empty(n)
    intervals = stalled = 0
    budget = _TRIALS_PER_INTERVAL * math.ceil(t_max / step)
    stall_step = _STALL_FRACTION * step
    h_min = step

    while t < t_max - 1e-14:
        if _below(k1, settings.grad_tol):
            break
        ends = _grid(t, step, t_max, m) if m > 1 else []
        m = max(1, len(ends))
        h_one = min(h, t_max - t)  # the one-interval trial, halved on refusal
        while True:
            h_try = ends[m - 1] - t if m > 1 else h_one
            if h_try < stall_step:
                stalled += 1
                if stalled > budget:
                    raise StepUnderflow(
                        f"the flow stalled at t={t:.6g} of t_max={t_max:g}: {budget} step "
                        f"trials below {stall_step:.3g}, smallest step {h_min:.3g}"
                    )
            # the recorded grid times strictly inside the step
            inner = [u for i, u in enumerate(ends[: m - 1], intervals + 1) if i % every == 0]
            samples = ()
            try:
                dx, k4 = _rk4_step(ev.rhs, x, h_try, k1, buf)
                x_new = x + dx
                # first same as last: the rhs at the accepted x_new is k1 of
                # the next step
                k1_new = ev.rhs(x_new)
                if m > 1 or not hold:
                    # the order-3 solution with weights (1, 2, 2, 0, 1)/6 on
                    # (k1, ..., k5) differs from x_new by (h/6)(k4 - k5); it
                    # judges this step if lengthened, and the next one's length
                    err = h_try / 6.0 * np.abs(k4 - k1_new).max()
                    size = _ERR_TOL * np.abs(dx).max()
                # a NaN slope refuses the step too
                ok = (m == 1 or err <= size) and ev.slope(x_new, k1_new, dx) <= 0.0
                if ok and inner:
                    samples = _hermite(x, k1, x_new, k1_new, h_try,
                                       [(u - t) / h_try for u in inner])
                    ok = domain is None or all(map(domain, samples))
            except DomainViolation:
                ok = False
            if ok:
                break
            if m > 1:
                m //= 2
                hold = _HOLD
                continue
            h_one *= 0.5
            h_min = min(h_min, h_one)
            if h_one < _MIN_STEP:
                raise StepUnderflow(
                    f"step halving underflowed at t={t:.6g}: no step down to {_MIN_STEP:g} "
                    "certified descent"
                )
        # x_new is a fresh array that nothing writes to, so it is recorded as is
        x, k1 = x_new, k1_new
        t = ends[m - 1] if m > 1 else t + h_try
        intervals += m
        times += inner
        states += list(samples)
        if intervals % every == 0:
            times.append(t)
            states.append(x)
        # recover towards the requested step after a forced halving
        h = min(h_try * 2.0, step)
        if hold:
            hold -= 1
        elif h_try >= step and 16.0 * err <= size:
            m *= 2

    if times[-1] < t:
        times.append(t)
        states.append(x)
    return Trajectory(np.array(times), np.array(states), kind)


def newton_solve(kind: PotentialKind, x0, tol: float = 1e-10, max_iter: int = 200) -> np.ndarray:
    """Damped Newton descent on the potential down to gradient max-norm tol.

    The line search halves the damping until a trial descends: by the
    convexity certificate grad V(x_try) . (x_try - x) <= 0, whose gradient
    is the next iteration's, as in ``integrate``, and otherwise by the value
    test, with V(x) evaluated once per iterate. A Hessian that is singular
    to working precision raises ``SingularHessian``, naming the iteration
    and |x|_inf.
    """
    if not 0 < tol < np.inf:
        raise ValueError("tol must be finite and positive")
    x = _start(x0)
    if x.size == 0:
        return x
    ev = evaluator(kind, x.size)
    g = ev.gradient(x)
    v = None  # V(x), evaluated only for the fallback test
    for iteration in range(max_iter):
        if _below(g, tol):
            return x
        h = ev.hessian(x)
        try:
            step = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError as exc:
            raise SingularHessian(
                "the Hessian is singular to working precision at Newton iteration "
                f"{iteration} (|x|_inf = {np.abs(x).max():.3g}): {exc}"
            ) from exc
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
