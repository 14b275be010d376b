"""Flow integration to equilibrium and Newton polishing.

The integrator is the classical explicit 4th-order Runge-Kutta method, and
its trajectory is the grid of spacing ``FlowSettings.step``: only grid times
are recorded, plus the final state. A step spans m grid intervals. At m = 1
a step that the descent guard below refuses crosses its interval in
sub-steps, halved on each refusal and never recorded; the next interval
starts at the full step again. Where the flow is smooth, m grows to 2, 4,
8, ...: RK4 with the rhs at x_new, the next step's first stage k1 (first
same as last), carries a free embedded third-order solution, (1, 2, 2, 0,
1)/6 on (k1, ..., k5), whose distance from x_new is (h/6)(k4 - k5)
(Hairer, Norsett & Wanner, *Solving ODEs I*, II.4). A lengthened step is
kept while that estimate is at most ``_ERR_TOL`` of its own increment, not
of an absolute tolerance: the decay rates are fitted down to the rounding
floor, and an absolute tolerance lets the step ride the stability edge,
where the fast modes ring at tolerance level. A flow stalls
(``StepUnderflow``) when a refusal would halve a sub-step below
``_STALL_FRACTION`` of its interval. A stiff flow whose stable sub-step
stays above that runs to its end, however many sub-steps that takes: at
step 0.05 and (alpha, beta) = (1/2, 1/2) the Jacobi sub-steps reach 2^-5
of the interval at n = 40, 2^-7 at 60, 2^-9 at 100 and 2^-10 at 200, and
the continuous Hahn flow at a = 1e-6 + 1i, n = 3, takes sub-steps of 2^-14.
Such a flow is sampled only on the grid, so it needs a finer ``step`` to be
sampled finely.

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
(kind, n) (see ``potentials``) for the run only. An evaluation costs a few
numpy calls on a small table, so the stop test ``_below`` forms no temporary
|v|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, MaxIterations, SingularHessian, StepUnderflow
from .params import Family
from .potentials import PotentialKind, evaluator, in_domain

#: Newton's line search gives up below this damping
_MIN_STEP = 1e-12
#: Newton iterations before ``newton_solve`` gives up
_MAX_ITER = 200
#: descent-check slack for potential differences at the roundoff floor
_DESCENT_SLACK = 1e-12
#: a step of several grid intervals is refused when its error estimate
#: exceeds this fraction of its increment (max-norms)
_ERR_TOL = 1e-4
#: accepted steps after a refused lengthening before the step may grow again
_HOLD = 16
#: a sub-step below this fraction of its grid interval would take over a
#: million trials to cross it: ``integrate`` gives up instead
_STALL_FRACTION = 2.0**-20


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
    """Recorded states of one flow run; times[0] == 0, strictly increasing.
    ``integrate`` records grid times and the final state only: at most
    ceil(t_max / step) / record_every + 2 rows."""

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


def _rk4_step(rhs, x, h, k1):
    """The RK4 increment (h/6)(k1 + 2 k2 + 2 k3 + k4) and k4, each a fresh
    array."""
    k2 = rhs(x + 0.5 * h * k1)
    k3 = rhs(x + 0.5 * h * k2)
    k4 = rhs(x + h * k3)
    return (2.0 * (k2 + k3) + k1 + k4) * (h / 6.0), k4


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
    The potential is never evaluated. When a step of one grid interval has
    a positive or NaN slope, or leaves the domain (``DomainViolation``), the
    interval is crossed in sub-steps of half its length, halved again on
    each further refusal: dyadic fractions of it, the last ending on its end.

    A step spans m grid intervals of ``settings.step``. m doubles after an
    accepted step whose error estimate e = (h/6)(k4 - k5) is below
    ``_ERR_TOL / 16`` of its increment (max-norms); k5 = rhs(x_new) is the
    next step's k1. A trial of m > 1 is retried at m // 2 when e exceeds
    ``_ERR_TOL`` of the increment, when it fails the descent guard or when a
    stage or a recorded sample leaves the domain; m then stays put for
    ``_HOLD`` steps. The grid times inside a lengthened step are recorded
    from the cubic Hermite interpolant of its two ends. Sub-steps are not
    recorded and ``record_every`` counts grid intervals, so the trajectory
    has at most ceil(t_max / step) / record_every + 2 rows, all at grid
    times but the last of a flow that meets grad_tol inside an interval.
    A refusal that would halve a sub-step below ``_STALL_FRACTION`` of its
    interval raises ``StepUnderflow``.
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
    m, hold = 1, 0  # grid intervals per step; steps before m may double
    left = 0.0  # the rest of the interval being crossed, in units of h_one
    times = [0.0]
    states = [x]
    k1 = ev.rhs(x)
    intervals = 0

    while t < t_max - 1e-14 and not _below(k1, settings.grad_tol):
        if not left:  # t is a grid time
            h_one = min(step, t_max - t)  # the one-interval step
            # the step's grid ends; t + h_one where no full interval fits
            ends = _grid(t, step, t_max, m) or [t + h_one]
            m = len(ends)
            left = frac = 1.0  # frac: the sub-step in units of h_one
        while True:
            h_try = ends[m - 1] - t if m > 1 else frac * h_one
            # the recorded grid times strictly inside the step
            inner = [u for i, u in enumerate(ends[: m - 1], intervals + 1) if i % every == 0]
            samples = ()
            try:
                dx, k4 = _rk4_step(ev.rhs, x, h_try, k1)
                x_new = x + dx
                # first same as last: the rhs at x_new is the next step's k1
                k1_new = ev.rhs(x_new)
                # the order-3 solution's distance from x_new; it judges this
                # step if lengthened, and the next one's length
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
            if frac * 0.5 < _STALL_FRACTION:
                raise StepUnderflow(
                    f"the flow stalled at t={t:.6g} of t_max={t_max:g}: no sub-step down to "
                    f"{frac:.3g} of the grid interval certified descent"
                )
            frac *= 0.5
        # x_new is a fresh array that nothing writes to, so it is recorded as is
        x, k1 = x_new, k1_new
        left -= frac
        if left:  # a sub-step inside the interval is not recorded
            t += h_try
            continue
        t = ends[m - 1]
        intervals += m
        times += inner
        states += list(samples)
        if intervals % every == 0:
            times.append(t)
            states.append(x)
        if hold:
            hold -= 1
        elif h_try >= step and 16.0 * err <= size:
            m *= 2

    if times[-1] < t:
        times.append(t)
        states.append(x)
    return Trajectory(np.array(times), np.array(states), kind)


def newton_solve(kind: PotentialKind, x0, tol: float = 1e-10) -> np.ndarray:
    """Damped Newton descent on the potential down to gradient max-norm tol.

    The line search halves the damping until a trial descends: by the
    convexity certificate grad V(x_try) . (x_try - x) <= 0, whose gradient
    is the next iteration's, as in ``integrate``, and otherwise by the value
    test, with V(x) evaluated once per iterate. A Hessian singular to
    working precision or a failed line search raises ``SingularHessian``,
    naming the iteration and |x|_inf.
    """
    if not 0 < tol < np.inf:
        raise ValueError("tol must be finite and positive")
    x = _start(x0)
    if x.size == 0:
        return x
    ev = evaluator(kind, x.size)
    g = ev.gradient(x)
    v = None  # V(x), evaluated only for the fallback test
    for iteration in range(_MAX_ITER):
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
                if np.isfinite(v_new) and v_new <= v + _DESCENT_SLACK * (1.0 + abs(v)):
                    break
            damping *= 0.5
        else:
            raise SingularHessian("damped Newton step failed to decrease the potential at Newton "
                                  f"iteration {iteration} (|x|_inf = {np.abs(x).max():.3g})")
        x, v, g = x_try, v_new, g_new
    raise MaxIterations(f"no convergence to gradient tolerance {tol} in {_MAX_ITER} steps")


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
    return traj, newton_solve(kind, traj.states[-1], tol=newton_tol)
