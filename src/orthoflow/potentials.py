"""Morse potentials, gradients and Hessians for the five flow families.

A ``PotentialKind`` pairs a member of the ``params.Family`` registry with a
parameter record of that member's ``params_type``; the parity-reduced
systems run the Wilson formulas with the registry's extra parameters.

Values, gradients, Hessians and flow right-hand sides come from one
evaluator per (kind, n), built by ``evaluator``. It precomputes what does
not depend on the configuration: the linear term, the branch-cut check and
the columns of the Morse table (see ``_MorseEvaluator``). The value reuses
the rhs that the same evaluation computes. Every potential is convex, so the
flow's descent test reads the slope grad V . dx off the rhs it needs anyway
(``_Evaluator.slope``) and evaluates the potential only when that slope is
positive. The public functions build a fresh evaluator per call; the
integrator and Newton build one per run.

Complex parameters enter the gradient and the Hessian through the real
identity, for a = alpha + i beta with alpha > 0,

    Re arctan(x / a) = [arctan((x + beta) / alpha) + arctan((x - beta) / alpha)] / 2,

so the Morse rhs runs in real arithmetic whatever the parameters. Only the
potential's own term of a complex parameter, Re a log1p((x / a)^2), is
evaluated in complex arithmetic: its antiderivative over the two shifted
columns cancels catastrophically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BranchCrossing
from .jacobi_baseline import differences, electrostatic_drift
from .params import ContinuousHahnParams, Family, JacobiParams, WilsonParams


#: the registry's former name, kept for existing imports
FlowFamily = Family


@dataclass(frozen=True)
class PotentialKind:
    """A potential family together with its parameter record."""

    family: Family
    params: ContinuousHahnParams | WilsonParams | JacobiParams

    def __post_init__(self):
        expected = self.family.params_type
        if not isinstance(self.params, expected):
            raise TypeError(
                f"{self.family.value} expects {expected.__name__}, "
                f"got {type(self.params).__name__}"
            )


def antideriv_arctan(x):
    """Antiderivative of arctan vanishing at 0: x arctan(x) - log(1+x^2)/2."""
    x = np.asarray(x, dtype=float)
    return x * np.arctan(x) - 0.5 * np.log1p(x * x)


def _check_branch(*params: complex):
    for a in params:
        if a.real == 0:
            raise BranchCrossing(f"parameter {a} sits on the arctan branch cut")


def _param_columns(params) -> list[tuple[float, float, float]]:
    """(y, 1/alpha, w) of the columns whose weighted sum of
    arctan((x - y) / alpha) is sum_a Re arctan(x / a): one column (0, 1/a, 1)
    per real a, then two columns (-+beta, 1/alpha, 1/2) per a = alpha + i beta,
    since for alpha > 0

        Re arctan(x / a) = [arctan((x + beta) / alpha) + arctan((x - beta) / alpha)] / 2.
    """
    cols = [(0.0, 1.0 / a.real, 1.0) for a in params if a.imag == 0]
    for a in params:
        if a.imag != 0:
            cols += [(-a.imag, 1.0 / a.real, 0.5), (a.imag, 1.0 / a.real, 0.5)]
    return cols


def pair_arctan(x, a: complex, b: complex):
    """Real value of arctan(x/a) + arctan(x/b) for a real or conjugate pair."""
    a, b = complex(a), complex(b)
    _check_branch(a, b)
    y, inv_alpha, w = np.array(_param_columns((a, b))).T
    x = np.asarray(x, dtype=float)
    return np.arctan((x[..., None] - y) * inv_alpha) @ w


class _Evaluator:
    """Potential value, gradient, Hessian and flow rhs of one kind at degree n.

    ``__init__`` precomputes everything that does not depend on x;
    ``_prepare(x)`` does the work that the value, the gradient and the rhs
    share, so asking for the value with the gradient or the rhs costs one
    evaluation, not two. An evaluator may keep per-run buffers, so it serves
    one run at a time.

    Every potential is convex on its domain, and the Jacobi domain of
    increasing configurations in (-1, 1) is convex too. So for x, x_new in
    the domain, V(x_new) <= V(x) + grad V(x_new) . (x_new - x) (the first
    order condition of convexity), and a non-positive ``slope`` at x_new
    along the step certifies that the step did not raise the potential
    without evaluating it.
    """

    def value(self, x: np.ndarray) -> float:
        return self._value(x, self._prepare(x))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self._gradient(x, self._prepare(x))

    def value_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        pre = self._prepare(x)
        return self._value(x, pre), self._gradient(x, pre)

    def rhs(self, x: np.ndarray) -> np.ndarray:
        """dx/dt of the flow."""
        return self._rhs(x, self._prepare(x))

    def value_rhs(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        pre = self._prepare(x)
        return self._value(x, pre), self._rhs(x, pre)

    def slope(self, x: np.ndarray, rhs: np.ndarray, dx: np.ndarray) -> float:
        """grad V(x) . dx, from the flow rhs at x; here rhs = -grad V."""
        return -rhs.dot(dx)


class _MorseEvaluator(_Evaluator):
    """Continuous Hahn, Wilson and the parity-reduced systems:

        V(x) = sum_j [sum_a Re A_a(x_j) + c_j x_j] + sum_{j<k} F(x_j - x_k)
               + sum_{j<k} F(x_j + x_k)           (all but continuous Hahn),

    with A_a(x) = x arctan(x/a) - (a/2) log(1 + (x/a)^2) and
    F = antideriv_arctan. A parity-reduced system is the Wilson flow whose
    parameters are (a, b) and the registry's extra ``wilson_cd``; an extra
    parameter 0 enters as its one-sided limit on y > 0, A_0(y) = (pi/2) y,
    which adds pi/2 to every c_j and nothing to the Hessian. V is convex:
    F''(u) = 1 / (1 + u^2) > 0, Re A_a''(x) = Re [a / (a^2 + x^2)] > 0 for
    Re a > 0, and the zero extra parameter adds only a linear term.

    Every arctan of the gradient is a column of one real n x K table
    arg[j, c] = (x_j - y_c) / alpha_c, in this order: the pair differences
    (y_c = x_k); for the Wilson systems the pair sums (y_c = -x_k) and the
    self pair 2 x_j = x_j / (1/2) with weight -1, which takes the k = j sum
    out again; the real parameters; the complex ones (``_param_columns``).
    The gradient is c + arctan(arg) @ w, and the flow rhs is -gradient.
    Since F(u) = u arctan(u) - log1p(u^2) / 2 and every pair is counted from
    both of its ends,

        V = x . gradient - sum_c omega_c sum_j log1p(arg[j, c]^2)
            - (1/2) Re sum_{complex a} a sum_j log1p((x_j / a)^2),

    with omega = 1/4 on the pair columns, -1/4 on the self pair and a/2 on a
    real parameter. The complex parameters keep their own log term: the
    antiderivative of their two shifted columns cancels catastrophically.
    """

    def __init__(self, kind: PotentialKind, n: int):
        fam = kind.family
        params = tuple(getattr(kind.params, k) for k in fam.param_names)
        _check_branch(*params)
        extra = fam.wilson_cd
        params += tuple(complex(e) for e in extra if e != 0)
        ch = fam is Family.CONTINUOUS_HAHN
        # the linear term sum_j c_j x_j, plus pi/2 per zero extra parameter
        j = np.arange(1, n + 1)
        c = 0.5 * np.pi * (n + 1 - 2 * j) if ch else -np.pi * j
        self._neg_linear = -(c + 0.5 * np.pi * extra.count(0))
        self._sums = not ch
        # after the pairs: for the Wilson systems the self pair, a column at
        # y = 0 of width 1/2 and weight -1, then the parameters; the rows of
        # ``cols`` are y, 1/alpha and w. The y row and the table are per-run
        # buffers: ``_table`` writes the pair shifts +-x and the table in place
        head = [] if ch else [(0.0, 2.0, -1.0)]
        pairs = n if ch else 2 * n
        static = head + _param_columns(params)
        cols = np.ones((3, pairs + len(static)))
        cols[:, pairs:] = list(zip(*static))
        self._y, self._inv_alpha, self._w = cols
        self._arg = np.empty((n, cols.shape[1]))
        # log1p weights of the leading columns: pairs, self pair, real parameters
        real = [0.5 * a.real for a in params if a.imag == 0]
        self._omega = np.full(pairs + len(head) + len(real), 0.25)
        self._omega[pairs:] = [-0.25] * len(head) + real
        self._complex = np.array([a for a in params if a.imag != 0])[:, None]

    def _table(self, x):
        n = x.size
        self._y[:n] = x
        if self._sums:
            np.negative(x, out=self._y[n : 2 * n])
        arg = np.subtract.outer(x, self._y, out=self._arg)
        arg *= self._inv_alpha
        return arg

    def _prepare(self, x):
        arg = self._table(x)
        return arg, self._neg_linear - np.arctan(arg).dot(self._w)

    def _value(self, x, pre):
        arg, rhs = pre
        v = -x.dot(rhs) - np.log1p(np.square(arg[:, : self._omega.size])).sum(axis=0).dot(self._omega)
        if self._complex.size:
            z = x / self._complex
            v -= 0.5 * (self._complex * np.log1p(z * z)).real.sum()
        return float(v)

    def _gradient(self, x, pre):
        return -pre[1]

    def _rhs(self, x, pre):
        return pre[1]

    def hessian(self, x: np.ndarray) -> np.ndarray:
        # d/dx_j arctan((x_j - y_c) / alpha_c) = lorentz[j, c] / alpha_c, and
        # y_c = +-x_k adds -+lorentz[j, k] in column k
        n = x.size
        # arg^2 overflows only for a width alpha so small that the term,
        # alpha / (x_j - y_c)^2, is 0
        with np.errstate(over="ignore"):
            lorentz = 1.0 / (1.0 + np.square(self._table(x)))
        h = -lorentz[:, :n]
        if self._sums:
            h += lorentz[:, n : 2 * n]
        h.flat[:: n + 1] += lorentz @ (self._w * self._inv_alpha)
        return h


class _JacobiEvaluator(_Evaluator):
    """The electrostatic potential on the Jacobi domain,

        V(x) = -sum_{j<k} log(x_k - x_j)
               - sum_j [(alpha+1)/2 log(1 - x_j) + (beta+1)/2 log(1 + x_j)],

    whose flow is the mobility-weighted ``electrostatic_rhs``. Every
    evaluation checks the domain; its ``DomainViolation`` is what makes the
    integrator halve a step that leaves (-1, 1). V is convex on the domain:
    -log is convex, and alpha, beta > -1 make both boundary weights positive.
    """

    def __init__(self, p: JacobiParams, n: int):
        self._p = p
        self._wa = 0.5 * (p.alpha + 1)
        self._wb = 0.5 * (p.beta + 1)
        j = np.arange(n)
        self._upper = np.flatnonzero(j[:, None] < j)  # pairs j < k, row-major

    @staticmethod
    def _prepare(x):
        return differences(x)

    def _value(self, x, d):
        # x increasing: x_j - x_k < 0 for j < k
        v = -np.log(-d.take(self._upper)).sum()
        v -= (self._wa * np.log(1.0 - x) + self._wb * np.log(1.0 + x)).sum()
        return float(v)

    def _gradient(self, x, d):
        return -(1.0 / d).sum(axis=1) - (self._wa / (x - 1.0) + self._wb / (x + 1.0))

    def _rhs(self, x, d):
        return electrostatic_drift(self._p, x, d)

    def slope(self, x: np.ndarray, rhs: np.ndarray, dx: np.ndarray) -> float:
        """grad V(x) . dx, from rhs = 2 (x^2 - 1) grad V."""
        return 0.5 * (rhs / (x * x - 1.0)).dot(dx)

    def hessian(self, x: np.ndarray) -> np.ndarray:
        cd = 1.0 / differences(x) ** 2
        h = -cd
        h[np.diag_indices(x.size)] = cd.sum(axis=1) + (
            self._wa / (x - 1.0) ** 2 + self._wb / (x + 1.0) ** 2
        )
        return h


def evaluator(kind: PotentialKind, n: int) -> _Evaluator:
    """Evaluator of ``kind`` at degree n; raises ``BranchCrossing`` for a
    parameter on the arctan branch cut."""
    if kind.family is Family.JACOBI:
        return _JacobiEvaluator(kind.params, n)
    return _MorseEvaluator(kind, n)


def potential(kind: PotentialKind, x) -> float:
    """Value of the Morse potential at a configuration."""
    x = np.asarray(x, dtype=float)
    return evaluator(kind, x.size).value(x)


def gradient(kind: PotentialKind, x) -> np.ndarray:
    """Exact analytic gradient of the potential."""
    x = np.asarray(x, dtype=float)
    return evaluator(kind, x.size).gradient(x)


def hessian(kind: PotentialKind, x) -> np.ndarray:
    """Symmetric Hessian matrix of the potential."""
    x = np.asarray(x, dtype=float)
    return evaluator(kind, x.size).hessian(x)
