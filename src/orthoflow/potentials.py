"""Potentials, gradients, Hessians and flow rhs of the five flow families.

A ``PotentialKind`` pairs a member of the ``params.Family`` registry with a
parameter record of that member's ``params_type``; the parity-reduced
systems run the Wilson formulas with the registry's extra parameters.

Flow right-hand sides, gradients, values and Hessians come from one
evaluator per (kind, n), built by ``evaluator``. It precomputes what does
not depend on the configuration: the linear term, the parameter checks and
the two factors whose product is the evaluator's table (see
``_MorseEvaluator`` and ``_JacobiEvaluator``), so that an evaluation fills
the table with one matrix product. Each method evaluates what it returns
and nothing more; the Morse value reuses the table and rhs of its own
evaluation. Every potential is convex, so the flow's descent test is the
slope grad V . dx read off the rhs it needs anyway (``_Evaluator.slope``):
the integrator never evaluates the potential, and Newton's line search does
so only when that slope is positive. The public functions build a fresh
evaluator per call; the integrator and Newton build one per run.

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

from .errors import BranchCrossing, DomainViolation, ParameterError
from .params import ContinuousHahnParams, Family, JacobiParams, WilsonParams


#: the registry's former name, kept for existing imports
FlowFamily = Family

_SQRT_MAX = float(np.sqrt(np.finfo(float).max))


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


def _check_branch(*params: complex):
    for a in params:
        if a.real == 0:
            raise BranchCrossing(f"parameter {a} sits on the arctan branch cut")


def _param_columns(params) -> list[tuple[float, float, float]]:
    """(1/alpha, -y/alpha, w) of the columns whose weighted sum of
    arctan((x - y) / alpha) is sum_a Re arctan(x / a): one column
    (1/a, 0, 1) per real a (y = 0), then two columns (1/alpha, +-beta/alpha,
    1/2) per a = alpha + i beta (y = -+beta), since for alpha > 0

        Re arctan(x / a) = [arctan((x + beta) / alpha) + arctan((x - beta) / alpha)] / 2.
    """
    cols = [(1.0 / a.real, 0.0, 1.0) for a in params if a.imag == 0]
    for a in params:
        if a.imag != 0:
            inv_alpha = 1.0 / a.real
            cols += [(inv_alpha, a.imag * inv_alpha, 0.5), (inv_alpha, -a.imag * inv_alpha, 0.5)]
    return cols


def _log1p_square(u: np.ndarray) -> np.ndarray:
    """log1p(u^2), also where u^2 overflows: there it is 2 log|u| +
    log1p(u^-2), and every other entry is log1p(square(u)) itself."""
    with np.errstate(over="ignore"):
        out = np.log1p(np.square(u))
    big = np.isinf(out)
    if big.any():
        ub = np.abs(u[big])
        out[big] = 2.0 * np.log(ub) + np.log1p(np.square(1.0 / ub))
    return out


class _Evaluator:
    """Flow rhs, gradient, value and Hessian of one kind at degree n.

    Each subclass defines ``rhs`` (dx/dt of the flow), ``gradient``,
    ``value`` and ``hessian``; ``__init__`` precomputes everything that does
    not depend on x. An evaluator may keep per-run buffers, so it serves one
    run at a time.

    Every potential is convex on its domain, and the Jacobi domain of
    increasing configurations in (-1, 1) is convex too. So for x, x_new in
    the domain, V(x_new) <= V(x) + grad V(x_new) . (x_new - x) (the first
    order condition of convexity), and a non-positive ``slope`` at x_new
    along the step certifies that the step did not raise the potential
    without evaluating it.
    """

    def slope(self, x: np.ndarray, rhs: np.ndarray, dx: np.ndarray) -> float:
        """grad V(x) . dx, from the flow rhs at x; here rhs = -grad V."""
        return -rhs.dot(dx)


class _MorseEvaluator(_Evaluator):
    """Continuous Hahn, Wilson and the parity-reduced systems:

        V(x) = sum_j [sum_a Re A_a(x_j) + c_j x_j] + sum_{j<k} F(x_j - x_k)
               + sum_{j<k} F(x_j + x_k)           (all but continuous Hahn),

    with A_a(x) = x arctan(x/a) - (a/2) log(1 + (x/a)^2) and
    F(u) = u arctan(u) - log(1 + u^2) / 2. A parity-reduced system is the
    Wilson flow whose parameters are (a, b) and the registry's extra
    ``wilson_cd``; an extra parameter 0 enters as its one-sided limit on
    y > 0, A_0(y) = (pi/2) y, which adds pi/2 to every c_j and nothing to
    the Hessian. V is convex: F''(u) = 1 / (1 + u^2) > 0,
    Re A_a''(x) = Re [a / (a^2 + x^2)] > 0 for Re a > 0, and the zero extra
    parameter adds only a linear term.

    Every arctan of the gradient is a column of one real n x K table
    arg[j, c] = (x_j - y_c) / alpha_c, in this order: the pair differences
    (y_c = x_k); for the Wilson systems the pair sums (y_c = -x_k) and the
    self pair 2 x_j = x_j / (1/2) with weight -1, which takes the k = j sum
    out again; the real parameters; the complex ones (``_param_columns``).
    The gradient is c + arctan(arg) @ w, and the flow rhs is -gradient.
    Since every pair is counted from both of its ends,

        V = x . gradient - sum_c omega_c sum_j log1p(arg[j, c]^2)
            - (1/2) Re sum_{complex a} a sum_j log1p((x_j / a)^2),

    with omega = 1/4 on the pair columns, -1/4 on the self pair and a/2 on a
    real parameter. The complex parameters keep their own log term: the
    antiderivative of their two shifted columns cancels catastrophically.
    Where arg^2 overflows (a width alpha near the underflow threshold),
    log1p(arg^2) is 2 log|arg| + log1p(arg^-2) (``_log1p_square``). Where
    arg itself overflows, which a width below 1/sqrt(max double) allows at
    moderate |x|, arctan(arg) = +-pi/2 and the Lorentzian 0 are exact, and
    log1p(arg^2) is 2 (log|x_j - y_c| - log alpha_c).

    The table is one matrix product, arg = [x | 1] @ [[1/alpha], [-y/alpha]],
    of an n x 2 and a 2 x K factor built once: an evaluation writes x into
    the left factor's first column and the pair shifts -+x into the right
    factor's second row, then runs one ``np.dot`` into the per-run table
    buffer. Each entry x_j (1/alpha_c) + (-y_c/alpha_c) is rounded once. On
    the pair columns (alpha = 1), the self pair and the real parameters
    (y = 0) that is exactly the number (x_j - y_c) / alpha_c, though a zero
    may come out as +0 where the difference gives -0; on the complex columns
    it differs from (x_j - y_c)(1/alpha_c) by the roundings of x_j/alpha_c
    and beta/alpha_c. With an inner dimension of 2, each entry is one
    thread's sum whatever the number of BLAS threads. A parameter whose
    1/Re a or Im a / Re a overflows is a ``ParameterError``, and so are
    parameters whose sum of |w|/alpha over the columns, a bound of the
    Hessian's diagonal, overflows.
    """

    def __init__(self, kind: PotentialKind, n: int):
        fam = kind.family
        params = tuple(getattr(kind.params, k) for k in fam.param_names)
        _check_branch(*params)
        # 1/Re a and Im a / Re a scale a's arctan columns
        for name, a in zip(fam.param_names, params):
            scale = 1.0 / a.real
            if not np.isfinite(scale):
                raise ParameterError(f"Re {name} = {a.real} is too small: 1/Re {name} overflows")
            if not np.isfinite(a.imag * scale):
                raise ParameterError(
                    f"Re {name} = {a.real} is too small for Im {name} = {a.imag}: "
                    f"Im {name} / Re {name} overflows"
                )
        extra = fam.wilson_cd
        params += tuple(complex(e) for e in extra if e != 0)
        ch = fam is Family.CONTINUOUS_HAHN
        # the linear term sum_j c_j x_j, plus pi/2 per zero extra parameter
        j = np.arange(1, n + 1)
        c = 0.5 * np.pi * (n + 1 - 2 * j) if ch else -np.pi * j
        self._neg_linear = -(c + 0.5 * np.pi * extra.count(0))
        self._sums = not ch
        # after the pairs: for the Wilson systems the self pair, a column at
        # y = 0 of width 1/2 and weight -1, then the parameters. The rows of
        # ``cols`` are 1/alpha, -y/alpha and w; the first two are the right
        # factor of the table product. Both factors and the table are per-run
        # buffers: ``_table`` writes x into the left factor and the pair
        # shifts -+x into the right one's second row
        head = [] if ch else [(2.0, 0.0, -1.0)]
        pairs = n if ch else 2 * n
        static = head + _param_columns(params)
        cols = np.ones((3, pairs + len(static)))
        cols[:, pairs:] = list(zip(*static))
        self._shift, self._w = cols[:2], cols[2]
        self._w_inv_alpha = self._w * cols[0]
        # the Hessian's diagonal adds these times Lorentzians <= 1
        with np.errstate(over="ignore"):
            if not np.isfinite(np.abs(self._w_inv_alpha).sum()):
                raise ParameterError(
                    "the real parts are too small: "
                    + " + ".join(f"1/Re {name}" for name in fam.param_names) + " overflows"
                )
        self._lhs = np.ones((n, 2))
        self._arg = np.empty((n, cols.shape[1]))
        # x_j / alpha overflows only past |x_j| = alpha * max; for
        # 1 / alpha <= sqrt(max) that is where squares of x overflow anyway
        self._wide = cols[0].max() > _SQRT_MAX
        # log1p weights of the leading columns: pairs, self pair, real parameters
        real = [0.5 * a.real for a in params if a.imag == 0]
        self._omega = np.full(pairs + len(head) + len(real), 0.25)
        self._omega[pairs:] = [-0.25] * len(head) + real
        self._complex = np.array([a for a in params if a.imag != 0])[:, None]

    def _table(self, x):
        n = x.size
        self._lhs[:, 0] = x
        np.negative(x, out=self._shift[1, :n])
        if self._sums:
            self._shift[1, n : 2 * n] = x
        if self._wide:
            # an entry that overflows is +-inf, whose arctan is exact. The
            # other tables skip np.errstate: it adds ~2 us to an rhs of 5-11 us
            # at n = 4-30 (2-vCPU Xeon)
            with np.errstate(over="ignore"):
                return np.dot(self._lhs, self._shift, out=self._arg)
        return np.dot(self._lhs, self._shift, out=self._arg)

    def rhs(self, x: np.ndarray) -> np.ndarray:
        """dx/dt of the flow, -gradient."""
        return self._neg_linear - np.arctan(self._table(x)).dot(self._w)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return -self.rhs(x)

    def value(self, x: np.ndarray) -> float:
        rhs = self.rhs(x)
        arg = self._arg[:, : self._omega.size]  # the table that rhs filled at x
        logs = _log1p_square(arg)
        if self._wide:
            # where arg = (x_j - y_c) / alpha_c itself overflowed, log1p(arg^2)
            # is 2 (log|x_j - y_c| - log alpha_c), with y_c = -shift_c alpha_c
            j, c = np.nonzero(np.isinf(arg))
            inv_alpha = self._shift[0, c]
            logs[j, c] = 2.0 * (np.log(np.abs(x[j] + self._shift[1, c] / inv_alpha))
                                + np.log(inv_alpha))
        v = -x.dot(rhs) - logs.sum(axis=0).dot(self._omega)
        if self._complex.size:
            z = x / self._complex
            v -= 0.5 * (self._complex * np.log1p(z * z)).real.sum()
        return float(v)

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
        h.flat[:: n + 1] += lorentz @ self._w_inv_alpha
        return h


def in_domain(x: np.ndarray) -> bool:
    """Whether x is strictly increasing inside (-1, 1); NaN never is."""
    return x.size == 0 or bool((x[1:] > x[:-1]).all() and x[0] > -1 and x[-1] < 1)


class _JacobiEvaluator(_Evaluator):
    """The electrostatic potential on the Jacobi domain,

        V(x) = -sum_{j<k} log(x_k - x_j)
               - sum_j [(alpha+1)/2 log(1 - x_j) + (beta+1)/2 log(1 + x_j)],

    whose minimum is the Jacobi root configuration. Unlike the other flows
    this one is not a plain gradient flow: its rhs carries the mobility
    factor 2 A(x) = 2 (x^2 - 1) (``electrostatic_rhs``). The domain, strictly
    increasing configurations inside (-1, 1), is ``in_domain``, which the
    command line checks too. Every evaluation checks it first; its
    ``DomainViolation`` is what makes the integrator halve a step that leaves
    (-1, 1). V is convex on the domain: -log is convex, and alpha, beta > -1
    make both boundary weights positive.

    As in ``_MorseEvaluator``, every term is a column of one n x (n + 2)
    table D[j, c] = x_j - y_c over y = (x_1, ..., x_n, 1, -1), the product
    [x | 1] @ [[1], [-y]] of an n x 2 and a 2 x (n + 2) per-run factor, so
    each entry is the difference rounded once. With column weights
    w = (1, ..., 1, (alpha+1)/2, (beta+1)/2),

        -grad V = (1/D) @ w,    H = -(1/D^2)[:, :n] + diag((1/D^2) @ w),
        V = -sum_c omega_c sum_j log|D[j, c]|,

    where the diagonal of D is +inf in the first two (its reciprocals are 0)
    and 1 in the value (its logs are 0), and omega = (1/2, ..., 1/2, w_a,
    w_b) counts each pair from both ends. The mobility x^2 - 1 is
    D[:, n] D[:, n + 1] = (x - 1)(x + 1), which does not cancel near +-1.
    """

    def __init__(self, p: JacobiParams, n: int):
        wa, wb = 0.5 * (p.alpha + 1), 0.5 * (p.beta + 1)
        self._lhs = np.ones((n, 2))
        # the right factor's second row is -y: -x (written per evaluation), -1, +1
        self._shift = np.ones((2, n + 2))
        self._shift[1, n:] = (-1.0, 1.0)
        self._d = np.empty((n, n + 2))
        # views of the table buffer: its diagonal and the columns x - 1, x + 1
        self._diagonal = self._d.reshape(-1)[:: n + 3]
        self._x_minus, self._x_plus = self._d[:, n], self._d[:, n + 1]
        self._w = np.ones(n + 2)
        self._w[n:] = (wa, wb)
        # the rhs's factor -2, folded into its weights: scaling by a power of
        # 2 is exact, so the rhs is bitwise -2 (x - 1)(x + 1) ((1/D) @ w)
        self._rhs_w = -2.0 * self._w
        self._omega = np.full(n + 2, 0.5)
        self._omega[n:] = (wa, wb)

    def _table(self, x: np.ndarray, diagonal: float) -> np.ndarray:
        if not in_domain(x):
            raise DomainViolation(
                "Jacobi configurations must be strictly increasing inside (-1, 1)"
            )
        self._lhs[:, 0] = x
        np.negative(x, out=self._shift[1, : x.size])
        np.dot(self._lhs, self._shift, out=self._d)
        self._diagonal[:] = diagonal
        return self._d

    def rhs(self, x: np.ndarray) -> np.ndarray:
        """dx/dt of the flow, 2 (x^2 - 1) grad V."""
        # the table first: the columns x - 1 and x + 1 are views of it
        terms = (1.0 / self._table(x, np.inf)).dot(self._rhs_w)
        return self._x_minus * self._x_plus * terms

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return -(1.0 / self._table(x, np.inf)).dot(self._w)

    def value(self, x: np.ndarray) -> float:
        logs = np.log(np.abs(self._table(x, 1.0)))
        return float(-logs.sum(axis=0).dot(self._omega))

    def slope(self, x: np.ndarray, rhs: np.ndarray, dx: np.ndarray) -> float:
        """grad V(x) . dx, from rhs = 2 (x^2 - 1) grad V."""
        return 0.5 * (rhs / ((x - 1.0) * (x + 1.0))).dot(dx)

    def hessian(self, x: np.ndarray) -> np.ndarray:
        c = 1.0 / np.square(self._table(x, np.inf))
        n = x.size
        h = -c[:, :n]
        h.flat[:: n + 1] += c.dot(self._w)
        return h


def electrostatic_rhs(p: JacobiParams, x) -> np.ndarray:
    """Right-hand side -B(x_j) - A(x_j) sum_{k != j} 2/(x_j - x_k), with
    A(x) = x^2 - 1 and B(x) = (alpha+1)(x+1) + (beta+1)(x-1): 2 A(x_j) times
    the electrostatic-potential gradient component (``_JacobiEvaluator.rhs``)."""
    return _JacobiEvaluator(p, np.size(x)).rhs(np.asarray(x, dtype=float))


def evaluator(kind: PotentialKind, n: int) -> _Evaluator:
    """Evaluator of ``kind`` at degree n; raises ``BranchCrossing`` for a
    parameter on the arctan branch cut and ``ParameterError`` for one whose
    real part is too small to invert or to divide its imaginary part by, or
    for parameters whose inverted real parts sum past the double range."""
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
