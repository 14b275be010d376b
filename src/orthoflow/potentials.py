"""Morse potentials, gradients and Hessians for the five flow families.

A ``PotentialKind`` pairs a member of the ``params.Family`` registry with a
parameter record of that member's ``params_type``; the parity-reduced
systems run the Wilson formulas with the registry's extra parameters.

Values, gradients, Hessians and flow right-hand sides come from one
evaluator per (kind, n), built by ``evaluator``. It precomputes what does
not depend on the configuration: the parameter array, the linear term and
the branch-cut check. The value reuses the arctans that the gradient
computes, so the flow's descent test gets the potential and the next rhs
from one evaluation. The public functions build a fresh evaluator per
call; the integrator and Newton build one per run.

Complex-parameter terms are evaluated through the principal branch of the
complex arctan/log and their real part is taken; with Re(a) > 0 the
arguments never touch the branch cuts, so the result is exactly the real
pair sum (no arctan addition formulas are used). When every parameter is
real the same formulas run in real arithmetic.
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


def pair_arctan(x, a: complex, b: complex):
    """Real value of arctan(x/a) + arctan(x/b) for a real or conjugate pair."""
    _check_branch(complex(a), complex(b))
    x = np.asarray(x, dtype=float)
    return (np.arctan(x / complex(a)) + np.arctan(x / complex(b))).real


class _Evaluator:
    """Potential value, gradient, Hessian and flow rhs of one kind at degree n.

    ``__init__`` precomputes everything that does not depend on x;
    ``_prepare(x)`` does the work that the value, the gradient and the rhs
    share, so asking for the value with the gradient or the rhs costs one
    evaluation, not two.
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


class _MorseEvaluator(_Evaluator):
    """Continuous Hahn, Wilson and the parity-reduced systems:

        V(x) = sum_j [sum_a Re A_a(x_j) + c_j x_j] + sum_{j<k} F(x_j - x_k)
               + sum_{j<k} F(x_j + x_k)           (all but continuous Hahn),

    with A_a(x) = x arctan(x/a) - (a/2) log(1 + (x/a)^2) and
    F = antideriv_arctan. A parity-reduced system is the Wilson flow whose
    parameters are (a, b) and the registry's extra ``wilson_cd``; an extra
    parameter 0 enters as its one-sided limit on y > 0, A_0(y) = (pi/2) y,
    which adds pi/2 to every c_j and nothing to the Hessian. The flow rhs
    is -gradient.
    """

    def __init__(self, kind: PotentialKind, n: int):
        fam = kind.family
        params = tuple(getattr(kind.params, k) for k in fam.param_names)
        _check_branch(*params)
        extra = fam.wilson_cd
        a = np.array(params + tuple(e for e in extra if e != 0), dtype=complex)
        # all-real parameters need no complex arithmetic
        self._a = (a if a.imag.any() else a.real)[:, None]
        ch = fam is Family.CONTINUOUS_HAHN
        # the linear term sum_j c_j x_j, plus pi/2 per zero extra parameter
        j = np.arange(1, n + 1)
        c = 0.5 * np.pi * (n + 1 - 2 * j) if ch else -np.pi * j
        self._linear = c + 0.5 * np.pi * extra.count(0)
        # pairs[j, 0, k] = x_j - x_k and, except for continuous Hahn,
        # pairs[j, 1, k] = x_j + x_k, in one array so that one arctan and
        # one sum serve both pair terms
        signs = [-1.0] if ch else [-1.0, 1.0]
        self._signs = np.array(signs)[:, None]
        # the sums exclude the self pairs k = j: zero the F(2 x_j) ones
        # (x_j - x_j is 0 already)
        self._self_pairs = None if ch else np.arange(n) * (2 * n + 1) + n

    def _pairs(self, x):
        pairs = x[:, None, None] + self._signs * x
        if self._self_pairs is not None:
            pairs.reshape(-1)[self._self_pairs] = 0.0
        return pairs

    def _prepare(self, x):
        z = x / self._a
        grad_params = np.arctan(z).real.sum(axis=0) + self._linear
        pairs = self._pairs(x)
        return z, grad_params, pairs, np.arctan(pairs)

    def _value(self, x, pre):
        z, grad_params, pairs, arctan_pairs = pre
        v = x @ grad_params - 0.5 * (self._a * np.log1p(z * z)).real.sum()
        # every pair (j, k) appears twice, so the pair terms are half the
        # full sum of F
        v += 0.5 * np.vdot(pairs, arctan_pairs) - 0.25 * np.log1p(pairs * pairs).sum()
        return float(v)

    def _gradient(self, x, pre):
        return pre[1] + pre[3].sum(axis=(1, 2))

    def _rhs(self, x, pre):
        return -self._gradient(x, pre)

    def hessian(self, x: np.ndarray) -> np.ndarray:
        # d/dx arctan(x/a) = Re a / (a^2 + x^2) and F'' = 1 / (1 + u^2); the
        # self pair, 0 in every sign block, has weight 1 and is taken out
        lorentz = 1.0 / (1.0 + self._pairs(x) ** 2)
        h = (self._signs * lorentz).sum(axis=1)
        with np.errstate(over="ignore"):  # a^2 = inf only where the term is ~1/|a| = 0
            params = (self._a / (self._a * self._a + x * x)).real.sum(axis=0)
        h[np.diag_indices(x.size)] = params + (lorentz.sum(axis=(1, 2)) - len(self._signs))
        return h


class _JacobiEvaluator(_Evaluator):
    """The electrostatic potential on the Jacobi domain,

        V(x) = -sum_{j<k} log(x_k - x_j)
               - sum_j [(alpha+1)/2 log(1 - x_j) + (beta+1)/2 log(1 + x_j)],

    whose flow is the mobility-weighted ``electrostatic_rhs``. Every
    evaluation checks the domain; its ``DomainViolation`` is what makes the
    integrator halve a step that leaves (-1, 1).
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
