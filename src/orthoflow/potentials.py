"""Morse potentials, gradients and Hessians for the five flow families.

A ``PotentialKind`` pairs a member of the ``params.Family`` registry with a
parameter record of that member's ``params_type``.

Values, gradients and flow right-hand sides come from one evaluator per
(kind, n), built by ``evaluator``. It precomputes what does not depend on
the configuration: the parameter array, the linear term and the branch-cut
check. The value reuses the arctans that the gradient computes, so the
flow's descent test gets the potential and the next rhs from one
evaluation. ``potential``, ``gradient`` and ``flow.flow_rhs`` build a
fresh evaluator per call; the integrator and Newton build one per run.

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


def _param_lorentz_sum(x, params):
    # Re[ a / (a^2 + x^2) ], summed over parameters (x-derivative of arctan(x/a))
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for a in params:
        out += (a / (a * a + x * x)).real
    return out


def _kind_params(kind: PotentialKind) -> tuple:
    return tuple(getattr(kind.params, k) for k in kind.family.param_names)


class _Evaluator:
    """Potential value, gradient and flow rhs of one kind at one degree n.

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


#: the linear term sum_j c_j x_j of each Morse potential, c as a function of (j, n)
_LINEAR = {
    Family.CONTINUOUS_HAHN: lambda j, n: 0.5 * np.pi * (n + 1 - 2 * j),
    Family.WILSON: lambda j, n: -np.pi * j,
    Family.REDUCED_EVEN: lambda j, n: -np.pi * (j - 0.5),
    Family.REDUCED_ODD: lambda j, n: -np.pi * j,
}


class _MorseEvaluator(_Evaluator):
    """Continuous Hahn, Wilson and the parity-reduced systems:

        V(x) = sum_j [sum_a Re A_a(x_j) + c_j x_j] + sum_{j<k} F(x_j - x_k)
               + sum_{j<k} F(x_j + x_k)           (all but continuous Hahn)
               + sum_j F(2 x_j) / 2               (parity-reduced),

    with A_a(x) = x arctan(x/a) - (a/2) log(1 + (x/a)^2) and
    F = antideriv_arctan. The odd system's extra sum_j F(x_j) is the
    parameter term with a = 1. The flow rhs is -gradient.
    """

    def __init__(self, kind: PotentialKind, n: int):
        fam = kind.family
        params = _kind_params(kind)
        if fam is Family.REDUCED_ODD:
            params += (1.0,)
        _check_branch(*params)
        a = np.array(params, dtype=complex)
        # all-real parameters need no complex arithmetic
        self._a = (a if a.imag.any() else a.real)[:, None]
        self._linear = _LINEAR[fam](np.arange(1, n + 1), n)
        # pairs[j, 0, k] = x_j - x_k and, except for continuous Hahn,
        # pairs[j, 1, k] = x_j + x_k, in one array so that one arctan and
        # one sum serve both pair terms
        signs = [-1.0] if fam is Family.CONTINUOUS_HAHN else [-1.0, 1.0]
        self._signs = np.array(signs)[:, None]
        # the full Wilson flow excludes the k = j terms F(2 x_j): zero them
        self._self_pairs = (
            np.arange(n) * (2 * n + 1) + n if fam is Family.WILSON else None
        )

    def _prepare(self, x):
        z = x / self._a
        grad_params = np.arctan(z).real.sum(axis=0) + self._linear
        pairs = x[:, None, None] + self._signs * x
        if self._self_pairs is not None:
            pairs.reshape(-1)[self._self_pairs] = 0.0
        return z, grad_params, pairs, np.arctan(pairs)

    def _value(self, x, pre):
        z, grad_params, pairs, arctan_pairs = pre
        v = x @ grad_params - 0.5 * (self._a * np.log1p(z * z)).real.sum()
        # every pair (j, k) appears twice and the kept diagonal terms count
        # at half weight, so the pair terms are half the full sum of F
        v += 0.5 * np.vdot(pairs, arctan_pairs) - 0.25 * np.log1p(pairs * pairs).sum()
        return float(v)

    def _gradient(self, x, pre):
        return pre[1] + pre[3].sum(axis=(1, 2))

    def _rhs(self, x, pre):
        return -self._gradient(x, pre)


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
    n = x.size
    if n == 0:
        return np.zeros((0, 0))
    fam = kind.family

    if fam is Family.JACOBI:
        p = kind.params
        d = differences(x)
        cd = 1.0 / (d * d)
        h = -cd
        diag = np.sum(cd, axis=1)
        diag += 0.5 * (p.alpha + 1) / (x - 1.0) ** 2 + 0.5 * (p.beta + 1) / (x + 1.0) ** 2
        h[np.diag_indices(n)] = diag
        return h

    params = _kind_params(kind)
    d = x[:, None] - x[None, :]
    cd = 1.0 / (1.0 + d * d)

    if fam is Family.CONTINUOUS_HAHN:
        h = -cd
        diag = _param_lorentz_sum(x, params) + (np.sum(cd, axis=1) - 1.0)
        h[np.diag_indices(n)] = diag
        return h

    s = x[:, None] + x[None, :]
    cs = 1.0 / (1.0 + s * s)
    h = cs - cd
    diag = _param_lorentz_sum(x, params) + (np.sum(cd, axis=1) - 1.0)
    cs_self = 1.0 / (1.0 + 4.0 * x * x)
    if fam is Family.WILSON:
        diag += np.sum(cs, axis=1) - cs_self
    elif fam is Family.REDUCED_EVEN:
        diag += np.sum(cs, axis=1) + cs_self
    else:
        diag += np.sum(cs, axis=1) + cs_self + 1.0 / (1.0 + x * x)
    h[np.diag_indices(n)] = diag
    return h
