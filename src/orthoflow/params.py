"""The family registry and the validated parameter records.

``Family`` is the one registry of the five flows: continuous Hahn, Wilson,
Jacobi and the two parity-reduced continuous Hahn systems (Wilson systems).
Each member names its parameter record (``params_type``) and that record's
parameter names (``param_names``); the potentials, the kappa bound, the
oracles and the command line all dispatch on it.

Complex parameters are plain Python ``complex``; non-real values must come
in conjugate pairs so that every downstream quantity (coefficients,
potentials, Hessians) is real.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum

from .errors import ParameterError

_CONJ_RTOL = 1e-12


def _require_finite(**values) -> None:
    for name, v in values.items():
        if not cmath.isfinite(v):
            raise ParameterError(f"{name} must be finite, got {v}")


def _is_conjugate_pair(u: complex, v: complex) -> bool:
    return cmath.isclose(u, v.conjugate(), rel_tol=_CONJ_RTOL, abs_tol=1e-300)


@dataclass(frozen=True)
class ContinuousHahnParams:
    """Parameters (a, b) of the symmetric continuous Hahn family.

    Both real parts must be positive, and a, b are either both real or a
    complex-conjugate pair (the "symmetric" regime, even weight function).
    """

    a: complex
    b: complex

    def __post_init__(self):
        a, b = complex(self.a), complex(self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        _require_finite(a=a, b=b)
        if not (a.real > 0 and b.real > 0):
            raise ParameterError(f"Re(a) and Re(b) must be positive, got a={a}, b={b}")
        if (a.imag != 0 or b.imag != 0) and not _is_conjugate_pair(a, b):
            raise ParameterError(
                f"non-real a, b must form a conjugate pair, got a={a}, b={b}"
            )


@dataclass(frozen=True)
class WilsonParams:
    """Parameters (a, b, c, d) of the Wilson family.

    All real parts must be positive (>= 0 with ``allow_boundary``, which
    admits the d = 0 specialization that the parity-reduced even system is)
    and the parameter multiset must be closed under complex conjugation.
    """

    a: complex
    b: complex
    c: complex
    d: complex
    allow_boundary: bool = False

    def __post_init__(self):
        vals = [complex(v) for v in (self.a, self.b, self.c, self.d)]
        for name, v in zip("abcd", vals):
            object.__setattr__(self, name, v)
        _require_finite(**dict(zip("abcd", vals)))
        low = 0.0 if self.allow_boundary else None
        for v in vals:
            if low is None:
                if not v.real > 0:
                    raise ParameterError(f"Re of every parameter must be > 0, got {v}")
            elif v.real < 0 or (v.real == 0 and v.imag != 0):
                raise ParameterError(f"boundary parameters must be real >= 0, got {v}")
        # non-real entries must pair up under conjugation
        pending = [v for v in vals if v.imag != 0]
        while pending:
            v = pending.pop()
            for i, w in enumerate(pending):
                if _is_conjugate_pair(v, w):
                    pending.pop(i)
                    break
            else:
                raise ParameterError(
                    f"non-real parameters must occur in conjugate pairs, got {vals}"
                )

    @property
    def values(self) -> tuple[complex, complex, complex, complex]:
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class JacobiParams:
    """Jacobi parameters with alpha, beta > -1."""

    alpha: float
    beta: float

    def __post_init__(self):
        _require_finite(alpha=self.alpha, beta=self.beta)
        if not (self.alpha > -1 and self.beta > -1):
            raise ParameterError(
                f"alpha and beta must exceed -1, got ({self.alpha}, {self.beta})"
            )


class Family(Enum):
    """The five flow families: the command-line name, the parameter record,
    its parameter names in constructor order and, for the parity-reduced
    systems, the extra Wilson parameters (c, d) that make them Wilson
    systems: CH_2m(x) = W_m(x^2; a, b, 1/2, 0) and CH_2m+1(x) = x W_m(x^2;
    a, b, 1/2, 1). A zero extra parameter enters the flow as its one-sided
    limit on y > 0.

    ``CH`` is an alias of ``CONTINUOUS_HAHN``, so ``list(Family)`` has five
    members.
    """

    CONTINUOUS_HAHN = ("ch", ContinuousHahnParams, ("a", "b"))
    WILSON = ("wilson", WilsonParams, ("a", "b", "c", "d"))
    JACOBI = ("jacobi", JacobiParams, ("alpha", "beta"))
    REDUCED_EVEN = ("ch-even", ContinuousHahnParams, ("a", "b"), (0.5, 0.0))
    REDUCED_ODD = ("ch-odd", ContinuousHahnParams, ("a", "b"), (0.5, 1.0))
    CH = CONTINUOUS_HAHN

    def __new__(cls, value: str, params_type: type, param_names: tuple[str, ...],
                wilson_cd: tuple[float, float] = ()):
        member = object.__new__(cls)
        member._value_ = value
        member.params_type = params_type
        member.param_names = param_names
        member.wilson_cd = wilson_cd
        return member

    @classmethod
    def reduction(cls, n: int) -> Family:
        """The parity-reduced system of the degree-n symmetric continuous
        Hahn flow: the even one for even n, the odd one for odd n."""
        return cls.REDUCED_ODD if n % 2 else cls.REDUCED_EVEN

    def wilson_params(self, params) -> WilsonParams:
        """The Wilson record of a Wilson flow's parameters: ``params`` itself
        for the Wilson family, (a, b) with ``wilson_cd`` appended for a
        reduced system."""
        if self is Family.WILSON:
            return params
        return WilsonParams(params.a, params.b, *self.wilson_cd, allow_boundary=True)
