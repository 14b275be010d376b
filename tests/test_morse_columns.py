"""The column-table Morse evaluator against a verbatim copy of the complex
arctan evaluator it replaced: value, rhs, gradient and Hessian agree to
1e-13 relative over the four Morse families, random parameters and degrees,
and at extreme parameters under warnings-as-errors."""

import numpy as np
import pytest

from orthoflow import ContinuousHahnParams, FlowFamily, PotentialKind, WilsonParams
from orthoflow.params import Family
from orthoflow.potentials import _Evaluator, evaluator

from conftest import random_ch_params, random_wilson_params

MORSE = [FlowFamily.CONTINUOUS_HAHN, FlowFamily.WILSON, FlowFamily.REDUCED_EVEN,
         FlowFamily.REDUCED_ODD]
DEGREES = [0, 1, 2, 7, 33, 64]


# -- reference: the complex-arithmetic evaluator ---------------------------------

class BranchCrossing(Exception):
    """A parameter with Re a = 0 sits on the branch cut of arctan(x / a)."""


def _check_branch(*params: complex):
    for a in params:
        if a.real == 0:
            raise BranchCrossing(f"parameter {a} sits on the arctan branch cut")


class RefMorseEvaluator(_Evaluator):
    """Continuous Hahn, Wilson and the parity-reduced systems:

        V(x) = sum_j [sum_a Re A_a(x_j) + c_j x_j] + sum_{j<k} F(x_j - x_k)
               + sum_{j<k} F(x_j + x_k)           (all but continuous Hahn),

    with A_a(x) = x arctan(x/a) - (a/2) log(1 + (x/a)^2) and
    F(u) = u arctan(u) - log(1 + u^2) / 2. A parity-reduced system is the
    Wilson flow whose parameters are (a, b) and the registry's extra
    ``wilson_cd``; an extra parameter 0 enters as its one-sided limit on
    y > 0, A_0(y) = (pi/2) y, which adds pi/2 to every c_j and nothing to
    the Hessian. The flow rhs is -gradient.
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

    # the dispatch that the evaluator base class used to provide
    def value(self, x):
        return self._value(x, self._prepare(x))

    def gradient(self, x):
        return self._gradient(x, self._prepare(x))

    def rhs(self, x):
        return self._rhs(x, self._prepare(x))

    def hessian(self, x: np.ndarray) -> np.ndarray:
        # d/dx arctan(x/a) = Re a / (a^2 + x^2) and F'' = 1 / (1 + u^2); the
        # self pair, 0 in every sign block, has weight 1 and is taken out
        lorentz = 1.0 / (1.0 + self._pairs(x) ** 2)
        h = (self._signs * lorentz).sum(axis=1)
        with np.errstate(over="ignore"):  # a^2 = inf only where the term is ~1/|a| = 0
            params = (self._a / (self._a * self._a + x * x)).real.sum(axis=0)
        h[np.diag_indices(x.size)] = params + (lorentz.sum(axis=(1, 2)) - len(self._signs))
        return h


# -- comparison ------------------------------------------------------------------

def _close(got, ref, rel=1e-13):
    scale = max(1.0, float(np.max(np.abs(ref)))) if np.size(ref) else 1.0
    return np.shape(got) == np.shape(ref) and np.max(np.abs(got - ref), initial=0.0) <= rel * scale


def assert_matches_reference(kind, x):
    n = x.size
    ref, ev = RefMorseEvaluator(kind, n), evaluator(kind, n)
    v_ref, g_ref, h_ref = ref.value(x), ref.gradient(x), ref.hessian(x)
    v, rhs, g = ev.value(x), ev.rhs(x), ev.gradient(x)
    assert _close(v, v_ref), (v, v_ref)
    assert _close(rhs, -g_ref)
    assert _close(g, g_ref)
    assert np.array_equal(g, -rhs)
    assert ev.value(x) == v and np.array_equal(ev.rhs(x), rhs)
    h = ev.hessian(x)
    assert _close(h, h_ref), np.max(np.abs(h - h_ref))
    assert np.array_equal(h, h.T)


def draw_kind(family, rng):
    if family is FlowFamily.WILSON:
        return PotentialKind(family, random_wilson_params(rng))
    return PotentialKind(family, random_ch_params(rng))


@pytest.mark.parametrize("n", DEGREES)
@pytest.mark.parametrize("family", MORSE, ids=lambda f: f.value)
def test_columns_match_the_complex_evaluator(family, n):
    rng = np.random.default_rng([n, MORSE.index(family), 23])
    for _ in range(4):  # conftest draws: real and conjugate-pair parameters
        kind = draw_kind(family, rng)
        assert_matches_reference(kind, rng.uniform(-6.0, 6.0, n) * (1.0 + n / 8.0))


# -- extreme parameters ------------------------------------------------------------

EXTREME_CH = {
    "huge": (1e308, 1e308),
    "huge-and-unit": (1e308, 1.0),
    "tiny": (1e-13, 1e-13),
    "real-part-1e-13": (1e-13 + 1j, 1e-13 - 1j),
    "real-part-1e-160": (1e-160 + 1j, 1e-160 - 1j),
    "huge-complex": (1e150 * (1 + 1j), 1e150 * (1 - 1j)),
    # accepted as conjugate pairs, yet b is not exactly conj(a): each
    # parameter needs its own two columns
    "near-conjugate": (1 + 1j, 1 - (1 + 1e-13) * 1j),
    "near-conjugate-wide": (1 + 100j, 1 - 100 * (1 + 5e-13) * 1j),
}


def _extreme_kinds():
    for name, (a, b) in EXTREME_CH.items():
        shift = abs(complex(a).imag) or 1.0
        for family in (FlowFamily.CONTINUOUS_HAHN, FlowFamily.REDUCED_EVEN,
                       FlowFamily.REDUCED_ODD):
            yield pytest.param(PotentialKind(family, ContinuousHahnParams(a, b)), shift,
                               id=f"{family.value}-{name}")
        yield pytest.param(PotentialKind(FlowFamily.WILSON, WilsonParams(a, b, 0.5, 2.0)), shift,
                           id=f"wilson-{name}")
        yield pytest.param(PotentialKind(FlowFamily.WILSON, WilsonParams(1.5, 0.5, a, b)), shift,
                           id=f"wilson-cd-{name}")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind,shift", list(_extreme_kinds()))
@pytest.mark.parametrize("n", DEGREES)
def test_columns_match_at_extreme_parameters(kind, shift, n):
    rng = np.random.default_rng([n, 5])
    x = rng.uniform(-6.0, 6.0, n) * (1.0 + n / 8.0)
    # nodes at x = +-Im a, where a shifted column's argument is 0
    x[: min(n, 2)] = [shift, -shift][: min(n, 2)]
    assert_matches_reference(kind, x)
