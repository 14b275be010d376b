"""The Morse arctan table as one matrix product, against a verbatim copy of
the outer-subtraction table it replaced, and the flow's stop test against
the max-norm it replaced.

The product [x | 1] @ [[1/alpha], [-y/alpha]] forms x_j (1/alpha) + (-y/alpha)
with one rounding where the reference forms (x_j - y) (1/alpha). On the pair
columns (alpha = 1, y = -+x_k), the self pair and the real parameters (y = 0)
that is the same arithmetic, so those columns hold the same numbers (a zero
may change its sign: the product's sum can start from +0); on the complex
columns (y = -+beta) the rounding of beta/alpha and of x_j/alpha
enters, each at most half an ulp of its term, so the two tables differ by at
most 2 eps (|x_j| + |y|) / alpha.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orthoflow import default_start, integrate, newton_solve
from orthoflow import potentials
from orthoflow.flow import _below
from orthoflow.params import Family
from orthoflow.potentials import _MorseEvaluator, evaluator

from test_descent_certificate import WORKLOAD_DEGREES, _workload_settings
from test_morse_columns import MORSE, draw_kind

DEGREES = [0, 1, 2, 7, 33, 64, 300]


# -- reference: the outer-subtraction table ----------------------------------------

def _param_columns(params):
    cols = [(0.0, 1.0 / a.real, 1.0) for a in params if a.imag == 0]
    for a in params:
        if a.imag != 0:
            cols += [(-a.imag, 1.0 / a.real, 0.5), (a.imag, 1.0 / a.real, 0.5)]
    return cols


class OuterTableEvaluator(_MorseEvaluator):
    """The Morse evaluator with the table filled by the outer subtraction and
    a whole-table scale, as before the product."""

    def __init__(self, kind, n):
        super().__init__(kind, n)
        fam = kind.family
        ch = fam is Family.CONTINUOUS_HAHN
        params = (kind.params.a, kind.params.b) if ch else fam.wilson_params(kind.params).values
        params = tuple(a for a in params if a != 0)
        head = [] if ch else [(0.0, 2.0, -1.0)]
        pairs = n if ch else 2 * n
        static = head + _param_columns(params)
        cols = np.ones((3, pairs + len(static)))
        cols[:, pairs:] = list(zip(*static))
        self._y, self._inv_alpha, _ = cols
        self.n_complex = 2 * sum(a.imag != 0 for a in params)

    def _table(self, x):
        n = x.size
        self._y[:n] = x
        if self._sums:
            np.negative(x, out=self._y[n : 2 * n])
        arg = np.subtract.outer(x, self._y, out=self._arg)
        arg *= self._inv_alpha
        return arg


def _configs(kind, n, rng):
    x = rng.uniform(-6.0, 6.0, n) * (1.0 + n / 8.0)
    yield x
    yield np.zeros(n)  # the flows' default start
    if n:
        # nodes at x = +-Im a, where a shifted column's argument is 0
        shift = max(abs(getattr(kind.params, k).imag) for k in kind.family.param_names)
        x = x.copy()
        x[: min(n, 2)] = [shift, -shift][: min(n, 2)]
        yield x


@pytest.mark.parametrize("n", DEGREES)
@pytest.mark.parametrize("family", MORSE, ids=lambda f: f.value)
def test_table_matches_the_outer_subtraction(family, n):
    rng = np.random.default_rng([n, MORSE.index(family), 41])
    for _ in range(4):  # conftest draws: real and conjugate-pair parameters
        kind = draw_kind(family, rng)
        ref_ev, ev = OuterTableEvaluator(kind, n), evaluator(kind, n)
        for x in _configs(kind, n, rng):
            ref, got = ref_ev._table(x).copy(), ev._table(x)
            exact = ref.shape[1] - ref_ev.n_complex
            assert np.array_equal(got[:, :exact], ref[:, :exact])
            scale = (np.abs(x)[:, None] + np.abs(ref_ev._y[exact:])) * ref_ev._inv_alpha[exact:]
            err = np.abs(got[:, exact:] - ref[:, exact:])
            assert np.all(err <= 2 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("family", MORSE, ids=lambda f: f.value)
def test_a_nan_evaluation_does_not_leak_into_the_next(family):
    # the table buffer is reused; the product must overwrite it, never read it
    rng = np.random.default_rng([MORSE.index(family), 43])
    for n in (1, 2, 7, 33):
        kind = draw_kind(family, rng)
        x = rng.uniform(-6.0, 6.0, n)
        ev = evaluator(kind, n)
        bad = x.copy()
        bad[n // 2] = np.nan
        assert np.isnan(ev.rhs(bad)).any()
        assert np.array_equal(ev.rhs(x), evaluator(kind, n).rhs(x))


@pytest.mark.parametrize("family", MORSE, ids=lambda f: f.value)
def test_same_trajectories_and_roots_as_the_outer_table(family, monkeypatch):
    rng = np.random.default_rng([MORSE.index(family), 47])
    for n in WORKLOAD_DEGREES[family]:
        kind = draw_kind(family, rng)
        while any(getattr(kind.params, k).imag for k in family.param_names):
            kind = draw_kind(family, rng)
        x0 = default_start(kind, n)
        runs = []
        for cls in (_MorseEvaluator, OuterTableEvaluator):
            monkeypatch.setattr(potentials, "_MorseEvaluator", cls)
            traj = integrate(kind, x0, _workload_settings(kind, n))
            runs.append((traj, newton_solve(kind, traj.states[-1], tol=1e-11),
                         newton_solve(kind, x0, tol=1e-12)))
        (traj, eq, eq0), (ref, ref_eq, ref_eq0) = runs
        assert np.array_equal(traj.times, ref.times)
        assert np.array_equal(traj.states, ref.states)
        assert np.array_equal(eq, ref_eq) and np.array_equal(eq0, ref_eq0)


# -- the stop test -------------------------------------------------------------------

@st.composite
def _vectors_and_tolerances(draw):
    tol = draw(st.floats(min_value=5e-324, max_value=1e300))
    edges = st.sampled_from([0.0, -0.0, tol, -tol, np.inf, -np.inf, np.nan])
    entry = st.one_of(edges, st.floats(-2 * tol, 2 * tol), st.floats())
    return np.array(draw(st.lists(entry, min_size=1, max_size=8))), tol


@settings(max_examples=500, deadline=None)
@given(_vectors_and_tolerances())
def test_below_is_the_max_norm_test(case):
    v, tol = case
    assert bool(_below(v, tol)) == bool(np.abs(v).max() < tol)
