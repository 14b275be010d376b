"""The Bethe identity and the difference equation share one product pass
(``oracle._node_terms``): both residuals see the same guards, and
``full_verify`` derives both from a single pass.

The independent references for each form stay in ``test_equilibrium.py``
(the Bethe loop) and ``test_diff_eq_ratio.py`` (the factored difference
equation).
"""

import numpy as np
import pytest

from orthoflow import (
    ContinuousHahnParams,
    Family,
    MonicPoly,
    PotentialKind,
    SingularFactor,
    VariableKind,
    WilsonParams,
    bethe_residual_ch,
    bethe_residual_w,
    diff_eq_residual,
    full_verify,
)
from orthoflow import oracle

from conftest import random_ch_params, random_wilson_params

CH = ContinuousHahnParams(1.0, 1.0)
W = WilsonParams(1.0, 0.5, 1 + 1j, 1 - 1j)


@pytest.mark.parametrize(
    "family,params,x",
    [
        (Family.CH, CH, [0.5, 0.5, 1.0]),  # repeated node
        (Family.CH, CH, [0.5, 0.5 + 1e-13, 1.0]),  # nearly repeated node
        (Family.WILSON, W, [2.0, 0.5, 2.0]),  # repeated node
        (Family.WILSON, W, [0.5, -0.5]),  # the same node in x^2
        (Family.WILSON, W, [0.0, 1.0]),  # A(x) is singular at 0
    ],
)
def test_both_residuals_raise_on_singular_nodes(family, params, x):
    bethe = bethe_residual_ch if family is Family.CH else bethe_residual_w
    kind = VariableKind.X_SQUARED if family is Family.WILSON else VariableKind.X
    with pytest.raises(SingularFactor):
        bethe(x, params)
    with pytest.raises(SingularFactor):
        diff_eq_residual(MonicPoly(np.r_[np.zeros(len(x)), 1.0], kind), x, family, params)


@pytest.mark.parametrize("n", [1, 2, 7, 33])
@pytest.mark.parametrize(
    "family",
    [Family.CH, Family.WILSON, Family.REDUCED_EVEN, Family.REDUCED_ODD],
    ids=lambda f: f.value,
)
def test_full_verify_runs_one_pass_and_reports_the_public_residuals(family, n, monkeypatch):
    rng = np.random.default_rng([n, 17])
    params = random_wilson_params(rng) if family is Family.WILSON else random_ch_params(rng)
    passes = []
    node_terms = oracle._node_terms

    def recorded(roots, fam, p):
        passes.append((np.array(roots), fam, p))
        return node_terms(roots, fam, p)

    monkeypatch.setattr(oracle, "_node_terms", recorded)
    # the residuals are under test here, not the companion oracle
    monkeypatch.setattr(oracle, "companion_roots", lambda poly: np.zeros(poly.degree))
    report = full_verify(family, params, n)
    assert len(passes) == 1
    roots, fam, p = passes[0]
    assert (fam, p) == (
        (Family.CH, params) if family is Family.CH else (Family.WILSON, family.wilson_params(params))
    )
    bethe = bethe_residual_ch if fam is Family.CH else bethe_residual_w
    variable = VariableKind.X if fam is Family.CH else VariableKind.X_SQUARED
    poly = MonicPoly(np.r_[np.zeros(n), 1.0], variable)
    assert report.max_bethe_residual == bethe(roots, p)
    assert report.max_diff_eq_residual == diff_eq_residual(poly, roots, fam, p)
    assert report.max_bethe_residual < 1e-8 and report.max_diff_eq_residual < 1e-8
    kind = PotentialKind(family, params)  # the pass saw the sorted Newton roots
    expected = oracle.newton_solve(kind, oracle.default_start(kind, n), tol=1e-12)
    np.testing.assert_array_equal(roots, np.sort(expected))
