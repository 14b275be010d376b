"""The ratio-form difference-equation residual against the factored form it
replaced, and its guards.

``_factored_residual`` is the per-node loop that ``diff_eq_residual`` ran
before: p(x_j +- i) and p'(x_j) as separate products over the nodes. It is
kept here as the reference; the two must agree wherever the old products
stay in range.
"""

import numpy as np
import pytest

from orthoflow import (
    ContinuousHahnParams,
    Family,
    MonicPoly,
    PotentialKind,
    PrecisionLoss,
    SingularFactor,
    VariableKind,
    WilsonParams,
    diff_eq_residual,
    newton_solve,
)
from orthoflow.flow import default_start

from conftest import random_ch_params, random_wilson_params

DEGREES = [1, 2, 7, 33, 64]
SEEDS = [0, 1, 2]
FAMILIES = [Family.CH, Family.WILSON, Family.REDUCED_EVEN]  # ch-even: Wilson at d = 0


def _factored_residual(roots, family, params) -> float:
    n = roots.size
    if family is Family.CH:
        a, b = params.a, params.b
        lam = -n * (n + 2 * a + 2 * b - 1)

        def coeff_a(z):
            return (z + 1j * a) * (z + 1j * b)
    else:
        a, b, c, d = params.values
        lam = -n * (n + a + b + c + d - 1)

        def coeff_a(z):
            return (z + 1j * a) * (z + 1j * b) * (z + 1j * c) * (z + 1j * d) / (
                2.0 * z * (2.0 * z + 1j)
            )

    squared = family is Family.WILSON

    def p(z):
        return complex(np.prod(z * z - roots * roots) if squared else np.prod(z - roots))

    worst = 0.0
    for j in range(n):
        xj, others = roots[j], np.delete(roots, j)
        dp = 2.0 * xj * np.prod(xj * xj - others * others) if squared else np.prod(xj - others)
        lhs = coeff_a(xj) * p(xj + 1j) + coeff_a(-xj) * p(xj - 1j)
        worst = max(worst, abs(lhs) / (abs(lam) * abs(dp)))
    return worst


def _case(family, n, seed):
    """Newton roots of a conftest draw, and the (family, params, poly) the
    residual checks them against."""
    rng = np.random.default_rng([seed, n])
    p = random_wilson_params(rng) if family is Family.WILSON else random_ch_params(rng)
    kind = PotentialKind(family, p)
    roots = np.sort(newton_solve(kind, default_start(kind, n), tol=1e-12))
    if family is Family.CH:
        poly = MonicPoly(np.r_[np.zeros(n), 1.0])
        return roots, Family.CH, p, poly, rng
    poly = MonicPoly(np.r_[np.zeros(n), 1.0], VariableKind.X_SQUARED)
    return roots, Family.WILSON, family.wilson_params(p), poly, rng


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", DEGREES)
@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
def test_ratio_form_matches_factored_form(family, n, seed):
    roots, fam, params, poly, rng = _case(family, n, seed)
    # at the roots both sides are roundoff: compare absolutely
    at_roots = diff_eq_residual(poly, roots, fam, params)
    assert abs(at_roots - _factored_residual(roots, fam, params)) <= 1e-13
    assert at_roots < 1e-8
    # off the roots the residual is O(1): compare relatively
    moved = roots + rng.normal(0.0, 0.05, n)
    ref = _factored_residual(moved, fam, params)
    assert diff_eq_residual(poly, moved, fam, params) == pytest.approx(ref, rel=1e-12, abs=0)


def test_residual_is_the_same_at_mirrored_wilson_nodes():
    # a Wilson polynomial sees a node only through x^2
    roots, fam, params, poly, _ = _case(Family.WILSON, 7, 0)
    mirrored = roots * np.where(np.arange(7) % 2, -1.0, 1.0)
    assert diff_eq_residual(poly, mirrored, fam, params) == pytest.approx(
        diff_eq_residual(poly, roots, fam, params), rel=0, abs=1e-14
    )


CH = ContinuousHahnParams(1.0, 1.0)
W = WilsonParams(1.0, 0.5, 1 + 1j, 1 - 1j)


def _poly(n, family):
    kind = VariableKind.X_SQUARED if family is Family.WILSON else VariableKind.X
    return MonicPoly(np.r_[np.zeros(n), 1.0], kind)


@pytest.mark.parametrize(
    "family,params,x",
    [
        (Family.CH, CH, [0.5, 0.5, 1.0]),  # repeated node
        (Family.CH, CH, [0.5, 0.5 + 1e-13, 1.0]),  # nearly repeated node
        (Family.WILSON, W, [2.0, 0.5, 2.0]),  # repeated node
        (Family.WILSON, W, [0.5, -0.5]),  # the same node in x^2
        (Family.WILSON, W, [0.0, 1.0]),  # A(x) is singular at 0
        (Family.CH, ContinuousHahnParams(1e-14, 1e-14), [0.0]),  # lambda_1 = -4e-14
        (Family.WILSON, WilsonParams(1e-14, 1e-14, 1e-14, 1e-14), [1.0]),  # lambda_1 = -4e-14
    ],
)
def test_singular_configurations_raise(family, params, x):
    with pytest.raises(SingularFactor):
        diff_eq_residual(_poly(len(x), family), x, family, params)


@pytest.mark.parametrize(
    "family,params,x",
    [
        (Family.CH, ContinuousHahnParams(1e308, 0.5), [0.5]),  # lambda_1 overflows
        (Family.WILSON, WilsonParams(1e308, 1e308, 1.0, 1.0), [0.5]),  # lambda_1 overflows
        (Family.CH, ContinuousHahnParams(1e200, 1e200), [0.5]),  # A(x) overflows
        (Family.WILSON, WilsonParams(1e200, 1e200, 1.0, 1.0), [0.5]),  # A(x) overflows
        # 400 nodes 1e-9 apart: every ratio is ~1e9 / |j - k|, and the products overflow
        (Family.CH, CH, 1e-9 * np.arange(400)),
        (Family.WILSON, W, 1.0 + 1e-9 * np.arange(400)),
    ],
)
def test_overflow_raises_precision_loss(family, params, x):
    with pytest.raises(PrecisionLoss):
        diff_eq_residual(_poly(len(x), family), x, family, params)

