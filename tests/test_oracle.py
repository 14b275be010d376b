import numpy as np
import pytest

from orthoflow import (
    ContinuousHahnParams,
    Family,
    FlowFamily,
    MonicPoly,
    PotentialKind,
    SingularFactor,
    WilsonParams,
    bethe_residual_ch,
    bethe_residual_w,
    companion_roots,
    diff_eq_residual,
    full_verify,
    min_eigenvalue_symmetric,
    monic_continuous_hahn,
    monic_wilson,
    newton_solve,
)

from orthoflow import oracle

from conftest import random_ch_params, random_wilson_params


def test_companion_quadratic():
    poly = MonicPoly(np.array([-1.0 / 3.0, 0.0, 1.0]))
    assert companion_roots(poly) == pytest.approx(
        np.array([-1.0, 1.0]) / np.sqrt(3.0), rel=1e-12
    )


def test_companion_requires_degree():
    with pytest.raises(ValueError):
        companion_roots(MonicPoly(np.array([1.0])))


def test_min_eigenvalue_against_dense_solver():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5, 9):
        m = rng.normal(size=(n, n))
        m = m + m.T
        assert min_eigenvalue_symmetric(m) == pytest.approx(
            np.min(np.linalg.eigvalsh(m)), rel=1e-9, abs=1e-9
        )


def test_bethe_ch_n1_symmetric_origin():
    assert bethe_residual_ch([0.0], ContinuousHahnParams(2.0, 2.0)) == pytest.approx(0.0)


def test_bethe_ch_detects_perturbed_roots():
    p = random_ch_params(np.random.default_rng(2))
    poly = monic_continuous_hahn(6, p)
    roots = companion_roots(poly)
    assert bethe_residual_ch(roots, p) < 1e-8
    assert bethe_residual_ch(roots + 0.1, p) > 1e-2


def test_bethe_wilson_n1_at_flow_root():
    params = WilsonParams(1.3, 0.4, 2 + 1j, 2 - 1j)
    eq = newton_solve(PotentialKind(FlowFamily.WILSON, params), np.array([1.0]), tol=1e-13)
    assert bethe_residual_w(eq, params) < 1e-8


def test_bethe_wilson_detects_non_roots():
    params = WilsonParams(1.0, 1.0, 1.0, 1.0)
    assert bethe_residual_w([0.5, 2.0], params) > 1e-2


def test_bethe_singular_configuration():
    # a boundary parameter d = 0 makes the factor (id - x)^-1 blow up at x = 0
    params = WilsonParams(1.0, 1.0, 0.5, 0.0, allow_boundary=True)
    with pytest.raises(SingularFactor):
        bethe_residual_w([0.0], params)


@pytest.mark.parametrize("n", [1, 4, 9])
def test_diff_eq_ch_at_companion_roots(n):
    p = random_ch_params(np.random.default_rng(n))
    poly = monic_continuous_hahn(n, p)
    roots = companion_roots(poly)
    assert diff_eq_residual(poly, roots, Family.CH, p) < 1e-6


@pytest.mark.parametrize("n", [1, 4, 9])
def test_diff_eq_wilson_at_companion_roots(n):
    p = random_wilson_params(np.random.default_rng(50 + n))
    poly = monic_wilson(n, p)
    roots = companion_roots(poly)
    assert diff_eq_residual(poly, roots, Family.WILSON, p) < 1e-6


def test_diff_eq_detects_mismatched_parameters():
    p = ContinuousHahnParams(2.0, 0.5)
    poly = monic_continuous_hahn(5, p)
    roots = companion_roots(poly)
    wrong = ContinuousHahnParams(2.5, 0.5)
    assert diff_eq_residual(poly, roots, Family.CH, wrong) >= 1e-2


def test_diff_eq_wilson_singular_at_origin():
    p = WilsonParams(1.0, 1.0, 1.0, 1.0)
    poly = monic_wilson(2, p)
    with pytest.raises(SingularFactor):
        diff_eq_residual(poly, np.array([0.0, 1.0]), Family.WILSON, p)


def test_diff_eq_root_count_mismatch():
    p = ContinuousHahnParams(1.0, 1.0)
    with pytest.raises(ValueError):
        diff_eq_residual(monic_continuous_hahn(3, p), [0.0], Family.CH, p)


def test_full_verify_small_ch():
    report = full_verify(Family.CH, ContinuousHahnParams(1.5, 0.8), 1)
    assert report.root_mismatch < 1e-10
    assert report.max_bethe_residual < 1e-10
    assert report.max_diff_eq_residual < 1e-10
    assert report.hessian_min_eigenvalue > 0


@pytest.mark.parametrize("family", [Family.CH, Family.REDUCED_EVEN, Family.WILSON])
def test_full_verify_rejects_degree_zero_before_solving(family, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("ran before the degree was checked")

    for name in ("newton_solve", "monic_continuous_hahn", "monic_wilson"):
        monkeypatch.setattr(oracle, name, fail)
    params = WilsonParams(1, 1, 1, 1) if family is Family.WILSON else ContinuousHahnParams(1, 1)
    with pytest.raises(ValueError, match="verify needs n >= 1"):
        full_verify(family, params, 0)


def test_full_verify_small_wilson():
    report = full_verify(Family.WILSON, WilsonParams(1.0, 0.5, 1 + 1j, 1 - 1j), 2)
    assert report.root_mismatch < 1e-9
    assert report.max_bethe_residual < 1e-8
    assert report.max_diff_eq_residual < 1e-8
    assert report.hessian_min_eigenvalue > 0


@pytest.mark.parametrize("m", [1, 3, 6])
def test_quadratic_relation_at_root_level(m):
    # roots of the even-degree polynomial are the +/- square roots of the
    # related quarter/zero-shifted roots; odd degree adds the root at 0
    p = ContinuousHahnParams(10.0, 0.3)
    even_roots = companion_roots(monic_continuous_hahn(2 * m, p))
    w_even = companion_roots(monic_wilson(m, WilsonParams(p.a, p.b, 0.5, 0.0, allow_boundary=True)))
    assert even_roots == pytest.approx(np.concatenate([-w_even[::-1], w_even]), abs=1e-9)

    odd_roots = companion_roots(monic_continuous_hahn(2 * m + 1, p))
    w_odd = companion_roots(monic_wilson(m, WilsonParams(p.a, p.b, 0.5, 1.0)))
    assert odd_roots == pytest.approx(
        np.concatenate([-w_odd[::-1], [0.0], w_odd]), abs=1e-9
    )
