import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from orthoflow import (
    ContinuousHahnParams,
    DomainViolation,
    FlowFamily,
    JacobiParams,
    PotentialKind,
    WilsonParams,
    antideriv_arctan,
    gradient,
    hessian,
    pair_arctan,
    potential,
)

from conftest import random_ch_params, random_wilson_params


def all_kinds(rng):
    return [
        PotentialKind(FlowFamily.CONTINUOUS_HAHN, random_ch_params(rng)),
        PotentialKind(FlowFamily.WILSON, random_wilson_params(rng)),
        PotentialKind(FlowFamily.JACOBI, JacobiParams(rng.uniform(-0.9, 3), rng.uniform(-0.9, 3))),
        PotentialKind(FlowFamily.REDUCED_EVEN, random_ch_params(rng)),
        PotentialKind(FlowFamily.REDUCED_ODD, random_ch_params(rng)),
    ]


def random_config(kind, rng, n=5):
    if kind.family is FlowFamily.JACOBI:
        x = np.sort(rng.uniform(-0.95, 0.95, n))
        while np.min(np.diff(x)) < 0.02:
            x = np.sort(rng.uniform(-0.95, 0.95, n))
        return x
    return rng.uniform(-6, 6, n)


def test_antideriv_arctan_at_zero():
    assert antideriv_arctan(0.0) == 0.0


def test_antideriv_arctan_at_one():
    assert antideriv_arctan(1.0) == pytest.approx(np.pi / 4 - np.log(2) / 2)


@given(st.floats(-100, 100))
def test_antideriv_arctan_even(x):
    assert antideriv_arctan(-x) == pytest.approx(antideriv_arctan(x), rel=1e-12)


def test_pair_arctan_zero():
    assert pair_arctan(0.0, 2 + 1j, 2 - 1j) == 0.0


def test_pair_arctan_unit():
    assert pair_arctan(1.0, 1.0, 1.0) == pytest.approx(np.pi / 2)


@pytest.mark.parametrize("x", [0.3, 1.0, 4.7])
def test_pair_arctan_conjugate_pair_quadrature(x):
    # independent quadrature of the real integrand 2 Re(a/(a^2+t^2)),
    # which is d/dt of the pair arctan sum
    a = 1 + 1j
    integrand = lambda t: 2.0 * (a / (a * a + t * t)).real
    expected, _ = quad(integrand, 0.0, x)
    assert pair_arctan(x, a, a.conjugate()) == pytest.approx(expected, rel=1e-9)


def test_ch_potential_vanishes_at_origin_n1():
    kind = PotentialKind(FlowFamily.CONTINUOUS_HAHN, ContinuousHahnParams(1.0, 1.0))
    assert potential(kind, [0.0]) == 0.0


def test_jacobi_gradient_zero_at_legendre_roots():
    kind = PotentialKind(FlowFamily.JACOBI, JacobiParams(0.0, 0.0))
    x = np.array([-1.0, 1.0]) / np.sqrt(3.0)
    assert np.max(np.abs(gradient(kind, x))) < 1e-14


def test_jacobi_potential_is_local_minimum_at_roots():
    kind = PotentialKind(FlowFamily.JACOBI, JacobiParams(0.0, 0.0))
    x = np.array([-1.0, 1.0]) / np.sqrt(3.0)
    v0 = potential(kind, x)
    rng = np.random.default_rng(3)
    for _ in range(50):
        dx = rng.normal(size=2)
        dx *= 0.01 / np.linalg.norm(dx)
        assert potential(kind, np.sort(x + dx)) > v0


def _fd_gradient(kind, x):
    g = np.empty_like(x)
    for j in range(x.size):
        h = (1.0 + abs(x[j])) * 1e-6
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        g[j] = (potential(kind, xp) - potential(kind, xm)) / (2.0 * h)
    return g


def _fd_hessian(kind, x):
    h_mat = np.empty((x.size, x.size))
    for j in range(x.size):
        h = (1.0 + abs(x[j])) * 1e-6
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        h_mat[:, j] = (gradient(kind, xp) - gradient(kind, xm)) / (2.0 * h)
    return h_mat


@pytest.mark.parametrize("seed", range(4))
def test_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    for kind in all_kinds(rng):
        for _ in range(5):
            x = random_config(kind, rng)
            g = gradient(kind, x)
            fd = _fd_gradient(kind, x)
            assert np.max(np.abs(g - fd)) < 1e-6 * (1.0 + np.max(np.abs(g)))


@pytest.mark.parametrize("seed", range(4))
def test_hessian_matches_finite_differences(seed):
    rng = np.random.default_rng(100 + seed)
    for kind in all_kinds(rng):
        x = random_config(kind, rng)
        h = hessian(kind, x)
        fd = _fd_hessian(kind, x)
        assert np.max(np.abs(h - fd)) < 1e-5 * (1.0 + np.max(np.abs(h)))
        assert np.max(np.abs(h - h.T)) < 1e-12 * (1.0 + np.max(np.abs(h)))


def test_ch_hessian_n1_unit_parameters():
    kind = PotentialKind(FlowFamily.CONTINUOUS_HAHN, ContinuousHahnParams(1.0, 1.0))
    assert hessian(kind, [0.0]) == pytest.approx(np.array([[2.0]]))


@pytest.mark.parametrize("family", [FlowFamily.CONTINUOUS_HAHN, FlowFamily.WILSON],
                         ids=["FlowFamily.CONTINUOUS_HAHN", "FlowFamily.WILSON"])
def test_hessian_positive_definite(family):
    rng = np.random.default_rng(11)
    for _ in range(50):
        if family is FlowFamily.CONTINUOUS_HAHN:
            kind = PotentialKind(family, random_ch_params(rng))
        else:
            kind = PotentialKind(family, random_wilson_params(rng))
        x = rng.uniform(-10, 10, int(rng.integers(1, 8)))
        assert np.min(np.linalg.eigvalsh(hessian(kind, x))) > 0


def test_ch_parity_invariance():
    rng = np.random.default_rng(5)
    kind = PotentialKind(FlowFamily.CONTINUOUS_HAHN, random_ch_params(rng))
    for _ in range(10):
        x = rng.uniform(-5, 5, 6)
        reflected = -x[::-1]
        assert potential(kind, reflected) == pytest.approx(potential(kind, x), rel=1e-10)
        g = gradient(kind, x)
        gr = gradient(kind, reflected)
        assert gr == pytest.approx(-g[::-1], rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("family", [FlowFamily.CONTINUOUS_HAHN, FlowFamily.WILSON],
                         ids=["FlowFamily.CONTINUOUS_HAHN", "FlowFamily.WILSON"])
def test_radial_growth(family):
    rng = np.random.default_rng(21)
    if family is FlowFamily.CONTINUOUS_HAHN:
        kind = PotentialKind(family, random_ch_params(rng))
    else:
        kind = PotentialKind(family, random_wilson_params(rng))
    for _ in range(20):
        u = rng.normal(size=5)
        u /= np.linalg.norm(u)
        ts = np.geomspace(1e3, 1e4, 6)
        vals = [potential(kind, t * u) for t in ts]
        assert np.all(np.diff(vals) > 0)


def test_jacobi_domain_violations():
    kind = PotentialKind(FlowFamily.JACOBI, JacobiParams(0.0, 0.0))
    with pytest.raises(DomainViolation):
        potential(kind, [0.5, 0.5])  # collision
    with pytest.raises(DomainViolation):
        potential(kind, [-1.0, 0.5])  # boundary contact
    with pytest.raises(DomainViolation):
        gradient(kind, [0.7, 0.2])  # not increasing


def test_empty_configuration():
    kind = PotentialKind(FlowFamily.CONTINUOUS_HAHN, ContinuousHahnParams(1.0, 1.0))
    assert potential(kind, []) == 0.0
    assert gradient(kind, []).size == 0
    assert hessian(kind, []).shape == (0, 0)


def test_kind_parameter_type_check():
    with pytest.raises(TypeError):
        PotentialKind(FlowFamily.WILSON, ContinuousHahnParams(1.0, 1.0))
