"""The parity-reduced continuous Hahn systems are Wilson systems:
CH_2m(x) = W_m(x^2; a, b, 1/2, 0) and CH_2m+1(x) = x W_m(x^2; a, b, 1/2, 1).
Their flows, Hessians, rate bounds and oracles are the Wilson ones, bit for
bit at the Wilson record of ``Family.wilson_params``."""

import json

import numpy as np
import pytest

from orthoflow import (
    Family,
    PotentialKind,
    WilsonParams,
    default_start,
    full_verify,
    gradient,
    hessian,
    integrate,
    kappa_bound,
    kappa_continuous_hahn_symmetric,
    newton_solve,
    potential,
)
from orthoflow.potentials import evaluator
from orthoflow.cli import EXIT_OK, main

from conftest import random_ch_params
from test_potentials import _fd_hessian

DEGREES = [1, 2, 7, 33]
REDUCED = [Family.REDUCED_EVEN, Family.REDUCED_ODD]


def _draws(m, tag):
    """Four conftest parameter draws and a configuration y > 0 for each."""
    rng = np.random.default_rng([m, tag])
    for _ in range(4):
        yield random_ch_params(rng), rng.uniform(0.5, 6.0, m) * (1.0 + m / 8.0)


def _assert_close(got, ref, rel):
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(np.asarray(got) - ref)) <= rel * scale


def _assert_same_flow(kind, wilson_kind, y, rel):
    _assert_close(potential(kind, y), potential(wilson_kind, y), rel)
    _assert_close(gradient(kind, y), gradient(wilson_kind, y), rel)
    _assert_close(hessian(kind, y), hessian(wilson_kind, y), rel)


@pytest.mark.parametrize("m", DEGREES)
def test_odd_reduced_system_is_the_wilson_flow(m):
    for p, y in _draws(m, 1):
        wilson = PotentialKind(Family.WILSON, WilsonParams(p.a, p.b, 0.5, 1.0))
        _assert_same_flow(PotentialKind(Family.REDUCED_ODD, p), wilson, y, 1e-12)


@pytest.mark.parametrize("m", DEGREES)
def test_even_reduced_system_is_the_wilson_flow_at_d_to_zero(m):
    # the d = 0 parameter enters as its limit on y > 0; d = 1e-9 runs the
    # generic path, which is O(d) away
    for p, y in _draws(m, 2):
        wilson = PotentialKind(Family.WILSON, WilsonParams(p.a, p.b, 0.5, 1e-9))
        _assert_same_flow(PotentialKind(Family.REDUCED_EVEN, p), wilson, y, 1e-7)


def _outcome(call):
    """What ``call`` returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("m", DEGREES)
@pytest.mark.parametrize("family", REDUCED, ids=lambda f: f.value)
def test_reduced_system_is_its_wilson_flow_bit_for_bit(family, m):
    for p, y in _draws(m, 6):
        kind = PotentialKind(family, p)
        wilson = PotentialKind(Family.WILSON, family.wilson_params(p))
        ev, wilson_ev = evaluator(kind, m), evaluator(wilson, m)
        for method in ("rhs", "gradient", "hessian"):
            got, ref = getattr(ev, method)(y), getattr(wilson_ev, method)(y)
            assert got.tobytes() == ref.tobytes(), method
        assert ev.value(y) == wilson_ev.value(y)
        traj, wilson_traj = integrate(kind, default_start(kind, m)), integrate(wilson, np.zeros(m))
        assert traj.times.tobytes() == wilson_traj.times.tobytes()
        assert traj.states.tobytes() == wilson_traj.states.tobytes()
        eq = newton_solve(kind, traj.states[-1], tol=1e-11)
        assert eq.tobytes() == newton_solve(wilson, traj.states[-1], tol=1e-11).tobytes()
        r_n = float(np.max(np.abs(eq)))
        assert kappa_bound(kind, m, r_n) == kappa_bound(wilson, m, r_n)
        report = _outcome(lambda: full_verify(family, p, m))
        assert report == _outcome(lambda: full_verify(Family.WILSON, family.wilson_params(p), m))


@pytest.mark.parametrize("m", DEGREES)
def test_symmetric_odd_bound_is_the_wilson_bound(m):
    for p, _ in _draws(m, 3):
        wilson = PotentialKind(Family.WILSON, WilsonParams(p.a, p.b, 0.5, 1.0))
        for r in (0.0, 0.7, 12.0):
            assert kappa_continuous_hahn_symmetric(p, 2 * m + 1, r) == kappa_bound(wilson, m, r)


@pytest.mark.parametrize("m", DEGREES)
@pytest.mark.parametrize("family", REDUCED, ids=lambda f: f.value)
def test_reduced_hessian_at_the_newton_start(family, m):
    for p, _ in _draws(m, 4):
        kind = PotentialKind(family, p)
        y = default_start(kind, m)
        h = hessian(kind, y)
        assert np.all(np.isfinite(h))
        assert np.max(np.abs(h - _fd_hessian(kind, y))) < 1e-5 * (1.0 + np.max(np.abs(h)))


@pytest.mark.parametrize("m", [1, 2, 7])
@pytest.mark.parametrize("family", REDUCED, ids=lambda f: f.value)
def test_full_verify_checks_the_reduced_roots_with_the_wilson_oracles(family, m):
    for p, _ in _draws(m, 5):
        report = full_verify(family, p, m)
        assert report.root_mismatch < 1e-9
        assert report.max_bethe_residual < 1e-8
        assert report.max_diff_eq_residual < 1e-8
        assert report.hessian_min_eigenvalue > 0


@pytest.mark.parametrize("family", REDUCED, ids=lambda f: f.value)
def test_verify_accepts_the_reduced_families(family, capsys):
    argv = ["verify", "--family", family.value, "--n", "7", "--a", "10", "--b", "3/10"]
    assert main(argv) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"] == {"a": 10.0, "b": 0.3}
    assert list(payload) == [
        "family", "n", "params", "max_bethe_residual", "max_diff_eq_residual",
        "root_mismatch", "hessian_min_eigenvalue",
    ]
