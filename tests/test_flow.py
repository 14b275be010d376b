import numpy as np
import pytest

from orthoflow import (
    ContinuousHahnParams,
    FlowFamily,
    FlowSettings,
    MaxIterations,
    PotentialKind,
    WilsonParams,
    embed,
    gradient,
    integrate,
    newton_solve,
    potential,
    solve_roots,
)
from orthoflow import flow

from conftest import random_ch_params

CH = lambda p: PotentialKind(FlowFamily.CONTINUOUS_HAHN, p)


def wilson_n1_bisection(params, target=np.pi):
    # 1-d oracle: the n = 1 equilibrium solves sum_eps arctan(x/eps) = pi
    def f(x):
        return sum(np.arctan(x / np.complex128(e)).real for e in params.values) - target

    lo, hi = 1e-12, 1e6
    assert f(lo) < 0 < f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_settings_validation():
    with pytest.raises(ValueError):
        FlowSettings(step=2.0, t_max=1.0)
    with pytest.raises(ValueError):
        FlowSettings(grad_tol=0.0)
    with pytest.raises(ValueError):
        FlowSettings(record_every=0)


def test_degenerate_empty_system():
    traj = integrate(CH(ContinuousHahnParams(1, 1)), [])
    assert traj.states.shape == (1, 0)
    assert newton_solve(CH(ContinuousHahnParams(1, 1)), []).size == 0


def test_equilibrium_is_stationary():
    kind = CH(ContinuousHahnParams(2.0, 0.7))
    eq = newton_solve(kind, np.array([-1.0, 1.0]), tol=1e-13)
    traj = integrate(kind, eq, FlowSettings(step=0.1, t_max=5.0, grad_tol=1e-12))
    assert np.max(np.abs(traj.states - eq[None, :])) < 1e-10


@pytest.mark.parametrize("seed", range(3))
def test_monotone_descent(seed):
    rng = np.random.default_rng(seed)
    kind = CH(random_ch_params(rng))
    x0 = rng.uniform(-8, 8, 5)
    traj = integrate(kind, x0, FlowSettings(step=0.1, t_max=10.0))
    vals = [potential(kind, s) for s in traj.states]
    grads = [np.max(np.abs(gradient(kind, s))) for s in traj.states]
    for v0, v1, g in zip(vals, vals[1:], grads):
        if g > 1e-8:
            assert v1 < v0 + 1e-12 * (1 + abs(v0))


def test_parity_preservation():
    kind = CH(ContinuousHahnParams(3.0, 0.5))
    x0 = np.array([-2.0, -1.0, 1.0, 2.0])
    traj = integrate(kind, x0, FlowSettings(step=0.05, t_max=10.0))
    assert np.max(np.abs(traj.states + traj.states[:, ::-1])) < 1e-9


def test_global_convergence_unique_equilibrium():
    rng = np.random.default_rng(42)
    kind = CH(ContinuousHahnParams(2.0, 2.0))
    results = []
    for _ in range(20):
        x0 = rng.uniform(-20, 20, 4)
        _, eq = solve_roots(
            kind, 4, x0=x0, settings=FlowSettings(step=0.1, t_max=10.0), newton_tol=1e-12
        )
        results.append(np.sort(eq))
    results = np.array(results)
    assert np.max(np.abs(results - results[0])) < 1e-8


def test_newton_symmetric_n1_finds_origin():
    kind = CH(ContinuousHahnParams(1.5 + 0.5j, 1.5 - 0.5j))
    eq = newton_solve(kind, np.array([5.0]), tol=1e-12)
    assert abs(eq[0]) < 1e-12


def test_newton_wilson_n1_matches_bisection():
    params = WilsonParams(1.3, 0.4, 2 + 1j, 2 - 1j)
    kind = PotentialKind(FlowFamily.WILSON, params)
    eq = newton_solve(kind, np.array([1.0]), tol=1e-12)
    assert eq[0] == pytest.approx(wilson_n1_bisection(params), abs=1e-9)


def test_newton_max_iterations(monkeypatch):
    monkeypatch.setattr(flow, "_MAX_ITER", 1)
    kind = CH(ContinuousHahnParams(1.0, 1.0))
    with pytest.raises(MaxIterations, match="in 1 steps$"):
        newton_solve(kind, np.array([50.0, 60.0]), tol=1e-13)


def test_embed_even():
    assert embed("even", [1.0, 2.0]).tolist() == [-2.0, -1.0, 1.0, 2.0]


def test_embed_odd():
    assert embed("odd", [1.0, 2.0]).tolist() == [-2.0, -1.0, 0.0, 1.0, 2.0]


def test_embed_empty():
    assert embed("even", []).size == 0
    with pytest.raises(ValueError):
        embed("sideways", [1.0])


REDUCED = {"even": FlowFamily.REDUCED_EVEN, "odd": FlowFamily.REDUCED_ODD}


def test_reduced_rhs_empty():
    assert gradient(PotentialKind(REDUCED["odd"], ContinuousHahnParams(1, 1)), []).size == 0


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_reduced_rhs_matches_full_embedding(parity):
    # rhs (= -gradient) of the full flow at the embedded configuration,
    # restricted to the last m coordinates, equals the reduced rhs
    rng = np.random.default_rng(9)
    p = random_ch_params(rng)
    y = np.sort(rng.uniform(0.2, 6.0, 5))
    full = -gradient(CH(p), embed(parity, y))
    reduced = -gradient(PotentialKind(REDUCED[parity], p), y)
    assert np.max(np.abs(full[-5:] - reduced)) < 1e-12


@pytest.mark.parametrize("parity,family", [
    ("even", FlowFamily.REDUCED_EVEN),
    ("odd", FlowFamily.REDUCED_ODD),
], ids=["even-FlowFamily.REDUCED_EVEN", "odd-FlowFamily.REDUCED_ODD"])
def test_reduced_and_full_trajectories_agree(parity, family):
    p = ContinuousHahnParams(2.0, 0.8)
    s = FlowSettings(step=0.05, t_max=6.0)
    m = 3
    tr_reduced = integrate(PotentialKind(family, p), np.zeros(m), s)
    tr_full = integrate(CH(p), embed(parity, np.zeros(m)), s)
    assert np.allclose(tr_reduced.times, tr_full.times)
    assert np.max(np.abs(tr_full.states[:, -m:] - tr_reduced.states)) < 1e-6


def test_trajectory_invariants():
    kind = CH(ContinuousHahnParams(1.0, 1.0))
    traj = integrate(kind, np.zeros(3), FlowSettings(step=0.1, t_max=3.0))
    assert traj.times[0] == 0.0
    assert np.all(np.diff(traj.times) > 0)
    assert np.all(np.isfinite(traj.states))
    assert traj.times[-1] == pytest.approx(3.0)
