"""`roots` and `verify` find the equilibrium by damped Newton from the start;
`flow` and `rate` integrate the flow. Both paths reach the same roots."""

import numpy as np
import pytest

from conftest import random_ch_params, random_wilson_params
from orthoflow import (
    ContinuousHahnParams,
    Family,
    FlowSettings,
    JacobiParams,
    PotentialKind,
    solve_roots,
)
from orthoflow import flow
from orthoflow.cli import EXIT_OK, main
from orthoflow.flow import default_start, newton_solve
from orthoflow.oracle import bethe_residual_ch, bethe_residual_w


def draw_params(family, rng):
    if family is Family.WILSON:
        return random_wilson_params(rng)
    if family is Family.JACOBI:
        return JacobiParams(rng.uniform(-0.9, 3), rng.uniform(-0.9, 3))
    return random_ch_params(rng)


@pytest.mark.parametrize("n", [1, 2, 7, 33])
@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_newton_from_default_start_matches_flow_and_polish(family, n):
    rng = np.random.default_rng([n, list(Family).index(family)])
    for _ in range(2):
        kind = PotentialKind(family, draw_params(family, rng))
        eq = newton_solve(kind, default_start(kind, n), tol=1e-10)
        # the flow and polish that `roots` ran before it solved by Newton alone
        settings = FlowSettings(step=0.05, t_max=10.0, grad_tol=1e-10, record_every=10)
        _, ref = solve_roots(kind, n, settings=settings, newton_tol=1e-10)
        assert np.max(np.abs(eq - ref)) <= 1e-9


def test_roots_at_degree_300_satisfy_the_bethe_identity(capsys):
    argv = ["roots", "--family", "ch", "--n", "300", "--a", "10", "--b", "3",
            "--precision", "12"]
    assert main(argv) == EXIT_OK
    roots = [float(line.split("=")[1]) for line in capsys.readouterr().out.splitlines()]
    assert len(roots) == 300
    assert bethe_residual_ch(roots, ContinuousHahnParams(10.0, 3.0)) <= 1e-6


CH = ["--family", "ch", "--n", "4", "--a", "2", "--b", "1"]


@pytest.mark.parametrize("argv,integrates", [
    (["roots", *CH], False),
    (["verify", *CH], False),
    (["flow", *CH, "--output", "{tmp}/traj.csv"], True),
    (["rate", *CH, "--t-max", "12"], True),
], ids=["roots", "verify", "flow", "rate"])
def test_only_trajectory_commands_integrate(argv, integrates, monkeypatch, tmp_path, capsys):
    calls = []
    integrate = flow.integrate

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(flow, "integrate", counted)
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == EXIT_OK
    assert len(calls) == (1 if integrates else 0)


# -- Bethe residuals: the vectorised form against the loop form --------------

def _bethe_loop_ch(x, p):
    n = len(x)
    worst = 0.0
    for j in range(n):
        lhs = (1j * p.a + x[j]) / (1j * p.a - x[j]) * (1j * p.b + x[j]) / (1j * p.b - x[j])
        for k in range(n):
            if k != j:
                lhs *= (1j + x[j] - x[k]) / (1j - x[j] + x[k])
        worst = max(worst, abs(lhs - (-1.0) ** (n + 1)))
    return worst


def _bethe_loop_w(x, p):
    n = len(x)
    worst = 0.0
    for j in range(n):
        lhs = 1.0 + 0.0j
        for e in p.values:
            lhs *= (1j * e + x[j]) / (1j * e - x[j])
        for k in range(n):
            if k != j:
                lhs *= (1j + x[j] + x[k]) / (1j - x[j] - x[k])
                lhs *= (1j + x[j] - x[k]) / (1j - x[j] + x[k])
        worst = max(worst, abs(lhs - 1.0))
    return worst


@pytest.mark.parametrize("n", [1, 2, 7, 33, 64])
@pytest.mark.parametrize("family", [Family.CH, Family.WILSON], ids=lambda f: f.value)
def test_vectorised_bethe_residual_matches_the_loop_form(family, n):
    rng = np.random.default_rng([n, 5])
    vectorised, loop = {
        Family.CH: (bethe_residual_ch, _bethe_loop_ch),
        Family.WILSON: (bethe_residual_w, _bethe_loop_w),
    }[family]
    for _ in range(2):
        p = draw_params(family, rng)
        kind = PotentialKind(family, p)
        roots = np.sort(newton_solve(kind, default_start(kind, n), tol=1e-10))
        for x in (roots, roots + rng.normal(scale=0.1, size=n)):
            assert abs(vectorised(x, p) - loop(x, p)) <= 1e-12
