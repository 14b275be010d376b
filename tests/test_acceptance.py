"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass line once its assertions hold, so a verbose
run doubles as a short acceptance report.
"""

import time

import numpy as np
import pytest

from orthoflow import (
    Family,
    FlowFamily,
    FlowSettings,
    JacobiParams,
    PotentialKind,
    WilsonParams,
    bethe_residual_ch,
    bethe_residual_w,
    companion_roots,
    diff_eq_residual,
    gradient,
    hessian,
    jacobi_kappa,
    kappa_continuous_hahn,
    kappa_bound,
    kappa_continuous_hahn_symmetric,
    measure_decay,
    monic_continuous_hahn,
    monic_jacobi,
    monic_wilson,
    potential,
    solve_roots,
)
from orthoflow.cli import EXIT_OK, main

from conftest import (
    CH30_NEGATIVE_ROOTS,
    CH30_PARAMS,
    W15_PARAMS,
    W15_ROOTS,
    random_ch_params,
    random_wilson_params,
)

_FIT_WINDOW = (5.0, 25.0)


def _cli_roots(capsys, argv):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    assert code == EXIT_OK
    out = capsys.readouterr().out
    roots = np.array([float(line.split("=")[1]) for line in out.strip().splitlines()])
    return roots, elapsed


def test_criterion_1_continuous_hahn_root_table(capsys):
    roots, elapsed = _cli_roots(
        capsys,
        ["roots", "--family", "ch", "--n", "30", "--a", "10", "--b", "0.3",
         "--precision", "10"],
    )
    assert elapsed < 10.0
    assert np.max(np.abs(roots[:15] - CH30_NEGATIVE_ROOTS)) < 1e-4
    assert np.max(np.abs(roots + roots[::-1])) < 1e-8
    print("criterion 1: PASS - CH n=30 table to 1e-4, symmetry to 1e-8, "
          f"{elapsed:.1f}s")


def test_criterion_2_wilson_root_table(capsys):
    roots, elapsed = _cli_roots(
        capsys,
        ["roots", "--family", "wilson", "--n", "15", "--a", "17/3", "--b", "1/5",
         "--c", "1+1i", "--d", "1-1i", "--precision", "10"],
    )
    assert elapsed < 10.0
    assert np.max(np.abs(roots - W15_ROOTS)) < 1e-4
    print(f"criterion 2: PASS - Wilson n=15 table to 1e-4, {elapsed:.1f}s")


def test_criterion_3_rate_bound_values(ch30_run, w15_run):
    _, eq_ch = ch30_run
    _, eq_w = w15_run
    k_ch = kappa_continuous_hahn(CH30_PARAMS, float(np.max(np.abs(eq_ch))))
    k_w = kappa_bound(PotentialKind(Family.WILSON, W15_PARAMS), 15, float(np.max(np.abs(eq_w))))
    assert k_ch == pytest.approx(0.030, abs=1e-3)
    assert k_w == pytest.approx(0.061, abs=1e-3)
    print(f"criterion 3: PASS - kappa_ch={k_ch:.4f}~0.030, kappa_w={k_w:.4f}~0.061")


def test_criterion_4_slopes_exceed_bounds(ch30_run, w15_run):
    for run, label in ((ch30_run, "ch"), (w15_run, "wilson")):
        traj, eq = run
        report = measure_decay(traj, eq, window=_FIT_WINDOW)
        assert np.min(report.measured_slopes) > report.kappa_bound
    print("criterion 4: PASS - all fitted slopes exceed the kappa bounds")


@pytest.fixture(scope="module")
def sweep_results():
    settings = FlowSettings(step=0.1, t_max=3.0, grad_tol=1e-11)
    rows = []
    for family in (Family.CH, Family.WILSON):
        rng = np.random.default_rng(0 if family is Family.CH else 1)
        for n in range(1, 26):
            for _ in range(5):
                if family is Family.CH:
                    p = random_ch_params(rng)
                    kind = PotentialKind(FlowFamily.CONTINUOUS_HAHN, p)
                    poly = monic_continuous_hahn(n, p)
                else:
                    p = random_wilson_params(rng)
                    kind = PotentialKind(FlowFamily.WILSON, p)
                    poly = monic_wilson(n, p)
                _, eq = solve_roots(kind, n, settings=settings, newton_tol=1e-11)
                flow_roots = np.sort(eq)
                mismatch = float(np.max(np.abs(flow_roots - companion_roots(poly))))
                if family is Family.CH:
                    bethe = bethe_residual_ch(flow_roots, p)
                else:
                    bethe = bethe_residual_w(flow_roots, p)
                diff_res = diff_eq_residual(poly, flow_roots, family, p)
                rows.append((family, n, mismatch, bethe, diff_res))
    return rows


def test_criterion_5_oracle_equivalence(sweep_results):
    worst = max(row[2] for row in sweep_results)
    assert worst < 1e-6
    print(f"criterion 5: PASS - flow vs companion max-norm {worst:.2e} over "
          f"{len(sweep_results)} runs")


def test_criterion_6_residuals(sweep_results):
    worst_bethe = max(row[3] for row in sweep_results)
    worst_diff = max(row[4] for row in sweep_results)
    assert worst_bethe < 1e-6
    assert worst_diff < 1e-6
    print(f"criterion 6: PASS - bethe {worst_bethe:.2e}, diff-eq {worst_diff:.2e}")


def test_criterion_7_quadratic_relations():
    p = CH30_PARAMS
    for m in range(1, 11):
        even = monic_continuous_hahn(2 * m, p)
        odd = monic_continuous_hahn(2 * m + 1, p)
        w_even_p = WilsonParams(p.a, p.b, 0.5, 0.0, allow_boundary=True)
        w_odd_p = WilsonParams(p.a, p.b, 0.5, 1.0)
        w_even = monic_wilson(m, w_even_p)
        w_odd = monic_wilson(m, w_odd_p)

        expect = np.zeros(2 * m + 1)
        expect[::2] = w_even.coeffs
        assert np.max(np.abs(even.coeffs - expect) / (1.0 + np.abs(expect))) < 1e-8
        expect = np.zeros(2 * m + 2)
        expect[1::2] = w_odd.coeffs
        assert np.max(np.abs(odd.coeffs - expect) / (1.0 + np.abs(expect))) < 1e-8

        r_even = companion_roots(even)
        r_w = companion_roots(w_even)
        assert np.max(np.abs(r_even - np.concatenate([-r_w[::-1], r_w]))) < 1e-8 * (
            1.0 + np.max(np.abs(r_even))
        )
        r_odd = companion_roots(odd)
        r_w = companion_roots(w_odd)
        assert np.max(
            np.abs(r_odd - np.concatenate([-r_w[::-1], [0.0], r_w]))
        ) < 1e-8 * (1.0 + np.max(np.abs(r_odd)))
    print("criterion 7: PASS - quadratic relations to rel 1e-8 for m <= 10")


def test_criterion_8_parity_and_improved_rate(ch30_run, ch30_broken_run):
    traj, eq = ch30_run
    assert np.max(np.abs(traj.states + traj.states[:, ::-1])) < 1e-9
    r_n = float(np.max(np.abs(eq)))
    improved = kappa_continuous_hahn_symmetric(CH30_PARAMS, 30, r_n)
    report = measure_decay(traj, eq, window=_FIT_WINDOW)
    assert np.min(report.measured_slopes) > improved

    traj_b, eq_b = ch30_broken_run
    err = np.abs(traj_b.states - eq_b[None, :])
    non_monotone = np.array(
        [np.any(np.diff(err[:, j]) > 1e-10) for j in range(30)]
    )
    report_b = measure_decay(traj_b, eq_b, window=_FIT_WINDOW)
    slow = report_b.measured_slopes < improved
    assert np.any(non_monotone & slow)
    print("criterion 8: PASS - parity kept to 1e-9, symmetric run beats the "
          "improved bound, broken run overshoots below it")


def test_criterion_9_jacobi_baseline():
    cases = [(0.0, 0.0), (1.0, 2.0), (-0.5, -0.5)]
    for alpha, beta in cases:
        p = JacobiParams(alpha, beta)
        # even n only: at odd n with alpha = beta the middle coordinate of
        # the equispaced start already sits at its root, so there is no
        # decay curve to fit for it
        for n in (4, 12, 20):
            kind = PotentialKind(FlowFamily.JACOBI, p)
            kappa = jacobi_kappa(p, n)
            settings = FlowSettings(
                step=min(0.05, 1.0 / (2 * n * n + 10)),
                t_max=30.0 / kappa,
                grad_tol=1e-13,
            )
            traj, eq = solve_roots(kind, n, settings=settings, newton_tol=1e-12)
            roots = companion_roots(monic_jacobi(n, p))
            assert np.max(np.abs(np.sort(eq) - roots)) < 1e-6
            t_end = traj.times[-1]
            report = measure_decay(traj, eq, window=(0.4 * t_end, 0.9 * t_end))
            assert np.min(report.measured_slopes) >= kappa - 1e-2
    print("criterion 9: PASS - Jacobi baseline converges with slopes >= 2n+a+b")


def _fd_gradient(kind, x):
    g = np.empty_like(x)
    for j in range(x.size):
        h = (1.0 + abs(x[j])) * 1e-6
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        g[j] = (potential(kind, xp) - potential(kind, xm)) / (2.0 * h)
    return g


def test_criterion_10_property_suites(ch30_run, ch30_broken_run, w15_run):
    rng = np.random.default_rng(77)
    for family in (FlowFamily.CONTINUOUS_HAHN, FlowFamily.WILSON):
        for _ in range(50):
            if family is FlowFamily.CONTINUOUS_HAHN:
                kind = PotentialKind(family, random_ch_params(rng))
            else:
                kind = PotentialKind(family, random_wilson_params(rng))
            x = rng.uniform(-8, 8, int(rng.integers(1, 8)))
            g = gradient(kind, x)
            fd = _fd_gradient(kind, x)
            assert np.max(np.abs(g - fd)) < 1e-6 * (1.0 + np.max(np.abs(g)))
            assert np.min(np.linalg.eigvalsh(hessian(kind, x))) > 0

    for traj, _ in (ch30_run, ch30_broken_run, w15_run):
        vals = np.array([potential(traj.kind, s) for s in traj.states])
        assert np.all(np.diff(vals) <= 1e-12 * (1.0 + np.abs(vals[:-1])))
    print("criterion 10: PASS - gradients match finite differences, Hessians "
          "positive definite, potentials decrease along trajectories")
