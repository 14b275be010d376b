"""Reproduce the two showcase root tables and their verification reports.

Runs the gradient flow from the all-zeros start for the degree-30 continuous
Hahn configuration (a = 10, b = 3/10) and the degree-15 Wilson configuration
(a = 17/3, b = 1/5, c = 1+i, d = 1-i), prints the polished roots to 4
decimals, and cross-checks them against the companion-matrix and residual
oracles.
"""

import numpy as np

from orthoflow import (
    ContinuousHahnParams,
    Family,
    FlowSettings,
    PotentialKind,
    WilsonParams,
    full_verify,
    kappa_bound,
    solve_roots,
)

SETTINGS = FlowSettings(step=0.05, t_max=30.0, grad_tol=1e-13)


def run(label, family, params, n):
    kind = PotentialKind(family, params)
    _, eq = solve_roots(kind, n, settings=SETTINGS, newton_tol=1e-12)
    roots = np.sort(eq)
    r_n = float(np.max(np.abs(roots)))

    print(f"== {label} ==")
    for idx, root in enumerate(roots, start=1):
        print(f"  x[{idx:2d}] = {root:9.4f}")
    print(f"  R_n = {r_n:.4f}, kappa bound = {kappa_bound(kind, n, r_n):.4f}")

    report = full_verify(family, params, n)
    print(f"  root mismatch vs companion matrix: {report.root_mismatch:.2e}")
    print(f"  max Bethe residual:                {report.max_bethe_residual:.2e}")
    print(f"  max difference-eq residual:        {report.max_diff_eq_residual:.2e}")
    print(f"  Hessian min eigenvalue:            {report.hessian_min_eigenvalue:.4f}")
    print()


if __name__ == "__main__":
    run("continuous Hahn, n = 30, a = 10, b = 3/10",
        Family.CH, ContinuousHahnParams(10.0, 0.3), 30)
    run("Wilson, n = 15, a = 17/3, b = 1/5, c = 1+i, d = 1-i",
        Family.WILSON, WilsonParams(17.0 / 3.0, 0.2, 1 + 1j, 1 - 1j), 15)
