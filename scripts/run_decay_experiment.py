"""Compare measured decay rates against the theoretical bounds.

Five experiments, four of them on the continuous Hahn parameters (10, 3/10):

1. all-zeros (parity-symmetric) start of the degree-30 configuration:
   every fitted slope should clear both the plain bound and the improved
   parity-symmetric bound;
2. broken-symmetry start (all coordinates at 3): some coordinates
   overshoot their limits and decay slower than the improved bound;
3. the degree-15 Wilson configuration from zeros;
4. the odd parity-reduced system of the degree-29 configuration (m = 14)
   beside the Wilson flow with (a, b, 1/2, 1), which it is;
5. the even parity-reduced system of the degree-30 configuration (m = 15)
   beside the Wilson flow with (a, b, 1/2, 0), which it is.

In 4 and 5 the two kappa bounds are equal, as the paper's comparison of the
reduced flows with the Wilson flows says; the script exits with an error
if they differ.

Writes log10-error trajectories as CSV next to this script when --outdir
is given.
"""

import argparse
import os

import numpy as np

from orthoflow import (
    ContinuousHahnParams,
    Family,
    FlowSettings,
    PotentialKind,
    WilsonParams,
    kappa_bound,
    measure_decay,
    solve_roots,
)
from orthoflow.cli import write_logerr

SETTINGS = FlowSettings(step=0.05, t_max=30.0, grad_tol=1e-13)
WINDOW = (5.0, 25.0)


def report(label, traj, eq, bounds):
    rep = measure_decay(traj, eq, window=WINDOW)
    slopes = rep.measured_slopes
    print(f"== {label} ==")
    print(f"  R_n = {rep.R_n:.4f}")
    for name, value in bounds.items():
        above = int(np.count_nonzero(slopes > value))
        print(f"  {name} = {value:.4f}  ({above}/{slopes.size} slopes above)")
    print(f"  slopes: min {np.min(slopes):.4f}, median {np.median(slopes):.4f}, "
          f"max {np.max(slopes):.4f}")
    err = np.abs(traj.states - eq[None, :])
    overshoot = np.count_nonzero(
        [np.any(np.diff(err[:, j]) > 1e-10) for j in range(eq.size)]
    )
    print(f"  coordinates with non-monotone error curves: {overshoot}")
    print()
    return traj, eq


def beside_wilson(family, params, m, label):
    """The reduced system of m roots beside the Wilson flow it is, at
    ``family.wilson_params(params)``; exits if the two kappa bounds differ."""
    kind = PotentialKind(family, params)
    wilson_params = family.wilson_params(params)
    wilson = PotentialKind(Family.WILSON, wilson_params)
    traj, eq = solve_roots(kind, m, settings=SETTINGS, newton_tol=1e-12)
    w_traj, w_eq = solve_roots(wilson, m, settings=SETTINGS, newton_tol=1e-12)
    cd = f"1/2, {wilson_params.d.real:g}"
    kappas = {
        f"kappa ({family.value})": kappa_bound(kind, m, float(np.max(np.abs(eq)))),
        f"kappa (Wilson a, b, {cd})": kappa_bound(wilson, m, float(np.max(np.abs(w_eq)))),
    }
    parity = family.value[3:]
    report(f"{label}, {parity} parity-reduced system (m={m})", traj, eq, kappas)
    report(f"Wilson ({params.a.real:g}, {params.b.real:g}, {cd}) m={m}, zeros start",
           w_traj, w_eq, kappas)
    k_reduced, k_wilson = kappas.values()
    print(f"  max |{family.value} - Wilson equilibrium| = {np.max(np.abs(eq - w_eq)):.1e}")
    print()
    if not np.isclose(k_reduced, k_wilson, rtol=1e-12, atol=0.0):
        raise SystemExit(
            f"the {family.value} and Wilson kappa bounds differ: {k_reduced} != {k_wilson}"
        )
    return traj, eq


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", help="directory for log-error CSV files")
    args = parser.parse_args()

    ch_params = ContinuousHahnParams(10.0, 0.3)
    ch_kind = PotentialKind(Family.CONTINUOUS_HAHN, ch_params)
    w_params = WilsonParams(17.0 / 3.0, 0.2, 1 + 1j, 1 - 1j)
    w_kind = PotentialKind(Family.WILSON, w_params)

    runs = {}
    traj, eq = solve_roots(ch_kind, 30, settings=SETTINGS, newton_tol=1e-12)
    r_n = float(np.max(np.abs(eq)))
    bounds = {
        "kappa (plain)": kappa_bound(ch_kind, 30, r_n),
        "kappa (parity-symmetric)": kappa_bound(
            PotentialKind(Family.reduction(30), ch_params), 30 // 2, r_n
        ),
    }
    runs["ch30_zeros"] = report("CH n=30, zeros start", traj, eq, bounds)

    traj, eq = solve_roots(
        ch_kind, 30, x0=np.full(30, 3.0), settings=SETTINGS, newton_tol=1e-12
    )
    runs["ch30_all3"] = report("CH n=30, broken-symmetry start (all 3)", traj, eq, bounds)

    traj, eq = solve_roots(w_kind, 15, settings=SETTINGS, newton_tol=1e-12)
    r_n = float(np.max(np.abs(eq)))
    runs["w15_zeros"] = report(
        "Wilson n=15, zeros start", traj, eq,
        {"kappa": kappa_bound(w_kind, 15, r_n)},
    )

    runs["ch29_odd"] = beside_wilson(Family.REDUCED_ODD, ch_params, 14, "CH n=29")
    runs["ch30_even"] = beside_wilson(Family.REDUCED_EVEN, ch_params, 15, "CH n=30")

    if args.outdir:
        os.makedirs(args.outdir, exist_ok=True)
        for name, (traj, eq) in runs.items():
            path = os.path.join(args.outdir, f"{name}.logerr.csv")
            write_logerr(path, traj, eq)
            print(f"wrote {path}")


if __name__ == "__main__":
    main()
