"""Command-line front end: compute roots, run flows, verify, measure rates.

``--family`` takes the values of the ``params.Family`` registry, and the
registry says which parameter flags a family requires; a flag of another
family is rejected. Each subcommand accepts only the options it honours.

``roots`` and ``verify`` need only the equilibrium and find it by damped
Newton on the strictly convex potential, straight from the start; ``flow``
and ``rate`` integrate the flow, because the trajectory is their output.
``--grad-tol`` is the gradient max-norm at which the solver stops.

Exit codes are stable contracts: 0 success, 2 parameter validation failure,
3 numerical failure. Complex parameter literals use the form ``re+imi`` /
``re-imi``; rational literals like ``17/3`` are accepted and evaluated in
binary floating point at parse time.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .errors import OrthoflowError, ParameterError
from .flow import (FlowSettings, Trajectory, default_start, equispaced_start, newton_solve,
                   solve_roots)
from .oracle import full_verify, min_eigenvalue_symmetric
from .params import Family
from .potentials import PotentialKind, hessian, in_domain
from .rates import kappa_bound, measure_decay

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

#: every parameter flag, in registry order: a, b, c, d, alpha, beta
_PARAM_NAMES = tuple(dict.fromkeys(name for fam in Family for name in fam.param_names))

_VERIFY_TOL = {
    "root_mismatch": 1e-6,
    "max_bethe_residual": 1e-6,
    "max_diff_eq_residual": 1e-6,
}


def _parse_real(text: str) -> float:
    text = text.strip()
    if "/" in text:
        num, den = (float(part) for part in text.split("/", 1))
        if den == 0:
            raise ParameterError(f"zero denominator in {text!r}")
        return num / den
    return float(text)


def parse_number(text: str) -> complex:
    """Parse a real, rational (p/q) or complex (re+imi) literal."""
    text = text.strip()
    if text and text[-1] in "iI":
        body = text[:-1]
        # split before the sign of the imaginary part (skip exponent signs)
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "eE":
                re_part = _parse_real(body[:pos])
                im_text = body[pos:]
                im_part = float(im_text) if im_text not in ("+", "-") else float(im_text + "1")
                return complex(re_part, im_part)
        return complex(0.0, float(body) if body not in ("", "+", "-") else float(body + "1"))
    return complex(_parse_real(text), 0.0)


def _parse_init_list(text: str, n: int) -> np.ndarray:
    """Comma-separated coordinates; a token ``VALxCOUNT`` repeats VAL."""
    values: list[float] = []
    for token in text.split(","):
        token = token.strip()
        if "x" in token and not token.endswith("x"):
            val, count = token.rsplit("x", 1)
            if not 0 <= int(count) <= n:
                raise ParameterError(f"--x0 repeat count {count} is not in 0..{n}")
            values.extend([_parse_real(val)] * int(count))
        else:
            values.append(_parse_real(token))
    if len(values) != n:
        raise ParameterError(f"--x0 supplies {len(values)} coordinates, expected {n}")
    x0 = np.array(values)
    if not np.all(np.isfinite(x0)):
        raise ParameterError(f"--x0 coordinates must be finite, got {text}")
    return x0


def _build_kind(args) -> PotentialKind:
    family = Family(args.family)
    names = family.param_names
    for name in names:
        if getattr(args, name) is None:
            raise ParameterError(f"family {args.family} requires --{name}")
    for name in _PARAM_NAMES:
        if name not in names and getattr(args, name) is not None:
            raise ParameterError(f"family {args.family} takes no --{name}")
    parse = _parse_real if family is Family.JACOBI else parse_number
    return PotentialKind(family, family.params_type(*(parse(getattr(args, k)) for k in names)))


def _initial_condition(args, kind: PotentialKind) -> np.ndarray:
    """The start that --init names; ``in_domain`` decides every Jacobi start."""
    n = args.n
    if args.init == "custom" and args.x0 is None:
        raise ParameterError("--init custom requires --x0")
    if args.x0 is not None and args.init != "custom":
        raise ParameterError("--x0 requires --init custom")
    if args.init is None:
        x0 = default_start(kind, n)
    elif args.init == "custom":
        x0 = _parse_init_list(args.x0, n)
    elif args.init == "equispaced":
        x0 = equispaced_start(n)
    else:  # zeros
        x0 = np.zeros(n)
    if kind.family is Family.JACOBI and not in_domain(x0):
        raise ParameterError(
            "Jacobi initial conditions must be strictly increasing inside (-1, 1)"
        )
    return x0


def _settings(args) -> FlowSettings:
    return FlowSettings(step=args.step, t_max=args.t_max, grad_tol=args.grad_tol)


def _precision(args) -> int:
    env = os.environ.get("ORTHOFLOW_PRECISION")
    prec = args.precision if env is None else int(env)
    if prec < 0:
        raise ParameterError(f"the precision must be nonnegative, got {prec}")
    return prec


def _payload(args, kind: PotentialKind, **fields) -> dict:
    """The JSON of a request: its family, n and parameters, then ``fields``."""
    params = {k: _cnum(getattr(kind.params, k)) for k in kind.family.param_names}
    return {"family": args.family, "n": args.n, "params": params, **fields}


def _cnum(z: complex):
    return z.real if z.imag == 0 else {"re": z.real, "im": z.imag}


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path``; a path that cannot be written is a
    parameter error (exit 2), not a traceback."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc.strerror or exc}") from None


def _write_series(path: str, times, values, prefix: str) -> None:
    """One row per sample: t, then the n values, each as %.17g (which
    round-trips doubles); columns t, {prefix}1 .. {prefix}n."""
    n = values.shape[1]
    header = ",".join(["t"] + [f"{prefix}{j}" for j in range(1, n + 1)])
    fmt = ",".join(["%.17g"] * (n + 1))
    rows = np.column_stack([times, values]).tolist()
    _write_text(path, "\n".join([header] + [fmt % tuple(row) for row in rows]) + "\n")


def write_logerr(path: str, traj: Trajectory, eq: np.ndarray) -> None:
    """Write log10 |x_j(t) - x_j*| of every recorded state of ``traj`` as CSV
    (columns t, log10err_1 .. log10err_n; errors floored at 1e-300)."""
    err = np.abs(traj.states - eq[None, :])
    _write_series(path, traj.times, np.log10(np.maximum(err, 1e-300)), "log10err_")


def _write_json(payload: dict, path: str | None, echo: bool = True) -> None:
    """Print the payload as indented JSON (if ``echo``) and write the same
    text to ``path`` (if given)."""
    text = json.dumps(payload, indent=2) + "\n"
    if echo:
        sys.stdout.write(text)
    if path:
        _write_text(path, text)


def cmd_roots(args) -> int:
    kind = _build_kind(args)
    prec = _precision(args)
    eq = newton_solve(kind, _initial_condition(args, kind), tol=args.grad_tol)
    roots = np.sort(eq)
    for idx, root in enumerate(roots, start=1):
        # a root that prints as zero prints without the sign of its roundoff
        if abs(root) < 0.5 * 10.0**-prec:
            root = abs(root)
        print(f"x[{idx}] = {root:.{prec}f}")
    if args.output and args.format == "csv":
        rows = [f"{i},{r!r}" for i, r in enumerate(roots.tolist(), 1)]
        _write_text(args.output, "\n".join(["index,root"] + rows) + "\n")
    elif args.output:
        # the bound and the Hessian have no value for the empty configuration
        payload = _payload(args, kind, roots=roots.tolist(), kappa_bound=None,
                           hessian_min_eigenvalue=None)
        if args.n:
            payload["kappa_bound"] = kappa_bound(kind, args.n, float(np.max(np.abs(eq))))
            payload["hessian_min_eigenvalue"] = min_eigenvalue_symmetric(hessian(kind, eq))
        _write_json(payload, args.output, echo=False)
    return EXIT_OK


def cmd_flow(args) -> int:
    if not args.output:
        raise ParameterError("flow requires --output")
    kind = _build_kind(args)
    x0 = _initial_condition(args, kind)
    traj, eq = solve_roots(kind, args.n, x0=x0, settings=_settings(args))
    _write_series(args.output, traj.times, traj.states, "x")
    base = args.output[:-4] if args.output.endswith(".csv") else args.output
    write_logerr(base + ".logerr.csv", traj, eq)
    print(f"wrote {len(traj.times)} samples to {args.output}")
    return EXIT_OK


def cmd_verify(args) -> int:
    kind = _build_kind(args)
    report = full_verify(kind.family, kind.params, args.n)
    payload = _payload(args, kind, **dataclasses.asdict(report))
    _write_json(payload, args.output)
    for key, tol in _VERIFY_TOL.items():
        if payload[key] > tol:
            print(f"verification failed: {key} = {payload[key]:.3e} > {tol:.0e}", file=sys.stderr)
            return EXIT_NUMERICAL
    # the Hessian of a strictly convex potential is positive definite: a
    # negative eigenvalue is roundoff swamping it, not a verified minimum
    if not payload["hessian_min_eigenvalue"] > 0:
        value = payload["hessian_min_eigenvalue"]
        print(f"verification failed: hessian_min_eigenvalue = {value:.3e} is not positive",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_rate(args) -> int:
    kind = _build_kind(args)
    x0 = _initial_condition(args, kind)
    traj, eq = solve_roots(kind, args.n, x0=x0, settings=_settings(args))
    window = tuple(args.window) if args.window else None
    report = measure_decay(traj, eq, window)
    payload = _payload(args, kind, kappa_bound=report.kappa_bound,
                       measured_slopes=report.measured_slopes.tolist(),
                       fit_window=list(report.fit_window), R_n=report.R_n)
    # a parity-symmetric start flows in the reduced system, degree n // 2
    if kind.family is Family.CH and x0.size and np.max(np.abs(x0 + x0[::-1])) == 0.0:
        reduced = PotentialKind(Family.reduction(args.n), kind.params)
        payload["kappa_bound_symmetric"] = kappa_bound(reduced, args.n // 2, report.R_n)
    _write_json(payload, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand registers only the options it honours, so argparse
    rejects the others (exit 2)."""
    parser = argparse.ArgumentParser(
        prog="orthoflow",
        description="Roots of continuous Hahn, Wilson and Jacobi polynomials "
        "via globally stable gradient flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "roots": cmd_roots,
        "flow": cmd_flow,
        "verify": cmd_verify,
        "rate": cmd_rate,
    }
    for name, func in commands.items():
        sp = sub.add_parser(name)
        sp.set_defaults(func=func)
        sp.add_argument("--family", choices=[f.value for f in Family], required=True)
        sp.add_argument("--n", type=int, required=True)
        for param in _PARAM_NAMES:
            sp.add_argument(f"--{param}")
        if name != "verify":  # verify solves from its own fixed start
            sp.add_argument("--init", choices=("zeros", "equispaced", "custom"), default=None)
            sp.add_argument("--x0", help="comma-separated coordinates; VALxCOUNT repeats")
            if name != "roots":  # roots solves by Newton and records no trajectory
                sp.add_argument("--t-max", dest="t_max", type=float, default=30.0)
                sp.add_argument("--step", type=float, default=0.05)
            sp.add_argument("--grad-tol", dest="grad_tol", type=float, default=1e-10)
        if name == "rate":
            sp.add_argument("--window", nargs=2, type=float, default=None)
        sp.add_argument("--output")
        if name == "roots":
            sp.add_argument("--format", choices=("csv", "json"), default="json")
            sp.add_argument("--precision", type=int, default=4)
    return parser


def _attach_values(argv: list[str]) -> list[str]:
    """Write ``--opt -1/3`` as ``--opt=-1/3``: argparse takes a token that
    starts with "-" for an option name unless it reads -digits[.digits].
    Every long option but --help and --window (two values) takes one value."""
    out = [""]
    for token in argv:
        prev = out[-1]
        if (prev[:2] == "--" and "=" not in prev and prev not in ("--", "--help", "--window")
                and token[:1] == "-" and token[1:2] not in ("", "-", "h")):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out[1:]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_attach_values(argv))
    if args.n < 0:
        print("error: n must be nonnegative", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return args.func(args)
    except (ParameterError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OrthoflowError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
