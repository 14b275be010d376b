"""Seeded inputs, the timed operation and its correctness check, per workload.

An op is a plain dict of inputs. Each workload class has ``make_ops(seed)``,
the whole input generator (the program under test sees only the op dicts),
``setup`` (references and a warm-up op), ``run`` (one op, the timed part),
``check`` (an oracle on the op's outputs, untimed) and ``probe`` (per-layer
timings of a traced op, untimed). ``check`` returns ``None`` for a correct
op or a failure class: ``exc:<ExceptionName>``, ``exit:<code>``,
``traceback`` or ``tol:<quantity>``.

Runs cycle through a fixed pool of ops and stop only at the end of a block
(``block`` ops), and every block holds the same mix: one degree from each
equal-width band of the range per family, one request of each CLI type.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np

from orthoflow import (
    ContinuousHahnParams,
    FlowFamily,
    FlowSettings,
    JacobiParams,
    OrthoflowError,
    PotentialKind,
    WilsonParams,
    bethe_residual_ch,
    bethe_residual_w,
    companion_roots,
    default_start,
    diff_eq_residual,
    electrostatic_rhs,
    embed,
    full_verify,
    gradient,
    hessian,
    integrate,
    jacobi_kappa,
    kappa_continuous_hahn,
    kappa_continuous_hahn_symmetric,
    measure_decay,
    min_eigenvalue_symmetric,
    monic_continuous_hahn,
    monic_jacobi,
    monic_wilson,
    newton_solve,
    potential,
)
from orthoflow.params import Family
from orthoflow.polynomials import MAX_DEGREE

from run import child_env
from tracing import NullTracer

#: the CLI's verification tolerance, used for every root and residual check
TOL = 1e-6
#: the sweep pool holds every degree this many times per family, each time
#: with its own parameters. A 30 s run at the seed commit takes ~430 ops, so
#: it runs ~3 distinct draws per degree and family instead of repeating one;
#: an op's cost varies up to 1.7x with its parameters
SWEEP_PASSES = 4
TRAJECTORY_POOL = 40
CLI_POOL = 64
CLI_REQUESTS = (
    "roots-ch30", "roots-w15-json", "roots-ch300", "verify-ch30",
    "verify-ch60", "verify-w15", "flow-ch30", "rate-ch30",
)


# -- seeded parameters ------------------------------------------------------------
#
# The parameter distributions are those of random_ch_params and
# random_wilson_params in tests/conftest.py. Each family's parameters are
# drawn as a Latin hypercube over the uniforms that feed those
# distributions: the k ops of a family take one draw from each 1/k stratum
# of every uniform. That keeps the share of ops that hit a parameter-
# dependent defect close to its expectation at every seed.

def lhs(rng, k: int, dims: int) -> np.ndarray:
    """k x dims uniforms on [0, 1), each column one draw per 1/k stratum."""
    strata = np.argsort(rng.random((k, dims)), axis=0)
    return (strata + rng.random((k, dims))) / k


CH_DIMS, WILSON_DIMS, JACOBI_DIMS = 3, 9, 2


def ch_params(u) -> tuple[complex, complex]:
    if u[0] < 0.5:
        return (complex(0.3 + 4.7 * u[1]), complex(0.3 + 4.7 * u[2]))
    re, im = 0.3 + 3.7 * u[1], 0.1 + 1.9 * u[2]
    return (complex(re, im), complex(re, -im))


def wilson_params(u) -> tuple[complex, ...]:
    shape = int(3 * u[0])
    rest = iter(u[1:])

    def real():
        return complex(0.3 + 2.2 * next(rest))

    def conj_pair():
        z = complex(0.3 + 2.2 * next(rest), 0.1 + 1.1 * next(rest))
        return [z, z.conjugate()]

    if shape == 0:
        vals = [real() for _ in range(4)]
    elif shape == 1:
        vals = [real(), real()] + conj_pair()
    else:
        vals = conj_pair() + conj_pair()
    return tuple(vals)


def jacobi_params(u) -> tuple[float, float]:
    return (float(-0.9 + 2.9 * u[0]), float(-0.9 + 2.9 * u[1]))


def _jitter(value: float, u: float) -> float:
    return value * (0.8 + 0.4 * u)


def showcase_ch_params(u) -> tuple[complex, complex]:
    """CH (a, b) around (10, 3), each scaled by 0.8..1.2.

    a is the paper's showcase value. b = 3 rather than the showcase 3/10:
    near b = 3/10 the n = 60 companion mismatch scatters around the 1e-6
    tolerance by roundoff (about a quarter of draws pass), so the known
    ``verify`` n = 60 defect would show at a seed-dependent rate; near b = 3
    it misses the tolerance in ~96 % of draws.
    """
    return (complex(_jitter(10.0, u[0])), complex(_jitter(3.0, u[1])))


def showcase_wilson_params(u) -> tuple[complex, ...]:
    """The Wilson showcase (17/3, 1/5, 1+i, 1-i), each part scaled by 0.8..1.2."""
    c = complex(_jitter(1.0, u[2]), _jitter(1.0, u[3]))
    return (complex(_jitter(17.0 / 3.0, u[0])), complex(_jitter(0.2, u[1])), c, c.conjugate())


PARAMS = {"ch": (ch_params, CH_DIMS), "ch-even": (ch_params, CH_DIMS),
          "ch-odd": (ch_params, CH_DIMS), "wilson": (wilson_params, WILSON_DIMS),
          "jacobi": (jacobi_params, JACOBI_DIMS),
          "ch-showcase": (showcase_ch_params, 2), "wilson-showcase": (showcase_wilson_params, 4)}


def param_stream(rng, family: str, k: int):
    """k seeded parameter tuples of one family, Latin-hypercube sampled."""
    fn, dims = PARAMS[family]
    return iter([fn(row) for row in lhs(rng, k, dims)])


def degree_blocks(rng, hi: int, k: int) -> list[int]:
    """Every degree 1..hi once, in blocks of k that each take one degree from
    every band of hi/k consecutive degrees; order within blocks is shuffled."""
    bands = [rng.permutation(band) for band in np.arange(1, hi + 1).reshape(k, hi // k)]
    out = []
    for j in range(hi // k):
        block = [int(band[j]) for band in bands]
        rng.shuffle(block)
        out += block
    return out


def stratified_parity(rng, lo: int, hi: int, k: int) -> list[int]:
    """k integers from [lo, hi]: one even and one odd from each of k/2 equal
    bands, shuffled, so exactly half are odd."""
    edges = np.ceil(np.linspace(lo, hi + 1, k // 2 + 1)).astype(int)
    vals = []
    for a, b in zip(edges[:-1], edges[1:]):
        band = np.arange(a, b)
        vals += [int(rng.choice(band[band % 2 == 0])), int(rng.choice(band[band % 2 == 1]))]
    rng.shuffle(vals)
    return vals


def _params_obj(op):
    if op["family"] in ("ch", "ch-even", "ch-odd"):
        return ContinuousHahnParams(*op["params"])
    if op["family"] == "wilson":
        return WilsonParams(*op["params"])
    return JacobiParams(*op["params"])


_FLOW_FAMILY = {
    "ch": FlowFamily.CONTINUOUS_HAHN,
    "wilson": FlowFamily.WILSON,
    "jacobi": FlowFamily.JACOBI,
    "ch-even": FlowFamily.REDUCED_EVEN,
    "ch-odd": FlowFamily.REDUCED_ODD,
}


def _kind(op) -> PotentialKind:
    return PotentialKind(_FLOW_FAMILY[op["family"]], _params_obj(op))


def probe_potentials(tr, kind, x, reps: int = 20) -> None:
    """Per-call cost of potential, gradient and Hessian at configuration x."""
    for name, fn in (("potential", potential), ("gradient", gradient), ("hessian", hessian)):
        with tr.span(f"potentials.{name}.x{reps}"):
            for _ in range(reps):
                fn(kind, x)


# -- oracle-sweep ---------------------------------------------------------------

class OracleSweep:
    """Criterion-5/6 sweep over degrees 1..MAX_DEGREE: flow roots against the
    companion oracle, the Bethe identity and the difference equation."""

    block = 16  # one degree from each band of 8 degrees, for each family
    settings = FlowSettings(step=0.1, t_max=3.0, grad_tol=1e-11)
    newton_tol = 1e-11

    @staticmethod
    def make_ops(seed: int) -> list[dict]:
        rng = np.random.default_rng([seed, 1])
        k = SWEEP_PASSES * MAX_DEGREE
        ch, wil = param_stream(rng, "ch", k), param_stream(rng, "wilson", k)
        ops = []
        for _ in range(SWEEP_PASSES):
            for nc, nw in zip(degree_blocks(rng, MAX_DEGREE, 8), degree_blocks(rng, MAX_DEGREE, 8)):
                ops.append({"family": "ch", "n": nc, "params": next(ch)})
                ops.append({"family": "wilson", "n": nw, "params": next(wil)})
        return ops

    def setup(self, ops) -> None:
        self.run(min(ops, key=lambda op: op["n"]), NullTracer())

    def run(self, op, tr) -> dict:
        p = _params_obj(op)
        n = op["n"]
        family = Family.CH if op["family"] == "ch" else Family.WILSON
        kind = _kind(op)
        out: dict = {}
        with tr.span("polynomials.monic"):
            poly = (monic_continuous_hahn if family is Family.CH else monic_wilson)(n, p)
        with tr.span("flow.integrate"):
            traj = integrate(kind, default_start(kind, n), self.settings)
        tr.count("flow.steps", len(traj.times) - 1)
        with tr.span("flow.newton"):
            out["eq"] = eq = newton_solve(kind, traj.states[-1], tol=self.newton_tol)
        roots = np.sort(eq)
        # a sweep row records every oracle, so a companion failure does not
        # skip the residuals
        try:
            with tr.span("oracle.companion"):
                comp = companion_roots(poly)
            out["root_mismatch"] = float(np.max(np.abs(roots - comp)))
        except OrthoflowError as exc:
            out["companion_error"] = type(exc).__name__
        with tr.span("oracle.bethe"):
            out["bethe"] = (bethe_residual_ch if family is Family.CH else bethe_residual_w)(roots, p)
        with tr.span("oracle.diffeq"):
            out["diffeq"] = diff_eq_residual(poly, roots, family, p)
        return out

    def check(self, index: int, op, out) -> str | None:
        if out.get("companion_error"):
            return "exc:" + out["companion_error"]
        for key in ("root_mismatch", "bethe", "diffeq"):
            if not out[key] <= TOL:
                return "tol:" + key
        return None

    def probe(self, op, out, tr) -> None:
        tr.count("oracle.companion_calls")
        if out.get("companion_error") or not out["root_mismatch"] <= TOL:
            tr.count("oracle.companion_failed")
        probe_potentials(tr, _kind(op), out["eq"])


# -- trajectory -----------------------------------------------------------------

class Trajectory:
    """Decay-rate experiment: a recorded flow, a Newton polish and a slope fit
    per op, rotating over the five flow families."""

    block = 5  # one op per family
    settings = FlowSettings(step=0.05, t_max=30.0, grad_tol=1e-13, record_every=1)
    window = (5.0, 25.0)
    newton_tol = 1e-11
    ranges = {"ch": (8, 32), "wilson": (5, 16), "ch-even": (8, 32), "ch-odd": (8, 32),
              "jacobi": (4, 20)}

    @classmethod
    def make_ops(cls, seed: int) -> list[dict]:
        rng = np.random.default_rng([seed, 2])
        k = TRAJECTORY_POOL // len(cls.ranges)
        degrees = {f: stratified_parity(rng, lo, hi, k) for f, (lo, hi) in cls.ranges.items()}
        params = {f: param_stream(rng, f, k) for f in cls.ranges}
        ops = []
        for i in range(k):
            for fam in cls.ranges:
                op = {"family": fam, "n": degrees[fam][i], "params": next(params[fam])}
                if fam in ("ch-even", "ch-odd"):
                    op["m"] = op["n"] // 2
                ops.append(op)
        return ops

    def setup(self, ops) -> None:
        self.refs = [companion_roots(self._poly(op)) for op in ops]
        self.run(min(ops, key=lambda op: op["n"]), NullTracer())

    @staticmethod
    def _poly(op):
        p = _params_obj(op)
        fam = op["family"]
        if fam == "wilson":
            return monic_wilson(op["n"], p)
        if fam == "jacobi":
            return monic_jacobi(op["n"], p)
        degree = {"ch": op["n"], "ch-even": 2 * op.get("m", 0), "ch-odd": 2 * op.get("m", 0) + 1}
        return monic_continuous_hahn(degree[fam], p)

    def _settings_window(self, op):
        if op["family"] != "jacobi":
            return self.settings, self.window
        # criterion 9: step and horizon scale with n; window (0.4, 0.9) t_end
        n = op["n"]
        kappa = jacobi_kappa(_params_obj(op), n)
        settings = FlowSettings(step=min(0.05, 1.0 / (2 * n * n + 10)), t_max=30.0 / kappa,
                                grad_tol=1e-13, record_every=1)
        return settings, None

    def run(self, op, tr) -> dict:
        kind = _kind(op)
        settings, window = self._settings_window(op)
        with tr.span("flow.integrate"):
            traj = integrate(kind, default_start(kind, op.get("m", op["n"])), settings)
        tr.count("flow.steps", len(traj.times) - 1)
        with tr.span("flow.newton"):
            eq = newton_solve(kind, traj.states[-1], tol=self.newton_tol)
        if window is None:
            window = (0.4 * traj.times[-1], 0.9 * traj.times[-1])
        tr.count("rates.calls")
        with tr.span("rates.measure_decay"):
            try:
                report = measure_decay(traj, eq, window=window)
            except OrthoflowError:
                tr.count("rates.failed")
                raise
        return {"eq": eq, "report": report}

    def check(self, index: int, op, out) -> str | None:
        eq, report = out["eq"], out["report"]
        fam = op["family"]
        if fam in ("ch-even", "ch-odd"):
            eq = embed(fam[3:], eq)
        roots, ref = np.sort(eq), self.refs[index]
        if roots.shape != ref.shape or not np.max(np.abs(roots - ref)) <= TOL:
            return "tol:root_mismatch"
        bound, slack = report.kappa_bound, 0.0
        if fam == "ch":
            # the zeros start is parity-symmetric, so the improved bound applies
            bound = kappa_continuous_hahn_symmetric(_params_obj(op), op["n"], report.R_n)
        elif fam == "jacobi":
            slack = 1e-2  # criterion 9's fit tolerance
        if not np.min(report.measured_slopes) > bound - slack:
            return "tol:slope_below_bound"
        return None

    def probe(self, op, out, tr) -> None:
        kind = _kind(op)
        probe_potentials(tr, kind, out["eq"])
        if op["family"] == "jacobi":
            with tr.span("jacobi_baseline.rhs.x20"):
                for _ in range(20):
                    electrostatic_rhs(kind.params, out["eq"])


# -- cli -------------------------------------------------------------------------

def _fmt(z: complex) -> str:
    if z.imag == 0:
        return repr(z.real)
    return f"{z.real!r}{z.imag:+.17g}i"


def _request_degree(req: str) -> int:
    return int("".join(ch for ch in req.split("-")[1] if ch.isdigit()))


def _parse_roots(stdout: str) -> np.ndarray:
    return np.array([float(line.split("=", 1)[1]) for line in stdout.splitlines()
                     if line.startswith("x[")])


class Cli:
    """Real ``python -m orthoflow.cli`` subprocesses, one at a time, over
    eight request types of equal weight."""

    block = len(CLI_REQUESTS)  # one request of each type

    def __init__(self, root: str, tmpdir: str):
        self.root = root
        self.tmpdir = tmpdir
        self.env = child_env()

    @staticmethod
    def make_ops(seed: int) -> list[dict]:
        rng = np.random.default_rng([seed, 3])
        k = CLI_POOL // len(CLI_REQUESTS)
        # requests take seeded parameters around fixed user configurations
        params = {req: param_stream(rng, ("wilson" if "-w" in req else "ch") + "-showcase", k)
                  for req in CLI_REQUESTS}
        ops = []
        for _ in range(k):
            for req in rng.permutation(CLI_REQUESTS):
                req = str(req)
                ops.append({"request": req, "family": "wilson" if "-w" in req else "ch",
                            "n": _request_degree(req), "params": next(params[req])})
        return ops

    def argv(self, op) -> list[str]:
        req = op["request"]
        args = [req.split("-", 1)[0], "--family", op["family"], "--n", str(op["n"])]
        for key, val in zip("abcd", op["params"]):
            args += [f"--{key}", _fmt(val)]
        if req == "roots-w15-json":
            args += ["--output", os.path.join(self.tmpdir, "roots.json")]
        elif req == "roots-ch300":
            args += ["--precision", "12"]
        elif req == "flow-ch30":
            args += ["--output", os.path.join(self.tmpdir, "flow.csv")]
        elif req == "rate-ch30":
            args += ["--window", "5", "25"]
        return args

    def setup(self, ops) -> None:
        self.refs = {}
        for op in ops:
            if op["request"] in ("roots-ch30", "roots-w15-json", "flow-ch30"):
                poly = (monic_wilson if op["family"] == "wilson" else monic_continuous_hahn)(
                    op["n"], _params_obj(op))
                self.refs[(op["request"], op["params"])] = companion_roots(poly)

    def _clean(self) -> None:
        for name in os.listdir(self.tmpdir):
            os.remove(os.path.join(self.tmpdir, name))

    def run(self, op, tr) -> dict:
        self._clean()
        with tr.span("cli.subprocess"):
            proc = subprocess.run(
                [sys.executable, "-m", "orthoflow.cli", *self.argv(op)],
                cwd=self.root, env=self.env, capture_output=True, text=True,
            )
        return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}

    def check(self, index: int, op, out) -> str | None:
        files = {}
        for name in os.listdir(self.tmpdir):
            with open(os.path.join(self.tmpdir, name), encoding="utf-8") as fh:
                files[name] = fh.read()
        out["bytes"] = len(out["stdout"].encode()) + sum(len(v.encode()) for v in files.values())
        if "Traceback (most recent call last)" in out["stderr"]:
            return "traceback"
        if out["code"] != 0:
            return f"exit:{out['code']}"
        req = op["request"]
        cmd = req.split("-", 1)[0]
        if cmd == "roots":
            return self._check_roots(op, out, files)
        if cmd == "verify":
            payload = json.loads(out["stdout"])
            for key in ("root_mismatch", "max_bethe_residual", "max_diff_eq_residual"):
                if not payload[key] <= TOL:
                    return f"tol:{key}"
            return None if payload["hessian_min_eigenvalue"] > 0 else "tol:hessian"
        if cmd == "flow":
            return self._check_flow(op, files)
        payload = json.loads(out["stdout"])
        bound = payload.get("kappa_bound_symmetric", payload["kappa_bound"])
        return None if min(payload["measured_slopes"]) > bound else "tol:slope_below_bound"

    def _check_roots(self, op, out, files) -> str | None:
        req = op["request"]
        roots = _parse_roots(out["stdout"])
        if roots.size != op["n"]:
            return "tol:root_count"
        if req == "roots-ch300":
            ok = bethe_residual_ch(roots, _params_obj(op)) <= TOL
            return None if ok else "tol:bethe"
        ref = self.refs[(req, op["params"])]
        if not np.max(np.abs(roots - ref)) <= 0.5e-4 + TOL:  # printed to 4 decimals
            return "tol:root_mismatch"
        if req == "roots-w15-json":
            payload = json.loads(files["roots.json"])
            if not np.max(np.abs(np.array(payload["roots"]) - ref)) <= TOL:
                return "tol:json_roots"
            if not payload["hessian_min_eigenvalue"] > 0:
                return "tol:hessian"
        return None

    def _check_flow(self, op, files) -> str | None:
        """The recorded trajectory must contract towards the reference roots
        at least at the guaranteed rate: |x(t) - x*| <= exp(-kappa t) |x(0) - x*|."""
        rows = [line.split(",") for line in files["flow.csv"].strip().splitlines()[1:]]
        logerr = files.get("flow.logerr.csv", "").strip().splitlines()[1:]
        if len(rows) < 3 or len(logerr) != len(rows):
            return "tol:flow_rows"
        t = np.array([float(r[0]) for r in rows])
        states = np.array([[float(v) for v in r[1:]] for r in rows])
        ref = self.refs[(op["request"], op["params"])]
        if t[0] != 0.0 or np.any(np.diff(t) <= 0) or states.shape[1] != ref.size:
            return "tol:flow_rows"
        kappa = kappa_continuous_hahn(_params_obj(op), float(np.max(np.abs(ref))))
        dist = np.linalg.norm(states - ref[None, :], axis=1)
        if not np.all(dist <= dist[0] * np.exp(-kappa * t) * (1.0 + TOL) + TOL):
            return "tol:flow_rate"
        return None

    def probe(self, op, out, tr) -> None:
        """Time the same request in-process (no interpreter start or import)
        and the layers behind it."""
        from orthoflow.cli import main

        tr.count("cli.bytes_written", out["bytes"])
        argv = self.argv(op)
        cmd = argv[0]
        self._clean()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            with tr.span(f"cli.{cmd}"):
                main(argv)
        self._clean()
        if cmd not in ("roots", "verify"):
            return
        # the flow and polish as each command runs them
        kind = _kind(op)
        settings, newton_tol = {
            "roots": (FlowSettings(step=0.05, t_max=10.0, grad_tol=1e-10, record_every=10), 1e-10),
            "verify": (FlowSettings(step=0.1, t_max=10.0, grad_tol=1e-10, record_every=5), 1e-12),
        }[cmd]
        with tr.span("flow.integrate"):
            traj = integrate(kind, default_start(kind, op["n"]), settings)
        tr.count("flow.steps", len(traj.times) - 1)
        with tr.span("flow.newton"):
            eq = newton_solve(kind, traj.states[-1], tol=newton_tol)
        probe_potentials(tr, kind, eq, reps=5)
        if cmd == "verify":
            family = Family.CH if op["family"] == "ch" else Family.WILSON
            with tr.span("oracle.full_verify"):
                try:
                    full_verify(family, _params_obj(op), op["n"])
                except OrthoflowError:
                    pass
            with tr.span("oracle.min_eigenvalue"):
                min_eigenvalue_symmetric(hessian(kind, eq))


WORKLOADS = {"oracle-sweep": OracleSweep, "trajectory": Trajectory, "cli": Cli}
