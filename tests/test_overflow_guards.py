"""Non-finite parameters are rejected, and overflow never passes silently."""

import json
import re
import warnings

import numpy as np
import pytest

from orthoflow import (
    ContinuousHahnParams,
    DomainViolation,
    Family,
    FlowFamily,
    JacobiParams,
    MonicPoly,
    ParameterError,
    PotentialKind,
    PrecisionLoss,
    WilsonParams,
    bethe_residual_ch,
    bethe_residual_w,
    companion_roots,
    diff_eq_residual,
    electrostatic_rhs,
    integrate,
    monic_continuous_hahn,
    monic_jacobi,
    newton_solve,
    potential,
)
from orthoflow.potentials import evaluator, in_domain
from orthoflow.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main

NON_FINITE = [float("inf"), float("-inf"), float("nan")]


@pytest.mark.parametrize("bad", NON_FINITE + [complex(1.0, float("inf"))])
def test_params_reject_non_finite(bad):
    with pytest.raises(ParameterError):
        ContinuousHahnParams(bad, 1.0)
    with pytest.raises(ParameterError):
        WilsonParams(1.0, 1.0, 1.0, bad)
    with pytest.raises(ParameterError):
        WilsonParams(1.0, 1.0, 1.0, bad, allow_boundary=True)
    if not isinstance(bad, complex):
        with pytest.raises(ParameterError):
            JacobiParams(0.5, bad)


def _run(command, a, tmp_path, family="ch"):
    argv = [command, "--family", family, "--n", "5", f"--a={a}", "--b", "1"]
    if command == "flow":
        argv += ["--output", str(tmp_path / "traj.csv")]
    return main(argv)


@pytest.mark.parametrize("a", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("command", ["roots", "verify", "flow", "rate"])
def test_cli_non_finite_parameter_is_a_validation_error(command, a, tmp_path, capsys):
    assert _run(command, a, tmp_path) == EXIT_VALIDATION
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["roots", "verify", "flow", "rate"])
def test_cli_huge_parameter_ends_with_an_exit_code(command, tmp_path):
    # a = 1e308 is a valid parameter: roots and flow succeed, verify and
    # rate fail numerically; none may escape as an exception
    assert _run(command, "1e308", tmp_path) in (EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("family", ["ch", "ch-even", "ch-odd"])
@pytest.mark.parametrize("command", ["roots", "verify", "flow", "rate"])
def test_cli_tiny_parameter_ends_with_a_message(command, family, tmp_path, capsys):
    # a = 1e-300 is a valid parameter whose table entries (x - y) / a square
    # past the double range; the potential's value test must stay finite
    # and silent, so each request exits with a message and no traceback
    code = _run(command, "1e-300", tmp_path, family)
    out, err = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_NUMERICAL)
    assert (out if code == EXIT_OK else err).strip()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [2, 5, 9])
def test_cli_verify_zero_wilson_parameter_cancels_the_pole(n, capsys):
    # ch-even is the Wilson system with d = 0, whose factor x of A(x) cancels
    # the pole at 0: a = 1e-300 puts the valid root y_1 ~ 1e-290 next to 0
    argv = ["verify", "--family", "ch-even", "--n", str(n), "--a", "1e-300", "--b", "1"]
    assert main(argv) == EXIT_OK, capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("family,name", [("ch", "a"), ("ch-even", "a"), ("ch-odd", "a"),
                                         ("wilson", "d")])
@pytest.mark.parametrize("command", ["roots", "verify", "flow", "rate"])
def test_cli_subnormal_parameter_is_a_validation_error(command, family, name, tmp_path, capsys):
    # 1 / Re a overflows, which used to start the flow at NaN
    params = dict.fromkeys("abcd" if family == "wilson" else "ab", "1")
    params[name] = "1e-320"
    argv = [command, "--family", family, "--n", "3"]
    argv += [f"--{k}={v}" for k, v in params.items()]
    if command == "flow":
        argv += ["--output", str(tmp_path / "traj.csv")]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == f"error: Re {name} = 1e-320 is too small: 1/Re {name} overflows\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("family,names", [("ch", "ab"), ("ch-even", "ab"), ("ch-odd", "ab"),
                                          ("wilson", "cd")])
@pytest.mark.parametrize("re,im", [("1e-300", "1e9"), ("1e-305", "1e4")])
@pytest.mark.parametrize("command", ["roots", "verify", "flow", "rate"])
def test_cli_overflowing_shift_is_a_validation_error(command, family, names, re, im, tmp_path,
                                                     capsys):
    # Im a / Re a is the shift of a's arctan columns; it used to overflow
    # in the table and end in SingularHessian
    params = dict.fromkeys("abcd" if family == "wilson" else "ab", "1")
    params[names[0]], params[names[1]] = f"{re}+{im}i", f"{re}-{im}i"
    argv = [command, "--family", family, "--n", "3"]
    argv += [f"--{k}={v}" for k, v in params.items()]
    if command == "flow":
        argv += ["--output", str(tmp_path / "traj.csv")]
    assert main(argv) == EXIT_VALIDATION
    name = names[0]
    assert capsys.readouterr().err == (
        f"error: Re {name} = {float(re)} is too small for Im {name} = {float(im)}: "
        f"Im {name} / Re {name} overflows\n"
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("params,norm", [
    (["--a", "1e-300+1i", "--b", "1e-300-1i"], "0"),
    (["--a", "1", "--b", "1", "--init", "custom", "--x0", "1e8x3"], "1e+08"),
], ids=["lorentzians-underflow", "far-start"])
def test_cli_singular_hessian_names_its_cause(params, norm, capsys):
    # at zeros the 1e-300 parameters' Lorentzians underflow, and at 1e8 they
    # vanish beside the pair terms' 1: either way the Hessian is the pair
    # Laplacian, singular, to working precision
    assert main(["roots", "--family", "ch", "--n", "3", *params]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "numerical failure: SingularHessian: the Hessian is singular to working precision "
        f"at Newton iteration 0 (|x|_inf = {norm}): Singular matrix\n"
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("family", [FlowFamily.CONTINUOUS_HAHN, FlowFamily.REDUCED_EVEN,
                                    FlowFamily.REDUCED_ODD], ids=lambda f: f.value)
def test_potential_of_a_tiny_parameter_is_finite(family):
    # (x / 1e-300)^2 overflows and (x / 1e-150)^2 does not; the parameter's
    # term a/2 log1p((x/a)^2) is below 1e-140 at both, so the values agree
    x = np.array([0.3, 1.1, 2.5, 3.0, 4.2])
    tiny = potential(PotentialKind(family, ContinuousHahnParams(1e-300, 1.0)), x)
    small = potential(PotentialKind(family, ContinuousHahnParams(1e-150, 1.0)), x)
    assert tiny == pytest.approx(small, rel=1e-13)


def test_cli_verify_overflowed_residual_is_a_numerical_failure(tmp_path, capsys):
    # lambda_n = -n (n + 2a + 2b - 1) overflows: the residual used to read 0.0
    assert _run("verify", "1e308", tmp_path) == EXIT_NUMERICAL
    assert "PrecisionLoss" in capsys.readouterr().err


def test_cli_verify_overflowed_residual_raises_no_numpy_warning(tmp_path, capsys):
    # the overflow is reported once, as PrecisionLoss, not also as RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run("verify", "1e308", tmp_path) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure: PrecisionLoss")
    assert captured.err.count("\n") == 1


def test_exact_result_beyond_double_range_is_precision_loss():
    with pytest.raises(PrecisionLoss):
        monic_jacobi(5, JacobiParams(1e200, 0.5))


def test_diff_eq_residual_overflow_raises():
    # 400 non-roots: the separate products p(x_j + i) and p'(x_j) overflowed,
    # and max(0.0, nan) used to report a residual of 0.0. Their ratio stays
    # in range, so the non-roots must now be flagged by a finite residual
    # (products that do overflow raise: test_diff_eq_ratio.py)
    x = np.linspace(-300.0, 300.0, 400)
    poly = MonicPoly(np.r_[np.zeros(400), 1.0])
    res = diff_eq_residual(poly, x, Family.CH, ContinuousHahnParams(1.0, 1.0))
    assert np.isfinite(res) and res >= 1e-2


@pytest.mark.parametrize("a,b", [(1e308, 0.5), (1e200, 1e200)])
def test_diff_eq_residual_overflowed_scale_or_term_raises(a, b):
    # at the node 0.5 the true residual is (a + b) / |lambda_1| = 1/2. With
    # a = 1e308 lambda_1 overflows and |lhs| / inf read 0.0; with
    # a = b = 1e200 A(x) overflows, lhs is nan and max(0.0, nan) read 0.0
    poly = MonicPoly(np.array([-0.5, 1.0]))
    with np.errstate(all="ignore"), pytest.raises(PrecisionLoss):
        diff_eq_residual(poly, [0.5], Family.CH, ContinuousHahnParams(a, b))


def test_diff_eq_residual_huge_parameter_at_exact_roots():
    # the exact series has no working precision to run out of at a = 1e200
    p = ContinuousHahnParams(1e200, 1.0)
    poly = monic_continuous_hahn(5, p)
    roots = companion_roots(poly)
    assert diff_eq_residual(poly, roots, Family.CH, p) < 1e-10


@pytest.mark.parametrize(
    "residual,params,expected",
    [
        (bethe_residual_ch, ContinuousHahnParams(1e200, 1e200), 2e-200),
        (bethe_residual_w, WilsonParams(1e80, 1e80, 1e80, 1e80), 4e-80),
    ],
    ids=["ch", "wilson"],
)
def test_bethe_residual_huge_parameters_stay_finite(residual, params, expected):
    # A(+-x) overflows on its own, the quotient u/w does not: at the non-root
    # 0.5 each parameter factor is (0.5 + i e) / (-0.5 + i e) = 1 - i/e + ...,
    # so the residual is ~2/a for continuous Hahn and ~4/a for Wilson
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert residual([0.5], params) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_bethe_residual_non_finite_term_raises(bad):
    with np.errstate(all="ignore"):
        with pytest.raises(PrecisionLoss):
            bethe_residual_ch([0.0, bad], ContinuousHahnParams(1.0, 1.0))
        with pytest.raises(PrecisionLoss):
            bethe_residual_w([1.0, bad], WilsonParams(1.0, 1.0, 1.0, 1.0))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1/0"])
@pytest.mark.parametrize("command", ["roots", "flow", "rate"])
@pytest.mark.parametrize("family", ["ch", "jacobi"])
def test_cli_non_finite_start_is_a_validation_error(family, command, bad, tmp_path, capsys):
    # these used to run 40 step halvings into StepUnderflow (exit 3), or
    # escape as a ZeroDivisionError for 1/0
    params = ["--a", "1", "--b", "1"] if family == "ch" else ["--alpha", "1", "--beta", "1"]
    argv = [command, "--family", family, "--n", "2", *params, "--init", "custom",
            f"--x0={bad},0.5"]
    if command == "flow":
        argv += ["--output", str(tmp_path / "traj.csv")]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "must be finite" in err or "zero denominator" in err


@pytest.mark.parametrize("command", ["roots", "verify", "flow", "rate"])
def test_cli_zero_denominator_is_a_validation_error(command, tmp_path, capsys):
    assert _run(command, "1/0", tmp_path) == EXIT_VALIDATION
    assert "zero denominator" in capsys.readouterr().err


@pytest.mark.parametrize("bad", NON_FINITE)
def test_flow_and_newton_reject_non_finite_start(bad):
    for kind, x0 in (
        (PotentialKind(FlowFamily.CONTINUOUS_HAHN, ContinuousHahnParams(1.0, 1.0)), [bad, 1.0]),
        (PotentialKind(FlowFamily.JACOBI, JacobiParams(1.0, 1.0)), [bad, 0.5]),
    ):
        with pytest.raises(ValueError, match="finite"):
            integrate(kind, x0)
        with pytest.raises(ValueError, match="finite"):
            newton_solve(kind, x0)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_jacobi_domain_check_rejects_non_finite(bad):
    # np.diff(x) <= 0 and abs(x) >= 1 are both False for NaN, so the old
    # checks let it through
    x = np.array([bad, 0.5])
    assert not in_domain(x)
    p = JacobiParams(1.0, 1.0)
    with pytest.raises(DomainViolation):
        electrostatic_rhs(p, x)
    with pytest.raises(DomainViolation):
        potential(PotentialKind(FlowFamily.JACOBI, p), x)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("family,names", [("ch", "ab"), ("ch-even", "ab"), ("ch-odd", "ab"),
                                          ("wilson", "cd")])
@pytest.mark.parametrize("command", ["roots", "verify", "flow", "rate"])
def test_cli_overflowing_hessian_diagonal_is_a_validation_error(command, family, names,
                                                                tmp_path, capsys):
    # each 1 / Re a = 1e308 is finite, but the Hessian diagonal sums them to
    # 2e308; it used to overflow in the matmul and end in MaxIterations
    params = dict.fromkeys("abcd" if family == "wilson" else "ab", "1")
    params.update(dict.fromkeys(names, "1e-308"))
    argv = [command, "--family", family, "--n", "3"]
    argv += [f"--{k}={v}" for k, v in params.items()]
    if command == "flow":
        argv += ["--output", str(tmp_path / "traj.csv")]
    assert main(argv) == EXIT_VALIDATION
    terms = " + ".join(f"1/Re {k}" for k in params)
    assert capsys.readouterr() == ("", f"error: the real parts are too small: {terms} overflows\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_one_huge_reciprocal_still_solves(capsys):
    argv = ["roots", "--family", "ch", "--n", "3", "--a", "1e-308", "--b", "1"]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1] == "x[2] = 0.0000"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n,b", [(3, "1e-200"), (1, "1")])
def test_cli_kappa_bound_of_underflowing_squares_is_finite(n, b, tmp_path):
    # a^2 and R_n^2 underflow to 0 (R_n ~ 3e-190 at n = 3; R_n = 0 at n = 1),
    # while a / (a^2 + R_n^2) is finite; the division used to raise
    # ZeroDivisionError
    out = tmp_path / "r.json"
    argv = ["roots", "--family", "ch", "--n", str(n), "--a", "1e-200", "--b", b,
            "--output", str(out)]
    assert main(argv) == EXIT_OK
    kappa = json.loads(out.read_text())["kappa_bound"]
    assert np.isfinite(kappa) and kappa > 1e179


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha,beta", [("1e308", "1"), ("1", "1e308"), ("1e307", "1")])
@pytest.mark.parametrize("command", ["roots", "flow", "rate"])
def test_cli_huge_jacobi_parameter_is_a_validation_error(command, alpha, beta, tmp_path, capsys):
    # (alpha + 1)/2 / (1 - x)^2 <= (alpha + 1)/2 2^106 on the domain; the rhs
    # used to overflow in its dot product (1e308) or Newton to fail (1e307)
    argv = [command, "--family", "jacobi", "--n", "3", "--alpha", alpha, "--beta", beta]
    if command == "flow":
        argv += ["--output", str(tmp_path / "traj.csv")]
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr() == ("", (
        f"error: (alpha, beta) = ({float(alpha)}, {float(beta)}) is too large: "
        "(alpha + beta + 2) 2^106, a bound of the Hessian's diagonal, overflows\n"
    ))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha,beta", [("1e100", "1"), ("1", "1e200")])
def test_cli_large_jacobi_parameter_names_the_failed_line_search(alpha, beta, capsys):
    # a root within ~1/alpha of -1 or 1 is not a double: Newton cannot descend
    argv = ["roots", "--family", "jacobi", "--n", "3", "--alpha", alpha, "--beta", beta]
    assert main(argv) == EXIT_NUMERICAL
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(
        r"numerical failure: SingularHessian: damped Newton step failed to decrease the "
        r"potential at Newton iteration \d+ \(\|x\|_inf = \S+\)\n", err
    ), err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_jacobi_evaluator_is_finite_below_the_parameter_bound():
    # (alpha + beta + 2) 2^106 = (2^917 + 2) 2^106 < 2^1024 is accepted; the
    # boundary and the pair terms are at their largest at these nodes
    kind = PotentialKind(FlowFamily.JACOBI, JacobiParams(2.0**916, 2.0**916))
    for x in ([-1 + 2.0**-53, 0.0, 1 - 2.0**-53], [-(2.0**-499), 0.0, 2.0**-499]):
        x = np.array(x)
        ev = evaluator(kind, x.size)
        for out in (ev.rhs(x), ev.gradient(x), ev.hessian(x), ev.value(x)):
            assert np.all(np.isfinite(out))
    with pytest.raises(ParameterError, match="too large"):
        evaluator(PotentialKind(FlowFamily.JACOBI, JacobiParams(2.0**917, 2.0**917)), 3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x0", ["0,5e-324,0.5", "0,1e-300,0.5", "0,1e-160,0.5"])
@pytest.mark.parametrize("command", ["roots", "flow", "rate"])
def test_cli_jacobi_start_with_tiny_gaps_is_a_validation_error(command, x0, tmp_path, capsys):
    # 1 / gap^2 overflows: the gaps of the domain exceed 2^-500
    argv = [command, "--family", "jacobi", "--n", "3", "--alpha", "1", "--beta", "1",
            "--init", "custom", "--x0", x0]
    if command == "flow":
        argv += ["--output", str(tmp_path / "traj.csv")]
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr() == (
        "", "error: Jacobi initial conditions must be strictly increasing inside (-1, 1)\n"
    )
    assert not in_domain(np.array([float(v) for v in x0.split(",")]))
    assert in_domain(np.array([0.0, 2.0**-499, 0.5]))
