"""Non-finite parameters are rejected, and overflow never passes silently."""

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
from orthoflow.jacobi_baseline import in_domain
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


def _run(command, a, tmp_path):
    argv = [command, "--family", "ch", "--n", "5", f"--a={a}", "--b", "1"]
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
