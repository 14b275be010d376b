import csv
import io
import json

import numpy as np
import pytest

from orthoflow import Family, PotentialKind, WilsonParams, kappa_bound
from orthoflow.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main, parse_number


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3", 3 + 0j),
        ("-2.5", -2.5 + 0j),
        ("17/3", complex(17.0 / 3.0)),
        ("1+1i", 1 + 1j),
        ("1-1i", 1 - 1j),
        ("0.5+0.25i", 0.5 + 0.25j),
        ("2i", 2j),
        ("-3/2+0.5i", -1.5 + 0.5j),
        ("1e-3+1e-2i", 0.001 + 0.01j),
    ],
)
def test_parse_number(text, expected):
    assert parse_number(text) == pytest.approx(expected)


def test_roots_stdout_matches_reference(capsys):
    code = main(["roots", "--family", "ch", "--n", "4", "--a", "1", "--b", "1"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("x[1] = ")
    vals = [float(line.split("=")[1]) for line in lines]
    assert vals == sorted(vals)
    assert vals == pytest.approx([-v for v in vals[::-1]], abs=1e-4)


def test_roots_json_output(tmp_path):
    out = tmp_path / "roots.json"
    code = main([
        "roots", "--family", "wilson", "--n", "2",
        "--a", "1", "--b", "1/2", "--c", "1+1i", "--d", "1-1i",
        "--output", str(out),
    ])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["n"] == 2
    assert len(payload["roots"]) == 2
    assert payload["kappa_bound"] > 0
    assert payload["hessian_min_eigenvalue"] > 0
    assert payload["params"]["c"] == {"re": 1.0, "im": 1.0}


def test_flow_csv_round_trip(tmp_path):
    out = tmp_path / "traj.csv"
    code = main([
        "flow", "--family", "ch", "--n", "3", "--a", "2", "--b", "1/2",
        "--t-max", "20", "--output", str(out),
    ])
    assert code == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x1", "x2", "x3"]
    data = np.array(rows[1:], dtype=float)
    # %.17g serialization round-trips doubles exactly
    assert data[0, 0] == 0.0
    assert np.all(np.diff(data[:, 0]) > 0)
    logerr = (tmp_path / "traj.logerr.csv")
    assert logerr.exists()
    with open(logerr, newline="") as fh:
        lrows = list(csv.reader(fh))
    assert lrows[0] == ["t", "log10err_1", "log10err_2", "log10err_3"]
    assert len(lrows) == len(rows)
    final = np.array(lrows[-1][1:], dtype=float)
    assert np.all(final < -6)


def test_flow_of_the_empty_configuration(tmp_path):
    path = tmp_path / "z.csv"
    code = main(["flow", "--family", "ch", "--n", "0", "--a", "1", "--b", "1",
                 "--output", str(path)])
    assert code == EXIT_OK
    assert path.read_text() == "t\n0\n"


def test_flow_requires_output(capsys):
    code = main(["flow", "--family", "ch", "--n", "2", "--a", "1", "--b", "1"])
    assert code == EXIT_VALIDATION


def test_verify_ok():
    code = main(["verify", "--family", "ch", "--n", "5", "--a", "2", "--b", "3/10"])
    assert code == EXIT_OK


def test_verify_rejects_degree_zero(capsys):
    code = main(["verify", "--family", "ch", "--n", "0", "--a", "1", "--b", "1"])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: verify needs n >= 1, got 0\n"


@pytest.mark.parametrize("n", [0, 3, 9])
def test_roots_csv_matches_json_roots(n, tmp_path):
    # n = 9 has a root that is signed roundoff around 0: the CSV, like the
    # JSON, keeps it unrounded
    argv = ["roots", "--family", "ch", "--n", str(n), "--a", "10", "--b", "3/10"]
    assert main(argv + ["--output", str(tmp_path / "r.json")]) == EXIT_OK
    assert main(argv + ["--format", "csv", "--output", str(tmp_path / "r.csv")]) == EXIT_OK
    roots = json.loads((tmp_path / "r.json").read_text())["roots"]
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["index", "root"])
    writer.writerows(enumerate(roots, 1))
    assert (tmp_path / "r.csv").read_bytes() == expected.getvalue().encode()


def test_verify_rejects_jacobi():
    code = main(["verify", "--family", "jacobi", "--n", "3", "--alpha", "0", "--beta", "0"])
    assert code == EXIT_VALIDATION


def test_rate_json_includes_symmetric_bound(capsys):
    code = main([
        "rate", "--family", "ch", "--n", "4", "--a", "2", "--b", "1",
        "--t-max", "12", "--step", "0.05",
    ])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["kappa_bound"] > 0
    assert len(payload["measured_slopes"]) == 4
    assert payload["kappa_bound_symmetric"] >= payload["kappa_bound"]
    assert min(payload["measured_slopes"]) > payload["kappa_bound"]


def test_rate_custom_window(capsys):
    code = main([
        "rate", "--family", "ch", "--n", "2", "--a", "1", "--b", "1",
        "--t-max", "10", "--window", "1", "6",
    ])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["fit_window"] == [1.0, 6.0]


def test_invalid_parameters_exit_code(capsys):
    # Re(a) <= 0 violates the admissible parameter domain
    code = main(["roots", "--family", "ch", "--n", "2", "--a", "-1", "--b", "1"])
    assert code == EXIT_VALIDATION
    assert "error" in capsys.readouterr().err


def test_missing_parameter_exit_code(capsys):
    code = main(["roots", "--family", "wilson", "--n", "2", "--a", "1", "--b", "1"])
    assert code == EXIT_VALIDATION


def test_jacobi_zeros_init_rejected(capsys):
    code = main([
        "roots", "--family", "jacobi", "--n", "3",
        "--alpha", "0", "--beta", "0", "--init", "zeros",
    ])
    assert code == EXIT_VALIDATION


def test_custom_init_with_repeat_syntax(capsys):
    code = main([
        "roots", "--family", "ch", "--n", "4", "--a", "1", "--b", "1",
        "--init", "custom", "--x0=-1,0x2,1",
    ])
    assert code == EXIT_OK


def test_custom_init_length_mismatch(capsys):
    code = main([
        "roots", "--family", "ch", "--n", "3", "--a", "1", "--b", "1",
        "--init", "custom", "--x0", "0,1",
    ])
    assert code == EXIT_VALIDATION


def test_precision_env_override(capsys, monkeypatch):
    monkeypatch.setenv("ORTHOFLOW_PRECISION", "7")
    code = main(["roots", "--family", "ch", "--n", "1", "--a", "1", "--b", "1"])
    assert code == EXIT_OK
    out = capsys.readouterr().out.strip()
    decimals = out.split("=")[1].strip().split(".")[1]
    assert len(decimals) == 7


def test_roots_zero_root_prints_without_a_sign(capsys):
    # the middle root of the symmetric configuration is roundoff around 0
    argv = ["roots", "--family", "ch", "--n", "9", "--a", "10", "--b", "3/10"]
    outs = []
    for init in ([], ["--init", "equispaced"]):
        assert main(argv + init) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[4] == "x[5] = 0.0000"


@pytest.mark.parametrize("argv,option", [
    (["roots", "--family", "jacobi", "--n", "3", "--alpha", "0.5"], ["--beta", "-1/3"]),
    (["roots", "--family", "jacobi", "--n", "3", "--beta", "0.5"], ["--alpha", "-1e-1"]),
    (["roots", "--family", "ch", "--n", "2", "--a", "1", "--b", "1", "--init", "custom"],
     ["--x0", "-0.5,0.5"]),
])
def test_negative_literal_after_an_option_is_its_value(argv, option, capsys):
    assert main(argv + ["=".join(option)]) == EXIT_OK
    joined = capsys.readouterr().out
    assert main(argv + option) == EXIT_OK
    assert capsys.readouterr().out == joined


def test_option_without_a_value_still_fails(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["roots", "--family", "ch", "--n", "2", "--a", "--b", "1"])
    assert exc.value.code == EXIT_VALIDATION
    assert "argument --a: expected one argument" in capsys.readouterr().err


def test_custom_init_repeat_count_checked_before_use(capsys):
    code = main([
        "roots", "--family", "ch", "--n", "3", "--a", "1", "--b", "1",
        "--init", "custom", "--x0=1x100000000000000000000",
    ])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: --x0 repeat count 100000000000000000000 is not in 0..3\n"


def test_verify_small_real_part_passes(capsys):
    # Re a = 1e-13: the Bethe identity used to raise SingularFactor on its
    # factor (i a - x_j), which cancels in the quotient of the two terms
    code = main(["verify", "--family", "ch", "--n", "7", "--a", "1e-13", "--b", "1"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_bethe_residual"] <= 1e-12
    assert payload["max_diff_eq_residual"] <= 1e-12


@pytest.mark.parametrize("n", [4, 6, 7])
@pytest.mark.parametrize("a,b", [("1e-13", "1"), ("1", "1e-13")])
def test_verify_small_real_part_in_either_order(a, b, n, capsys):
    code = main(["verify", "--family", "ch", "--n", str(n), "--a", a, "--b", b])
    assert code == EXIT_OK, capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["roots", "--family", "ch", "--n", "3", "--a", "1", "--b", "1", "--format", "csv"],
    ["roots", "--family", "ch", "--n", "3", "--a", "1", "--b", "1"],
    ["flow", "--family", "ch", "--n", "3", "--a", "1", "--b", "1", "--t-max", "5"],
    ["verify", "--family", "ch", "--n", "3", "--a", "1", "--b", "1"],
    ["rate", "--family", "ch", "--n", "8", "--a", "1", "--b", "1"],
])
def test_unwritable_output_exits_2_with_a_message(argv, tmp_path, capsys):
    path = str(tmp_path / "missing" / "out.csv")
    assert main(argv + ["--output", path]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == f"error: cannot write {path}: No such file or directory\n"


@pytest.mark.parametrize("argv", [
    ["roots", "--grad-tol", "nan"],
    ["roots", "--grad-tol", "inf"],
    ["roots", "--precision", "-1"],
    ["flow", "--grad-tol", "nan", "--output", "unused.csv"],
    ["rate", "--t-max", "inf"],
])
def test_non_finite_or_negative_options_exit_2(argv, capsys):
    code = main(argv[:1] + ["--family", "ch", "--n", "3", "--a", "1", "--b", "1"] + argv[1:])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")


def test_negative_precision_has_its_own_message(capsys):
    code = main(["roots", "--family", "ch", "--n", "3", "--a", "1", "--b", "1", "--precision", "-1"])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: the precision must be nonnegative, got -1\n"


def test_verify_fails_on_a_negative_hessian_eigenvalue(capsys):
    # a = 1e-100 puts ~1e100 on the Hessian's diagonal; its smallest computed
    # eigenvalue is roundoff of that size, and negative
    code = main(["verify", "--family", "ch", "--n", "5", "--a", "1e-100", "--b", "1"])
    assert code == EXIT_NUMERICAL
    out, err = capsys.readouterr()
    assert json.loads(out)["hessian_min_eigenvalue"] < 0
    assert err.startswith("verification failed: hessian_min_eigenvalue = -")
    assert err.endswith(" is not positive\n")


def test_verify_odd_degree_half_degree_oracle(capsys):
    code = main(["verify", "--family", "ch", "--n", "41", "--a", "1", "--b", "1"])
    assert code == EXIT_OK, capsys.readouterr().err


@pytest.mark.parametrize("x0", ["5,6,7", "0,1"])
@pytest.mark.parametrize("init", [None, "zeros", "equispaced"])
@pytest.mark.parametrize("command", ["roots", "flow", "rate"])
def test_x0_requires_custom_init(command, init, x0, tmp_path, capsys):
    # an --x0 that no --init custom asks for used to be ignored silently
    argv = [command, "--family", "ch", "--n", "3", "--a", "1", "--b", "1", "--x0", x0]
    argv += ["--init", init] if init else []
    out = tmp_path / "traj.csv"
    if command == "flow":
        argv += ["--output", str(out)]
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr() == ("", "error: --x0 requires --init custom\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["roots", "flow", "rate"])
def test_custom_init_requires_x0(command, tmp_path, capsys):
    argv = [command, "--family", "ch", "--n", "3", "--a", "1", "--b", "1", "--init", "custom"]
    if command == "flow":
        argv += ["--output", str(tmp_path / "traj.csv")]
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: --init custom requires --x0\n"


def test_zeros_init_is_the_default_start(tmp_path, capsys):
    argv = ["roots", "--family", "ch", "--n", "6", "--a", "2", "--b", "3/10"]
    outs = []
    for init in ([], ["--init", "zeros"]):
        path = tmp_path / f"r{len(init)}.json"
        assert main(argv + init + ["--output", str(path)]) == EXIT_OK
        outs.append((capsys.readouterr().out, path.read_bytes()))
    assert outs[0] == outs[1]


def test_jacobi_zeros_init_at_one_root_is_in_the_domain(capsys):
    # (0) is a strictly increasing configuration inside (-1, 1)
    argv = ["roots", "--family", "jacobi", "--n", "1", "--alpha", "1/2", "--beta", "1/2"]
    outs = []
    for init in (["--init", "zeros"], ["--init", "custom", "--x0", "0"]):
        assert main(argv + init) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs == ["x[1] = 0.0000\n"] * 2


def test_jacobi_zeros_init_leaves_the_domain(capsys):
    argv = ["roots", "--family", "jacobi", "--n", "3", "--alpha", "0", "--beta", "0",
            "--init", "zeros"]
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: Jacobi initial conditions must be strictly increasing inside (-1, 1)\n"
    )


@pytest.mark.parametrize("command", ["roots", "flow", "verify", "rate"])
def test_negative_degree_exits_2(command, capsys):
    code = main([command, "--family", "ch", "--n", "-1", "--a", "1", "--b", "1"])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: n must be nonnegative\n"


def test_flow_without_output_names_the_option(capsys):
    code = main(["flow", "--family", "ch", "--n", "2", "--a", "1", "--b", "1"])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr() == ("", "error: flow requires --output\n")


def test_rate_symmetric_bound_is_the_reduced_wilson_bound(capsys):
    # the parity-symmetric bound is the Wilson bound of the reduced system at
    # degree n // 2 with (c, d) = (1/2, 0); at odd n the middle coordinate
    # starts at its root, 0, and leaves no decay to fit
    for n in (4, 6):
        code = main(["rate", "--family", "ch", "--n", str(n), "--a", "2", "--b", "1",
                     "--t-max", "12"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        p = WilsonParams(2.0, 1.0, 0.5, 0.0, allow_boundary=True)
        wilson = PotentialKind(Family.WILSON, p)
        assert payload["kappa_bound_symmetric"] == kappa_bound(wilson, n // 2, payload["R_n"])
