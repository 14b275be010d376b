"""The family registry is total, and the CLI takes exactly the flags and
parameters it honours."""

import json

import pytest

from orthoflow import (
    ContinuousHahnParams,
    Family,
    JacobiParams,
    PotentialKind,
    WilsonParams,
    kappa_bound,
)
from orthoflow.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main

#: sample parameters of each record: values and the same values as CLI literals
SAMPLES = {
    ContinuousHahnParams: ((1.0, 0.5), ("1", "1/2")),
    WilsonParams: ((1.0, 0.5, 1 + 1j, 1 - 1j), ("1", "1/2", "1+1i", "1-1i")),
    JacobiParams: ((0.5, -0.3), ("1/2", "-3/10")),
}


def _param_flags(family):
    literals = SAMPLES[family.params_type][1]
    return [f"--{k}={v}" for k, v in zip(family.param_names, literals)]


def _roots_json(family, n, tmp_path):
    out = tmp_path / "roots.json"
    argv = ["roots", "--family", family.value, "--n", str(n), *_param_flags(family),
            "--output", str(out)]
    return main(argv), out


def test_registry_has_five_families_and_an_alias():
    assert [f.value for f in Family] == ["ch", "wilson", "jacobi", "ch-even", "ch-odd"]
    assert Family.CH is Family.CONTINUOUS_HAHN


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_registry_is_total(family, tmp_path, capsys):
    values = SAMPLES[family.params_type][0]
    kind = PotentialKind(family, family.params_type(*values))
    assert kappa_bound(kind, 3, 1.0) > 0

    code, out = _roots_json(family, 3, tmp_path)
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert list(payload["params"]) == list(family.param_names)
    assert payload["kappa_bound"] > 0


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_roots_json_at_degree_zero(family, tmp_path, capsys):
    code, out = _roots_json(family, 0, tmp_path)
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["roots"] == []
    assert payload["kappa_bound"] is None
    assert payload["hessian_min_eigenvalue"] is None


CH = ["--family", "ch", "--n", "2", "--a", "1", "--b", "1"]


@pytest.mark.parametrize("command,flags", [
    ("roots", ["--window", "1", "2"]),
    ("flow", ["--window", "1", "2"]),
    ("verify", ["--window", "1", "2"]),
    ("flow", ["--format", "csv"]),
    ("verify", ["--format", "json"]),
    ("rate", ["--format", "json"]),
    ("flow", ["--precision", "6"]),
    ("verify", ["--precision", "6"]),
    ("rate", ["--precision", "6"]),
    ("verify", ["--init", "zeros"]),
    ("verify", ["--x0", "0,1"]),
    ("verify", ["--step", "0.1"]),
    ("verify", ["--t-max", "5"]),
    ("verify", ["--grad-tol", "1e-8"]),
    ("roots", ["--step", "0.1"]),
    ("roots", ["--t-max", "5"]),
])
def test_unhonoured_flag_is_rejected(command, flags, tmp_path, capsys):
    argv = [command, *CH, *flags, "--output", str(tmp_path / "out.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flags[0]}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command,family,flag", [
    ("roots", Family.CONTINUOUS_HAHN, "--alpha=3"),
    ("roots", Family.CONTINUOUS_HAHN, "--c=1"),
    ("rate", Family.REDUCED_EVEN, "--d=1"),
    ("verify", Family.WILSON, "--beta=0"),
    ("flow", Family.JACOBI, "--a=1"),
])
def test_foreign_family_parameter_is_rejected(command, family, flag, tmp_path, capsys):
    argv = [command, "--family", family.value, "--n", "2", *_param_flags(family), flag,
            "--output", str(tmp_path / "out.csv")]
    assert main(argv) == EXIT_VALIDATION
    name = flag.split("=")[0]
    assert f"error: family {family.value} takes no {name}" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("n,message", [
    (0, "n must be at least 1"),
])
def test_rate_without_samples_is_a_plain_validation_error(n, message, capsys):
    assert main(["rate", "--family", "ch", "--n", str(n), "--a", "1", "--b", "1"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert message in err
    assert "np.float64" not in err


@pytest.mark.parametrize("window", [[], ["--window", "0", "1"]], ids=["default", "window"])
def test_rate_whose_flow_records_no_step_is_a_numerical_failure(window, capsys):
    # a = b: the flow starts at its equilibrium 0 and records no step
    argv = ["rate", "--family", "ch", "--n", "1", "--a", "1", "--b", "1", *window]
    assert main(argv) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "InsufficientSamples: the flow recorded no step" in err
    assert "Traceback" not in err
