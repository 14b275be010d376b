"""A parameter width so small that x / alpha overflows the Morse table:
arctan(+-inf) = +-pi/2 and the Lorentzian 0 are the exact limits, and the
value takes log1p(arg^2) of an infinite entry from x itself."""

import mpmath as mp
import numpy as np
import pytest

from orthoflow import FlowFamily, PotentialKind, WilsonParams, potential
from orthoflow.cli import EXIT_OK, main

WIDTH = ["--family", "wilson", "--n", "3", "--a", "1", "--b", "1", "--c", "1e-308", "--d", "1"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["roots", "verify", "flow", "rate"])
def test_cli_solves_past_an_overflowing_table(command, tmp_path, capsys):
    # x_j / 1e-308 overflows for |x_j| > 1.8; it used to warn `overflow
    # encountered in dot`, a traceback under -W error::RuntimeWarning
    argv = [command, *WIDTH]
    if command == "flow":
        argv += ["--output", str(tmp_path / "f.csv")]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""


def _ref_value(x, params):
    """The Wilson potential in 50-digit arithmetic, term by term."""
    with mp.workdps(50):
        x = [mp.mpf(v) for v in x]

        def A(u, a):
            a = mp.mpf(a)
            return u * mp.atan(u / a) - a / 2 * mp.log(1 + (u / a) ** 2)

        def F(u):
            return u * mp.atan(u) - mp.log(1 + u * u) / 2

        v = sum(A(u, a) for u in x for a in params)
        v += sum(F(x[j] - x[k]) + F(x[j] + x[k])
                 for j in range(len(x)) for k in range(j + 1, len(x)))
        v -= mp.pi * sum((j + 1) * u for j, u in enumerate(x))
        return float(v)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("width", [1e-308, 1e-300, 1e-200])
def test_value_past_an_overflowing_table_matches_mpmath(width):
    params = (1.0, 1.0, width, 1.0)
    kind = PotentialKind(FlowFamily.WILSON, WilsonParams(*params))
    for x in ([0.4, 1.2, 2.2], [3.0, 1e100, 2e200]):
        ref = _ref_value(x, params)
        assert abs(potential(kind, np.array(x)) - ref) <= 1e-12 * max(1.0, abs(ref))
