"""The experiment scripts run end to end against the package."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_reproduce_root_tables_runs():
    proc = _run("reproduce_root_tables.py")
    assert proc.returncode == 0, proc.stderr
    assert "kappa bound" in proc.stdout


def test_run_decay_experiment_writes_logerr_files(tmp_path):
    proc = _run("run_decay_experiment.py", "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    names = ("ch30_zeros", "ch30_all3", "w15_zeros", "ch29_odd", "ch30_even")
    for name in names:
        path = tmp_path / f"{name}.logerr.csv"
        assert path.exists()
        assert path.read_text().startswith("t,log10err_1,")
