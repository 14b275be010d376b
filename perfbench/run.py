"""orthoflow benchmark: seeded workloads, end-to-end metrics, traced layers.

Run from the root of a source checkout (the package is used from ``src``,
it need not be installed)::

    python3 perfbench/run.py --workload oracle-sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30   # every workload

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones:

- ``setup_s``: fresh interpreter to first timed op (import, seeded inputs,
  reference roots, one warm-up op), median over several fresh interpreters;
  for ``cli`` a fresh ``import orthoflow.cli``.
- ``throughput_ops_s``: completed ops per second of timed op time.
- ``latency_p50_ms`` / ``latency_p90_ms``: wall time per attempted op.
- ``peak_rss_mib``: peak resident memory of the workload process (for
  ``cli`` the largest child).

With ``--trace 1`` half the run is untraced and half traced, and the
metrics are the per-layer ones (see ``layer_metrics`` in ``worker.py``).

The load is a closed loop: one caller in one worker process, the next op
starts when the previous one has returned. Each op is checked by an oracle
outside its timed interval, and a failing check is recorded, never fatal.
An op whose failure matches a rule of ``ledger.json`` (a known defect of the
program at the seed commit, such as the companion oracle's loss of accuracy
at high degree) has run to completion and exposed that defect: it is counted
as a known-defect op, by request type, degree band and class, in the run's
details and in the traced run's ``ops.known_defect_frac``. Any other failure
is counted in ``failed`` and makes ``correct`` false.

Per-run details (environment, failures by request type and class, layer
numbers, spans) are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("oracle-sweep", "trajectory", "cli")
#: fresh interpreters timed per run for setup_s (the worker's own set-up is
#: one), half before and half after the measured run: the speed of a shared
#: host drifts over seconds, so samples taken back to back share one phase of it
SETUP_SAMPLES = 7
#: wall-clock allowance for a worker beyond its measuring time
GRACE_S = 120

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def worker_argv(workload: str, seed: int, seconds: float, trace: int, setup_only=False):
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return argv + (["--setup-only"] if setup_only else [])


def run_worker(argv, timeout: float) -> tuple[float, dict]:
    """Start a worker; return (spawn-to-ready seconds, its result)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    # perf_counter is CLOCK_MONOTONIC, shared by every process on the machine
    return result["ready"] - t0, result


def time_command(code: str) -> float:
    """Wall time of a fresh interpreter running ``code``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True)
    return time.perf_counter() - t0


def classify(records, ledger_rules) -> tuple[dict, list]:
    """Failures by request type and degree band of 8, then class; and the
    failures no ledger rule expects."""
    by_type: dict = {}
    unexpected = []
    for lat, err, label, n in records:
        if err is None:
            continue
        band = (n - 1) // 8 * 8 + 1
        classes = by_type.setdefault(label, {}).setdefault(f"n{band}-{band + 7}", {})
        classes[err] = classes.get(err, 0) + 1
        expected = any(
            label in rule["labels"] and n >= rule.get("min_n", 0) and err in rule["classes"]
            and n % 2 == {"odd": 1, "even": 0}.get(rule.get("parity"), n % 2)
            for rule in ledger_rules
        )
        if not expected:
            unexpected.append({"label": label, "n": n, "class": err})
    return by_type, unexpected


def end_to_end(records, failed, setup_samples, peak_rss_mib) -> dict:
    lat_ms = [r[0] * 1e3 for r in records]
    q = statistics.quantiles(lat_ms, n=10, method="inclusive") if len(lat_ms) > 1 else lat_ms * 9
    values = {
        "setup_s": statistics.median(setup_samples),
        "throughput_ops_s": (len(records) - failed) / (sum(lat_ms) / 1e3),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": q[8],
        "peak_rss_mib": peak_rss_mib,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    with open(os.path.join(HERE, "ledger.json"), encoding="utf-8") as fh:
        rules = json.load(fh)["rules"][workload]
    timeout = seconds + GRACE_S
    if workload == "cli":
        def set_up():
            return time_command("import orthoflow.cli")
    else:
        def set_up():
            return run_worker(worker_argv(workload, seed, seconds, trace, setup_only=True),
                              timeout)[0]
    setup = [set_up() for _ in range(SETUP_SAMPLES // 2)]
    ready, result = run_worker(worker_argv(workload, seed, seconds, trace), timeout)
    if workload != "cli":
        setup.append(ready)
    while len(setup) < SETUP_SAMPLES:
        setup.append(set_up())
    records = result["records"]
    by_type, unexpected = classify(records, rules)
    failed = len(unexpected)
    known_defect = sum(1 for r in records if r[1] is not None) - failed
    if trace:
        metrics = result["layers"]
        metrics["ops.known_defect_frac"] = {"value": known_defect / len(records), "unit": "1"}
    else:
        metrics = end_to_end(records, failed, setup, result["peak_rss_mib"])
    by_label: dict = {}
    for lat, _, label, _ in records:
        by_label.setdefault(label, []).append(lat * 1e3)
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": result["env"], "attempted": len(records), "failed": failed,
        "known_defect": known_defect,
        "latency_p50_ms_by_type": {k: [statistics.median(v), len(v)] for k, v in by_label.items()},
        "failures_by_type": by_type, "unexpected_failures": unexpected,
        "tracebacks": result["tracebacks"], "setup_samples_s": setup, "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    return detail


def print_table(detail: dict) -> None:
    print(f"== {detail['workload']} seed={detail['seed']} seconds={detail['seconds']} "
          f"trace={detail['trace']}: {detail['attempted']} ops, {detail['failed']} failed, "
          f"{detail['known_defect']} known-defect")
    for name, m in detail["metrics"].items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    for label, classes in sorted(detail["failures_by_type"].items()):
        print(f"  failures {label}: {classes}")
    for item in detail["unexpected_failures"][:20]:
        print(f"  UNEXPECTED failure: {item}")
    for tb in detail["tracebacks"][:3]:
        print(tb, file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "orthoflow", "__init__.py")):
        print(f"error: no orthoflow sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    details = [run_workload(w, args.seed, args.seconds, args.trace) for w in workloads]
    for detail in details:
        print_table(detail)
    print("env: " + json.dumps(details[0]["env"]))
    summary = {
        "correct": all(not d["unexpected_failures"] for d in details),
        "attempted": sum(d["attempted"] for d in details),
        "failed": sum(d["failed"] for d in details),
        "metrics": details[0]["metrics"] if len(details) == 1 else
        {f"{d['workload']}.{k}": v for d in details for k, v in d["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
