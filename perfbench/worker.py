"""One workload run in a fresh interpreter, started by ``run.py``.

Sets the workload up, runs the closed op loop for the given time, checks
every op outside its timed interval and prints one JSON line: the per-op
records, peak memory, the environment and, for traced runs, the per-layer
metrics. Spans are kept in memory and written to ``perfbench/out`` at the end.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from run import OUT, ROOT, time_command
import tracing
from tracing import NullTracer, Tracer

LAYER_METRICS = {
    "polynomials.calls": "count/op",
    "polynomials.busy_ms": "ms/op",
    "polynomials.share": "1",
    "oracle.companion_ms": "ms",
    "oracle.companion_failed": "1",
    "oracle.bethe_ms": "ms",
    "oracle.diffeq_ms": "ms",
    "oracle.share": "1",
    "oracle.full_verify_ms": "ms",
    "oracle.min_eigenvalue_ms": "ms",
    "flow.integrate_ms": "ms",
    "flow.newton_ms": "ms",
    "flow.steps": "count",
    "flow.share": "1",
    "potentials.gradient_us": "us",
    "potentials.potential_us": "us",
    "potentials.hessian_us": "us",
    "jacobi_baseline.rhs_us": "us",
    "rates.measure_decay_ms": "ms",
    "rates.failed": "1",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.roots_ms": "ms",
    "cli.verify_ms": "ms",
    "cli.flow_ms": "ms",
    "cli.rate_ms": "ms",
    "cli.bytes_written": "B/op",
    "trace.overhead_frac": "1",
}
PROBE_SAMPLES = 5


def run_op(wl, ops, i: int, tr, tracebacks: list) -> list:
    """Run op i of the cycled pool, timed; check it and, if traced, probe
    its layers, both untimed. Returns [latency_s, failure class or None,
    label, n]."""
    from orthoflow import OrthoflowError

    idx = i % len(ops)
    op = ops[idx]
    tr.op = i
    out, err = None, None
    t0 = time.perf_counter()
    try:
        with tr.span("op"):
            out = wl.run(op, tr)
    except OrthoflowError as exc:
        err = "exc:" + type(exc).__name__
    except Exception as exc:  # an op boundary: record, count, keep running
        err = "exc:" + type(exc).__name__
        tracebacks.append(traceback.format_exc())
    latency = time.perf_counter() - t0
    tr.op = None
    if out is not None:
        try:
            err = wl.check(idx, op, out)
        except Exception as exc:  # malformed output counts as a failed op
            err = "check:" + type(exc).__name__
            tracebacks.append(traceback.format_exc())
        if tr.enabled:
            wl.probe(op, out, tr)
    return [latency, err, op.get("request", op["family"]), op["n"]]


def op_loop(wl, ops, seconds: float, tr, tracebacks: list) -> list:
    """Run ops in pool order, cycling, until ``seconds`` have passed and the
    current block of ops is complete, so every run has the same op mix."""
    records = []
    deadline = time.perf_counter() + seconds
    while not records or len(records) % wl.block or time.perf_counter() < deadline:
        records.append(run_op(wl, ops, len(records), tr, tracebacks))
    return records


def paired_loop(wl, ops, seconds: float, tr, tracebacks: list) -> tuple[list, list]:
    """Run each block of ops twice, untraced and traced, until ``seconds``
    have passed. Pairing cancels machine drift; alternating which side runs
    first cancels the gain of running an op a second time."""
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        block = range(len(traced), len(traced) + wl.block)
        sides = [(untraced, NullTracer()), (traced, tr)]
        for records, tracer in sides[:: 1 if len(traced) // wl.block % 2 == 0 else -1]:
            records += [run_op(wl, ops, i, tracer, tracebacks) for i in block]
    return untraced, traced


def _median_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def _per_call_us(spans, prefix: str) -> float:
    vals = [s.duration / int(s.name.rsplit(".x", 1)[1]) for s in spans if s.name.startswith(prefix)]
    return statistics.median(vals) * 1e6 if vals else 0.0


def layer_metrics(tr: Tracer, traced: list, untraced: list) -> dict:
    spans = tr.spans
    op_spans = [s for s in spans if s.op is not None]
    n_ops = sum(1 for s in op_spans if s.name == "op")
    op_time = sum(s.duration for s in op_spans if s.name == "op")
    self_by_layer = tracing.layer_self_time(op_spans)
    counts = tr.counts

    def share(layer):
        return self_by_layer.get(layer, 0.0) / op_time if op_time else 0.0

    def ratio(num, den):
        return counts.get(num, 0.0) / counts[den] if counts.get(den) else 0.0

    def dur(name):
        return tracing.durations(spans, name)

    base = sum(r[0] for r in untraced)
    interp = [time_command("pass") for _ in range(PROBE_SAMPLES)]
    imports = [time_command("import orthoflow.cli") for _ in range(PROBE_SAMPLES)]
    values = {
        "polynomials.calls": sum(1 for s in op_spans if s.layer == "polynomials") / max(n_ops, 1),
        "polynomials.busy_ms": self_by_layer.get("polynomials", 0.0) * 1e3 / max(n_ops, 1),
        "polynomials.share": share("polynomials"),
        "oracle.companion_ms": _median_ms(dur("oracle.companion")),
        "oracle.companion_failed": ratio("oracle.companion_failed", "oracle.companion_calls"),
        "oracle.bethe_ms": _median_ms(dur("oracle.bethe")),
        "oracle.diffeq_ms": _median_ms(dur("oracle.diffeq")),
        "oracle.share": share("oracle"),
        "oracle.full_verify_ms": _median_ms(dur("oracle.full_verify")),
        "oracle.min_eigenvalue_ms": _median_ms(dur("oracle.min_eigenvalue")),
        "flow.integrate_ms": _median_ms(dur("flow.integrate")),
        "flow.newton_ms": _median_ms(dur("flow.newton")),
        "flow.steps": counts.get("flow.steps", 0.0) / max(len(dur("flow.integrate")), 1),
        "flow.share": share("flow"),
        "potentials.gradient_us": _per_call_us(spans, "potentials.gradient"),
        "potentials.potential_us": _per_call_us(spans, "potentials.potential"),
        "potentials.hessian_us": _per_call_us(spans, "potentials.hessian"),
        "jacobi_baseline.rhs_us": _per_call_us(spans, "jacobi_baseline.rhs"),
        "rates.measure_decay_ms": _median_ms(dur("rates.measure_decay")),
        "rates.failed": ratio("rates.failed", "rates.calls"),
        "cli.interpreter_ms": statistics.median(interp) * 1e3,
        "cli.import_ms": (statistics.median(imports) - statistics.median(interp)) * 1e3,
        "cli.roots_ms": _median_ms(dur("cli.roots")),
        "cli.verify_ms": _median_ms(dur("cli.verify")),
        "cli.flow_ms": _median_ms(dur("cli.flow")),
        "cli.rate_ms": _median_ms(dur("cli.rate")),
        "cli.bytes_written": counts.get("cli.bytes_written", 0.0) / max(n_ops, 1),
        "trace.overhead_frac": sum(r[0] for r in traced) / base - 1.0,
    }
    return {k: {"value": v, "unit": LAYER_METRICS[k]} for k, v in values.items()}


def environment(seed: int, seconds: float) -> dict:
    import mpmath
    import numpy as np

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs between numpy versions
        blas = "unknown"
    blas_threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None and blas_threads is None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                blas_threads = fn()
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "orthoflow")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "seconds": seconds,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import workloads

    cls = workloads.WORKLOADS[args.workload]
    tmpdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    wl = cls(ROOT, tmpdir) if cls is workloads.Cli else cls()
    ops = cls.make_ops(args.seed)
    wl.setup(ops)
    ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    os.makedirs(tmpdir, exist_ok=True)
    tracebacks: list = []
    try:
        if args.trace:
            tr = Tracer()
            untraced, traced = paired_loop(wl, ops, args.seconds, tr, tracebacks)
            records = untraced + traced
        else:
            records = op_loop(wl, ops, args.seconds, NullTracer(), tracebacks)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    who = resource.RUSAGE_CHILDREN if cls is workloads.Cli else resource.RUSAGE_SELF
    result = {
        "ready": ready,
        "records": records,
        "peak_rss_mib": resource.getrusage(who).ru_maxrss / 1024.0,
        "env": environment(args.seed, args.seconds),
        "tracebacks": tracebacks,
    }
    if args.trace:
        result["layers"] = layer_metrics(tr, traced, untraced)
        with open(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"spans": tracing.to_json(tr.spans), "counts": tr.counts}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
