"""Pipeline benchmark for so3harmonics: one workload per invocation.

Usage (from the repository root):

    python3 perfbench/run.py --workload train_sphere --seed 1 --seconds 10 --trace 0

``--trace 0`` measures with no tracing and prints the end-to-end metrics;
``--trace 1`` wraps every library layer, runs each timed phase once
untraced and once traced, and prints the per-layer metrics together with
the tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it (``perfbench-info ...``) carries the environment, the
workload-specific metrics, the failure kinds and the check results.

The library is imported from ``src/`` of the current directory, never from
an installed copy.  Without it the command exits with status 2.
"""

from __future__ import annotations

import argparse
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD_TIMEOUT_S = 150
# setup_s is the median of this many cold set-ups, each in a fresh process
# except the one the measured run itself uses.
SETUP_SAMPLES = 3
TRACE_SLICES = 4
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "samples_per_s": "1/s",
                    "latency_ms_p50": "ms", "latency_ms_p90": "ms"}
INFO_UNITS = {"train_samples_per_s": "1/s", "train_final_loss": "1",
              "train_loss_before": "1", "train_loss_after": "1",
              "default_lr_loss_after": "1", "default_lr_loss_decreases": "bool",
              "decode_samples_per_s": "1/s", "decode_latency_ms_p50": "ms",
              "decode_latency_ms_p90": "ms", "decode_latency_samples": "count",
              "decode_median_error_deg": "deg", "refine_samples_per_s": "1/s",
              "refine_median_error_deg": "deg", "latency_samples": "count",
              "failed_op_share": "ratio"}


def die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library() -> None:
    """Put ``src/`` first on the path and import the library from it."""
    if not os.path.isfile(os.path.join(SRC, "so3harmonics", "__init__.py")):
        die(f"no so3harmonics sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import so3harmonics
    if not os.path.abspath(so3harmonics.__file__).startswith(SRC + os.sep):
        die("so3harmonics was not imported from src/")


def environment() -> dict:
    import numpy
    from so3harmonics import _kernels

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name") + " " + str(deps[k].get("version"))
                for k in ("blas", "lapack")}
    except (TypeError, KeyError, AttributeError):
        blas = {"blas": "unknown", "lapack": "unknown"}
    threads = {v: os.environ[v] for v in BLAS_THREAD_VARS if v in os.environ}
    nproc = len(os.sched_getaffinity(0))
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    timeout=30, capture_output=True,
                                    text=True).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    package = os.path.join(SRC, "so3harmonics")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, **blas,
            "blas_threads": threads or f"default = nproc ({nproc})",
            "kernel_backend": _kernels.BACKEND, "git_commit": commit,
            "src_sha256": digest.hexdigest()[:16], "machine": platform.machine()}


def child(role: str, args, workdir: str) -> dict:
    """Run this script in a fresh process and return its JSON line."""
    cmd = [sys.executable, os.path.abspath(__file__), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--workdir", workdir]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        die(f"{role} process failed with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args, wl, workdir: str):
    """Set up and run the workload in this process; returns results."""
    import workloads
    from layers import per_layer_metrics
    from tracer import Tracer

    outcome = workloads.Outcome()
    tracer = None
    if args.trace:
        tracer = Tracer(f"{wl.name}-{args.seed}-{os.getpid()}-{time.time_ns()}")
        tracer.install()
    start = time.perf_counter()
    state = wl.setup(args.seed, workdir)
    setup_s = time.perf_counter() - start
    per_layer = None
    if tracer is None:
        wl.run(state, args.seconds, outcome, workloads.no_phase)
    else:
        # Untraced and traced slices alternate, half the budget each, so the
        # overhead is measured in this process on warm caches and drift in
        # machine speed hits both sides alike.
        tracer.uninstall()
        untraced = workloads.Outcome()
        for _ in range(TRACE_SLICES):
            wl.run(state, args.seconds / (2 * TRACE_SLICES), untraced,
                   workloads.no_phase)
            tracer.install()
            try:
                wl.run(state, args.seconds / (2 * TRACE_SLICES), outcome,
                       lambda name: tracer.span("phase." + name))
            finally:
                tracer.uninstall()
        outcome.attempted += untraced.attempted
        for kind, count in untraced.failures.items():
            outcome.fail(kind, count)
        overhead = trace_overhead(untraced.phase_ops, outcome.phase_ops)
        per_layer = per_layer_metrics(tracer, overhead)
        tracer.write(os.path.join(WORK, f"trace-{wl.name}-seed{args.seed}.jsonl"))
    wl.finish(state, outcome)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return outcome, setup_s, peak_mb, per_layer


def trace_overhead(untraced: dict, traced: dict) -> float:
    """Percent slowdown of the median operation, weighted by phase time."""
    total = weighted = 0.0
    for phase, times in traced.items():
        base = statistics.median(untraced[phase])
        weight = sum(times)
        weighted += weight * (statistics.median(times) / base - 1.0)
        total += weight
    return 100.0 * weighted / total


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main_run(args, wl) -> int:
    from layers import UNITS

    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{wl.name}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if wl.prep is not None:
            child("prep", args, workdir)
        outcome, setup_s, peak_mb, per_layer = measure(args, wl, workdir)
        setups = [setup_s]
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(child("setup", args, workdir)["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = outcome.values
    values["failed_op_share"] = outcome.failed / max(outcome.attempted, 1)
    if args.trace:
        metrics = {name: metric(v, UNITS[name]) for name, v in per_layer.items()}
    else:
        values.update(setup_s=statistics.median(setups), peak_rss_mb=peak_mb)
        metrics = {name: metric(values[name], unit)
                   for name, unit in END_TO_END_UNITS.items()}
    info = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment(),
            "values": {k: metric(v, INFO_UNITS.get(k) or END_TO_END_UNITS[k])
                       for k, v in sorted(values.items())},
            "setup_samples_s": setups, "phase_ops": {
                p: len(t) for p, t in outcome.phase_ops.items()},
            "attempted": outcome.attempted, "failures": outcome.failures,
            "checks": outcome.checks}
    print("perfbench-info " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": all(outcome.checks.values()),
                      "attempted": outcome.attempted, "failed": outcome.failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "prep", "setup"), default="main",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", default="", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    if args.role == "prep":
        wl.prep(args.seed, args.workdir)
        print(json.dumps({"prep": "done"}))
        return 0
    if args.role == "setup":
        start = time.perf_counter()
        wl.setup(args.seed, args.workdir)
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0
    return main_run(args, wl)


if __name__ == "__main__":
    sys.exit(main())
