"""Run every workload three ways and write one report.

For each workload: the measured run (default BLAS threads), an
informational run with ``OPENBLAS_NUM_THREADS=1`` set only in that child's
environment (the single-thread baseline; not gated), and the traced run.

Usage (from the repository root):

    python3 perfbench/report.py --seed 1 --seconds 10 [--out PATH]

The report goes to ``.perfbench_work/BENCH_pipeline.json`` by default.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("train_sphere", "train_image", "pose_decode")
RUN_TIMEOUT_S = 600


def run_once(workload: str, seed: int, seconds: float, trace: int,
             env: dict | None = None) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"report: {workload} trace={trace} failed")
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2].split(" ", 1)[1])
    return {"result": json.loads(lines[-1]), "info": info}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--out", default=os.path.join(".perfbench_work",
                                                      "BENCH_pipeline.json"))
    args = parser.parse_args()
    single = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in WORKLOADS:
        runs = {"default_threads": run_once(name, args.seed, args.seconds, 0),
                "single_thread_info": run_once(name, args.seed, args.seconds, 0,
                                               env=single),
                "traced": run_once(name, args.seed, args.seconds, 1)}
        report["workloads"][name] = runs
        for kind, run in runs.items():
            shown = {k: round(v["value"], 4)
                     for k, v in run["result"]["metrics"].items() if v["value"]}
            print(f"{name:13s} {kind:18s} correct={run['result']['correct']} "
                  f"{json.dumps(shown)}")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
