"""The benchmark's one command: set-up time, then one workload in a fresh process.

Run from the root of the repository:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

With ``--trace 0`` it first measures ``setup_s``, the median time for a
fresh interpreter to import ``nnml.cli`` and build its parser, over
several interpreters, at the reference speed of speed.py. It then starts worker.py in a fresh interpreter for
the workload and prints the worker's result as the last line of standard
output: one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--workload all`` runs the three workloads one after the
other and prints one such line per workload, each led by its name.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from goalset import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 170


def pin_to_one_cpu() -> None:
    """Keep this process and the interpreters it starts on one CPU, the
    last one allowed. The 2-core machine this benchmark was written on
    often ran its two CPUs at speeds a quarter or more apart, each
    changing on its own; pinned, the reference loop of speed.py times the
    same CPU as the calls it scales."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup() -> float:
    """Median wall time of fresh interpreters that import nnml.cli, each
    scaled by the reference loop timed just before and just after it.

    One unmeasured interpreter goes first, so that compiling the sources
    to bytecode, which a user pays once, is not counted.
    """
    cmd = [sys.executable, "-c", "import nnml.cli; nnml.cli.build_parser()"]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        before = speed.probe()
        t0 = time.perf_counter()
        subprocess.run(cmd, env=_env(), cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=60)
        measured = time.perf_counter() - t0
        if i:
            samples.append(measured * speed.scale(before, speed.probe()))
    return statistics.median(samples)


def run_workload(workload: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    setup_s = None if trace else measure_setup()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}")
    result = json.loads(lines[-1])
    if setup_s is not None:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark nnml through its CLI.")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run instead of end-to-end ones")
    ap.add_argument("--tiny", action="store_true", help="smallest goals, for the benchmark's own test")
    args = ap.parse_args(argv)
    if not (SRC / "nnml" / "cli.py").is_file():
        print(f"error: no nnml sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    pin_to_one_cpu()
    try:
        if args.workload != "all":
            print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace, args.tiny)))
            return 0
        for workload in WORKLOADS:
            result = run_workload(workload, args.seed, args.seconds, args.trace, args.tiny)
            print(workload, json.dumps(result), flush=True)
    except (RuntimeError, subprocess.SubprocessError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
