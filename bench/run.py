"""Benchmark entry point: one workload, one seed, one fresh workload process.

    python3 bench/run.py --workload loop_block --seed 1 --seconds 20 --trace 0

Run from the repository root.  With ``--trace 0`` it first starts
``SETUP_PROBES`` short-lived processes that only set up (import, generate
and parse the first pass's inputs), then the workload process, which also
sets up and then runs passes for ``--seconds``.  ``setup_s`` is the median
set-up time over all of them, measured from process start to the ``ready``
line.  The last stdout line is the result object with the metrics that
``BENCHMARK.json`` declares; ``--trace 1`` reports the per-layer metrics of
a run that alternates untraced and traced passes.

Exits non-zero without a result when the program cannot be imported or a
workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
SETUP_PROBES = 4
# Single-threaded BLAS unless the caller says otherwise: steadier timings on
# a shared host, and the numbers stay bit-identical across runs.
BLAS_DEFAULTS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PROCESS_TIMEOUT = 150.0

class BenchError(Exception):
    pass


def _environment() -> dict:
    env = dict(os.environ)
    for name in BLAS_DEFAULTS:
        env.setdefault(name, "1")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _start(args, extra: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a workload process and wait for its ``ready`` line; returns set-up time."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size, *extra]
    began = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_environment(), stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - began))
    line = proc.stdout.readline() if ready else ""
    setup = perf_counter() - began
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise BenchError(f"workload process did not set up (exit {proc.returncode})")
    return proc, setup


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for the process; kill it at the deadline.  Returns remaining stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("workload process timed out")
    return out


def run(args) -> dict:
    deadline = perf_counter() + PROCESS_TIMEOUT
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in declared["workloads"]]:
        raise BenchError(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "torus_holonomy" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {ROOT / 'src'}")
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc, setup = _start(args, ["--probe"], deadline)
            _finish(proc, deadline)
            if proc.returncode != 0:
                raise BenchError(f"set-up probe exited {proc.returncode}")
            setups.append(setup)
    proc, setup = _start(args, [], deadline)
    setups.append(setup)
    out = _finish(proc, deadline)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"workload process exited {proc.returncode}")
    summary = json.loads(out.strip().splitlines()[-1])

    if args.trace:
        values = summary["per_layer"]
    else:
        values = {"setup_s": statistics.median(setups), "wall_s": summary["wall_s"],
                  "peak_rss_mb": summary["peak_rss_mb"]}
    section = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's reduced shapes")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except (BenchError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
