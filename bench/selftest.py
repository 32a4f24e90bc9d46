"""Self-test of the benchmark at the tiny size (about half a minute).

    python3 bench/selftest.py

Checks that, for a fixed seed, two traced runs of every workload report the
same per-layer call counts and the same payload digests; that every
operation evaluated exactly the gates its kind declares; that a wrapped
name missing from the program is reported as absent instead of raising; and
that the metric names match ``BENCHMARK.json``.  Exits 1 on the first
failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import DERIVED_METRICS, LAYER_METRICS, RUN_DIR  # noqa: E402

SEED = 7


class SelfTestFailure(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def bench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    check(proc.returncode == 0, f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(result["correct"] and result["failed"] == 0, f"{workload}: {result}")
    record = json.loads((RUN_DIR / f"{workload}-tiny-seed{SEED}-trace{trace}.json").read_text())
    return {"result": result, "record": record}


def calls(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}


def digests(record: dict) -> list:
    return [[o["digests"] for o in outcomes] for outcomes in record["operations"]]


def test_metric_names() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer"]}
    check(names == set(LAYER_METRICS) | set(DERIVED_METRICS),
          "per_layer names in BENCHMARK.json differ from the worker's metrics")
    check([w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS),
          "workload names differ between BENCHMARK.json and workloads.py")


def test_repeatable_and_gated() -> None:
    for workload in workloads.WORKLOADS:
        first = bench(workload, trace=1)
        second = bench(workload, trace=1)
        check(calls(first["result"]) == calls(second["result"]),
              f"{workload}: .calls differ between two runs of seed {SEED}")
        check(first["record"]["summary"]["calls_repeat"],
              f"{workload}: .calls differ between traced passes of one run")
        check(digests(first["record"]) == digests(second["record"]),
              f"{workload}: payload digests differ between two runs of seed {SEED}")
        for outcomes in first["record"]["operations"]:
            for o in outcomes:
                check(tuple(o["gates"]) == workloads.GATES[o["kind"]],
                      f"{workload}/{o['name']}: gates {tuple(o['gates'])}")
        print(f"ok  {workload}: counts, digests and gates repeat")


def test_untraced_run() -> None:
    result = bench("loop_block", trace=0)["result"]
    for name in ("setup_s", "wall_s", "peak_rss_mb"):
        check(result["metrics"][name]["value"] > 0, f"end-to-end metric {name} is not positive")
    print("ok  untraced run reports every end-to-end metric")


def test_absent_binding() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from torus_holonomy import propagation

    missing = "propagation.no_such_function"
    expm = propagation.expm
    tracer = Tracer({missing: "x", "propagation.expm": "propagation.expm"})
    tracer.install({"propagation": propagation})
    try:
        check(tracer.absent == [missing], f"absent bindings: {tracer.absent}")
        check(propagation.expm is not expm, "present binding was not wrapped")
    finally:
        tracer.uninstall()
    check(propagation.expm is expm, "uninstall did not restore the binding")
    print("ok  a missing wrapped name is reported absent")


def main() -> int:
    try:
        test_metric_names()
        test_repeatable_and_gated()
        test_untraced_run()
        test_absent_binding()
    except SelfTestFailure as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
