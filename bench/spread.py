"""Repeat the benchmark over seeds and report each metric's median and quartiles.

    python3 bench/spread.py --workloads loop_block full_lattice --seeds 1-10 [--out FILE]

Runs ``bench/run.py`` once per (workload, seed) in sequence with the
``run_seconds`` of ``BENCHMARK.json`` and prints, per workload and metric,
the median, the quartiles from ``statistics.quantiles(values, n=4)`` and
the spread (Q3 - Q1) / median next to the metric's bound.  ``--trace``
adds one traced run per workload.  ``--out`` writes every value, the
summary and the host record as JSON; ``--compare`` checks a second set
against an earlier ``--out`` file: medians within the bounds and identical
per-layer call counts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list[dict], bounds: dict[str, float]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": bounds.get(name),
            "values": values,
        }
    return summary


def compare(report: dict, earlier: dict) -> bool:
    """Second set against a first: medians within bounds, counts identical."""
    ok = True
    for workload, entry in report["workloads"].items():
        before = earlier["workloads"].get(workload)
        if before is None:
            continue
        for name, s in entry["metrics"].items():
            base = before["metrics"][name]["median"]
            drift = s["median"] / base - 1.0
            within = drift <= s["bound"]
            ok &= within
            print(f"  {workload} {name}: median {s['median']:.4f} vs {base:.4f}"
                  f" ({drift:+.1%}, bound {s['bound']:.0%}) {'ok' if within else 'WORSE'}")
        if "traced" in entry and "traced" in before:
            counts = [k for k in entry["traced"] if k.endswith(".calls")]
            same = all(entry["traced"][k] == before["traced"][k] for k in counts)
            ok &= same
            print(f"  {workload} per-layer .calls {'identical' if same else 'DIFFER'}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", help="write the summary and host record to this JSON file")
    parser.add_argument("--compare", help="an earlier --out file to compare medians against")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    seconds = declared["run_seconds"]
    seeds = _seeds(args.seeds)
    report = {"run_seconds": seconds, "workloads": {}}
    for workload in args.workloads:
        results = [_run(workload, seed, seconds, 0) for seed in seeds]
        record = json.loads((ROOT / ".bench_runs" / f"{workload}-full-seed{seeds[0]}-trace0.json")
                            .read_text())
        report.setdefault("host", record["host"])
        report.setdefault("code", record["code"])
        entry = {"seeds": seeds,
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": summarize(results, bounds)}
        print(f"{workload}: {entry['failed']} of {entry['attempted']} operations failed")
        for name, s in entry["metrics"].items():
            print(f"  {name:14s} median {s['median']:.4f}  Q1 {s['q1']:.4f}  Q3 {s['q3']:.4f}"
                  f"  spread {s['spread']:.3f}  bound {s['bound']}")
        if args.trace:
            traced = _run(workload, seeds[0], seconds, 1)
            entry["traced"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    if args.compare:
        return 0 if compare(report, json.loads(Path(args.compare).read_text())) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
