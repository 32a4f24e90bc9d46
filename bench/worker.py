"""One workload process: set-up, timed passes, gates and optional tracing.

Started by ``run.py`` as a fresh interpreter.  It imports the package,
generates and parses the first pass's inputs, prints ``ready`` (the parent
times set-up up to that line), and then, unless ``--probe`` is given, runs
passes until ``--seconds`` have elapsed.  The last stdout line is a JSON
summary for ``run.py``; the full run record goes to ``.bench_runs/``.
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
import tempfile
import traceback
import types
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_DIR = ROOT / ".bench_runs"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Binding -> layer.  Names the program calls through, wrapped from outside.
BINDINGS = {
    "fields.ControlConnection.as_observable": "fields.as_observable",
    "fields.ControlConnection.field": "fields.field",
    "fields.TorusFourierField.evaluate": "fields.evaluate",
    "fields.poisson_bracket": "fields.poisson_bracket",
    "operators.poisson_bracket": "fields.poisson_bracket",
    "operators.quantize_affine": "operators.quantize_affine",
    "propagation.quantize_affine": "operators.quantize_affine",
    "operators.dirac_residual": "operators.dirac_residual",
    "propagation.expm": "propagation.expm",
    "propagation._control_block_product": "propagation.ordered_product",
    "propagation.evolve_full": "propagation.evolve_full",
    "propagation._lift_controlled": "propagation.lift",
    "propagation.unitarity_defect": "propagation.unitarity_defect",
    "classical._rk4_step": "classical.rk4_step",
    "classical.expm": "classical.expm",
    "classical.classical_mode_transport": "classical.mode_transport",
    "classical.classical_action_transport": "classical.action_transport",
    "harness.operator_payload": "serialize.payload",
    "harness.trajectory_csv": "serialize.payload",
    "serialize.atomic_write_json": "serialize.write",
    "serialize.atomic_write_text": "serialize.write",
    "config.parse_config": "config.parse_config",
}
for _curve in ("CirclePath", "WaypointPath", "ReversedCurve", "ChainedCurve", "ReparameterizedCurve"):
    for _method in ("point", "velocity"):
        BINDINGS[f"curves.{_curve}.{_method}"] = "curves.eval"

# The generator builds of the propagation layer, for builds_per_step.
GENERATOR_BUILD_BINDING = "propagation.quantize_affine"


def _matrix_bytes(args, result):
    return 16 * args[0].size ** 2, 0


def _expm_dim(args, result):
    return 0, int(args[0].shape[0])


def _written_bytes(args, result):
    return os.path.getsize(args[0]), 0


EXTRAS = {
    "operators.quantize_affine": _matrix_bytes,
    "propagation.quantize_affine": _matrix_bytes,
    "propagation._lift_controlled": _matrix_bytes,
    "propagation.expm": _expm_dim,
    "serialize.atomic_write_json": _written_bytes,
    "serialize.atomic_write_text": _written_bytes,
}

# Per-layer metric -> (layer, field).  Fields: calls, self_s, bytes, dim.
LAYER_METRICS = {
    "fields.as_observable.calls": ("fields.as_observable", "calls"),
    "fields.as_observable.self_s": ("fields.as_observable", "self_s"),
    "fields.field.calls": ("fields.field", "calls"),
    "fields.field.self_s": ("fields.field", "self_s"),
    "fields.evaluate.calls": ("fields.evaluate", "calls"),
    "fields.evaluate.self_s": ("fields.evaluate", "self_s"),
    "fields.poisson_bracket.self_s": ("fields.poisson_bracket", "self_s"),
    "operators.quantize_affine.calls": ("operators.quantize_affine", "calls"),
    "operators.quantize_affine.self_s": ("operators.quantize_affine", "self_s"),
    "operators.quantize_affine.bytes": ("operators.quantize_affine", "bytes"),
    "operators.dirac_residual.self_s": ("operators.dirac_residual", "self_s"),
    "propagation.expm.calls": ("propagation.expm", "calls"),
    "propagation.expm.self_s": ("propagation.expm", "self_s"),
    "propagation.expm.dim": ("propagation.expm", "dim"),
    "propagation.ordered_product.self_s": ("propagation.ordered_product", "self_s"),
    "propagation.evolve_full.self_s": ("propagation.evolve_full", "self_s"),
    "propagation.lift.calls": ("propagation.lift", "calls"),
    "propagation.lift.self_s": ("propagation.lift", "self_s"),
    "propagation.lift.bytes": ("propagation.lift", "bytes"),
    "propagation.unitarity_defect.self_s": ("propagation.unitarity_defect", "self_s"),
    "classical.rk4_step.calls": ("classical.rk4_step", "calls"),
    "classical.rk4_step.self_s": ("classical.rk4_step", "self_s"),
    "classical.expm.calls": ("classical.expm", "calls"),
    "classical.expm.self_s": ("classical.expm", "self_s"),
    "classical.mode_transport.self_s": ("classical.mode_transport", "self_s"),
    "classical.action_transport.self_s": ("classical.action_transport", "self_s"),
    "curves.eval.calls": ("curves.eval", "calls"),
    "curves.eval.self_s": ("curves.eval", "self_s"),
    "serialize.payload.self_s": ("serialize.payload", "self_s"),
    "serialize.write.self_s": ("serialize.write", "self_s"),
    "serialize.write.bytes": ("serialize.write", "bytes"),
}
DERIVED_METRICS = (
    "propagation.builds_per_step",
    "fields.field.per_step",
    "config.import_s",
    "config.parse_config.self_s",
    "trace.overhead_s",
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--probe", action="store_true", help="exit after set-up")
    return parser.parse_args(argv)


def _session_metrics(tracer, product_steps: int) -> dict:
    values = {}
    for metric, (layer, key) in LAYER_METRICS.items():
        stats = tracer.stats[layer]
        if key == "dim":
            values[metric] = stats.dim_sum / stats.calls if stats.calls else 0.0
        else:
            values[metric] = getattr(stats, key)
    builds = tracer.binding_calls.get(GENERATOR_BUILD_BINDING, 0)
    steps = product_steps + tracer.stats["classical.rk4_step"].calls
    values["propagation.builds_per_step"] = builds / product_steps if product_steps else 0.0
    values["fields.field.per_step"] = tracer.stats["fields.field"].calls / steps if steps else 0.0
    return values


def _host() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_VARS},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": sha,
    }


def code_digest() -> str:
    """Digest of the program, the benchmark and the shipped config."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(BENCH_DIR.glob("*.py"))
    files.append(ROOT / "configs" / "abelian_loop.json")
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _atomic_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    with os.fdopen(fd, "w") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)


def _check_digests(workload: str, seed: int, size: str, passes: list) -> None:
    """Compare payload digests with earlier runs of the same seed and code.

    An operation whose digests differ from the stored ones is marked failed.
    New digests are merged into the stored record.
    """
    path = RUN_DIR / "digests" / f"{workload}-{size}-seed{seed}-{code_digest()}.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    for index, outcomes in enumerate(passes):
        previous = stored.setdefault(str(index), {})
        for outcome in outcomes:
            if not outcome.digests:
                continue
            before = previous.setdefault(outcome.name, outcome.digests)
            if before != outcome.digests:
                outcome.error = outcome.error or "payload digest differs from an earlier run"
    _atomic_json(path, stored)


def main(argv=None) -> int:
    args = _parse_args(argv)
    t0 = perf_counter()
    from torus_holonomy import (classical, config, curves, fields, harness, operators,
                                propagation, serialize, verify)

    import_s = perf_counter() - t0
    sys.path.insert(0, str(BENCH_DIR))
    import workloads
    from tracer import Tracer

    modules = {"classical": classical, "config": config, "curves": curves, "fields": fields,
               "harness": harness, "operators": operators, "propagation": propagation,
               "serialize": serialize}
    th = types.SimpleNamespace(verify=verify, **modules)

    tracer = None
    parse_self_s = None
    if args.trace:
        tracer = Tracer(BINDINGS, EXTRAS)
        tracer.install(modules)
    ops = workloads.prepare(th, args.workload, args.seed, 0, args.size)
    if tracer is not None:
        tracer.uninstall()
        parse_self_s = tracer.stats["config.parse_config"].self_s
        absent = list(tracer.absent)
    print("ready", flush=True)
    if args.probe:
        return 0

    (RUN_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    walls = {"plain": [], "traced": []}
    passes: list[list] = []
    sessions: list[dict] = []
    spans_saved = False
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    start = perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        out_dir = tempfile.mkdtemp(prefix=f"pass{index}-", dir=RUN_DIR / "tmp")
        shared: dict = {}
        results = []
        if traced:
            tracer.begin(keep_spans=not spans_saved)
            tracer.install(modules)
        op_walls = []
        began = perf_counter()
        for op in ops:
            op_began = perf_counter()
            try:
                if traced:
                    with tracer.operation():
                        results.append((op.run(out_dir, shared), None))
                else:
                    results.append((op.run(out_dir, shared), None))
            except Exception:
                results.append((None, traceback.format_exc()))
            op_walls.append(perf_counter() - op_began)
        wall = perf_counter() - began
        walls["traced" if traced else "plain"].append(wall)
        if traced:
            tracer.uninstall()
            sessions.append(_session_metrics(tracer, sum(op.product_steps for op in ops)))
            if not spans_saved:
                RUN_DIR.mkdir(exist_ok=True)
                tracer.save_spans(str(RUN_DIR / f"{tag}-spans.npz"), [op.name for op in ops])
                spans_saved = True

        outcomes = []
        for op, (result, error), op_wall in zip(ops, results, op_walls):
            outcome = workloads.Outcome(op.name, op.kind, error=error, wall_s=op_wall)
            try:
                workloads.run_gates(op, result, outcome)
            except Exception:
                outcome.error = traceback.format_exc()
            outcomes.append(outcome)
        del results
        shutil.rmtree(out_dir)
        passes.append(outcomes)
        index += 1
        if perf_counter() - start >= args.seconds and (tracer is None or index >= 2):
            break
        ops = workloads.prepare(th, args.workload, args.seed, index, args.size)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    _check_digests(args.workload, args.seed, args.size, passes)
    flat = [o for outcomes in passes for o in outcomes]
    failed = sum(o.failed for o in flat)
    for o in flat:
        if o.error:
            print(f"{o.name} failed:\n{o.error}", file=sys.stderr)
        for gate, g in o.gates.items():
            if not g["passed"]:
                print(f"{o.name} gate {gate}: {g['measured']:.3e} > {g['tolerance']:.1e}",
                      file=sys.stderr)

    summary = {
        "attempted": len(flat),
        "failed": failed,
        "wall_s": statistics.median(walls["plain"]),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        per_layer = {}
        for metric in sessions[0]:
            values = [s[metric] for s in sessions]
            per_layer[metric] = values[0] if metric.endswith((".calls", ".bytes")) \
                else statistics.median(values)
        per_layer["config.import_s"] = import_s
        per_layer["config.parse_config.self_s"] = parse_self_s
        per_layer["trace.overhead_s"] = statistics.median(walls["traced"]) - summary["wall_s"]
        summary["per_layer"] = per_layer
        summary["calls_repeat"] = all(
            s[m] == sessions[0][m] for s in sessions for m in s if m.endswith(".calls"))
        summary["absent"] = absent

    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace, "code": code_digest(),
        "host": _host(),
        "summary": summary,
        "pass_walls": walls,
        "operations": [
            [{"name": o.name, "kind": o.kind, "wall_s": o.wall_s, "error": o.error, "gates": o.gates,
              "digests": o.digests, "recorded": o.recorded} for o in outcomes]
            for outcomes in passes
        ],
    }
    _atomic_json(RUN_DIR / f"{tag}.json", record)
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
