"""Seeded inputs, timed operations and correctness gates of the three workloads.

Every workload pass is a list of operations.  An operation's ``run`` is the
timed part and goes through the same path as ``cli.main``: a parsed config,
a ``harness.run_*`` function and the atomic writers into a temporary
directory.  Its gates run afterwards, outside the timed region, at the
tolerances the verify battery and the tests use for the same quantity.

The seed draws only coefficients (and classical initial states); model
shapes, curves and step counts are fixed per workload and size.  Each pass
draws fresh coefficients from ``(seed, pass index)``, so no two passes of a
run share a connection: a cache keyed on a connection sees only the reuse a
single CLI invocation would give it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORKLOADS = ("loop_block", "full_lattice", "classical_transport")

# Fixed shapes and step counts.  "tiny" serves the self-test only.
SIZES = {
    "full": {
        "loops": 3, "loop_steps": 3000,
        "evolve_truncation": 8, "evolve_steps": 100, "abelian_evolve_steps": 100,
        "dirac_pairs": 30,
        "trajectories": 2, "rk4_steps": 4000, "mode_steps": 3000,
    },
    "tiny": {
        "loops": 1, "loop_steps": 200,
        "evolve_truncation": 4, "evolve_steps": 20, "abelian_evolve_steps": 20,
        "dirac_pairs": 2,
        "trajectories": 1, "rk4_steps": 300, "mode_steps": 500,
    },
}

UNITARITY_TOL = 1e-10      # verify: unitarity_eigenspace_preservation
ABELIAN_TOL = 1e-8         # verify: abelian_closed_form
OFF_BLOCK_TOL = 1e-12      # tests: eigenspace blocks of the lifted propagator
DIRAC_TOL = 1e-10          # verify: dirac_condition_random_pairs
FREE_FLOW_TOL = 1e-10      # tests: dynamic block reproduces the free flow
MODE_TRANSPORT_TOL = 1e-6  # verify: mode_transport_two_routes (guard 6)
ACTION_TRANSPORT_TOL = 1e-6
MODE_GUARD = 6

ABELIAN_CONFIG = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs", "abelian_loop.json"
)


@dataclass
class Operation:
    """One timed unit of a workload pass and the gates that judge its output."""

    name: str
    kind: str
    run: Callable[[str, dict], dict]
    gates: Callable[[dict, "Outcome"], dict[str, tuple[float, float]]]
    product_steps: int = 0


@dataclass
class Outcome:
    name: str
    kind: str
    error: str | None = None
    wall_s: float = 0.0
    gates: dict[str, dict] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    recorded: dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.error is not None or not all(g["passed"] for g in self.gates.values())


# Gates every operation kind must evaluate; the self-test holds them to it.
GATES = {
    "holonomy": ("unitarity_fine", "unitarity_coarse", "payload_roundtrip"),
    "abelian_holonomy": (
        "unitarity_fine", "unitarity_coarse", "abelian_closed_form", "payload_roundtrip",
    ),
    "evolve": (
        "factorized_unitarity", "reference_unitarity", "off_block_mass", "payload_roundtrip",
    ),
    "dirac": ("dirac_residual",),
    "classical": ("free_flow_dynamic_axes", "payload_roundtrip"),
    "mode_transport": ("mode_transport_discrepancy",),
    "action_transport": ("action_transport_vs_rk4",),
}


# ---------------------------------------------------------------------------
# Seeded config generation (plain JSON, as a user would write it)
# ---------------------------------------------------------------------------


def _rng(seed: int, pass_index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, pass_index, stream])


def _linear_poly(rng, d: int, scale: float, real: bool) -> list[dict]:
    """Degree <= 1 polynomial in sigma with seeded coefficients."""
    poly = []
    for e in [[0] * d] + [[int(i == j) for j in range(d)] for i in range(d)]:
        if real:
            coeff = float(scale * rng.normal())
        else:
            coeff = [float(scale * rng.normal()), float(scale * rng.normal())]
        poly.append({"exponents": e, "coefficient": coeff})
    return poly


def _connection(rng, m: int, d: int, bandwidth: int, scale: float) -> dict:
    """Half-spectrum connection on controlled axis 0, shifts along axis 0 only."""
    components = []
    for beta in range(d):
        fourier = []
        for k in range(bandwidth + 1):
            shift = [k] + [0] * (m - 1)
            fourier.append({"shift": shift, "poly": _linear_poly(rng, d, scale, real=k == 0)})
        components.append({"axis": 0, "parameter": beta, "fourier": fourier})
    return {"parameter_dim": d, "components": components}


_UNIT_CIRCLE = {"type": "circle", "center": [0.0, 0.0], "radius": 1.0, "duration": 1.0}
_DEMO_MODEL = {"m": 2, "controlled": [0], "offsets": [0.25, 0.5]}


def loop_config(rng, steps: int) -> dict:
    return {
        "schema": 1,
        "model": dict(_DEMO_MODEL, truncation=8),
        "connection": _connection(rng, 2, 2, bandwidth=2, scale=0.1),
        "curve": dict(_UNIT_CIRCLE),
        "run": {"steps": steps},
    }


def evolve_config(rng, truncation: int, steps: int) -> dict:
    return {
        "schema": 1,
        "model": dict(_DEMO_MODEL, truncation=truncation),
        "hamiltonian": {"terms": [
            {"exponents": [0, 2], "coefficient": float(rng.uniform(0.3, 0.7))},
            {"exponents": [0, 1], "coefficient": float(rng.uniform(-0.2, 0.2))},
        ]},
        "connection": _connection(rng, 2, 2, bandwidth=2, scale=0.1),
        "curve": dict(_UNIT_CIRCLE),
        "run": {"steps": steps},
    }


def trajectory_config(rng, steps: int) -> dict:
    return {
        "schema": 1,
        "model": {"m": 2, "controlled": [0], "offsets": [0.0, 0.0], "truncation": 4},
        "hamiltonian": {"terms": [
            {"exponents": [0, 2], "coefficient": float(rng.uniform(0.3, 0.7))},
            {"exponents": [0, 1], "coefficient": float(rng.uniform(-0.2, 0.2))},
        ]},
        "connection": _connection(rng, 2, 2, bandwidth=2, scale=0.2),
        "curve": {"type": "waypoints", "points": [[0.0, 0.0], [1.0, 0.5], [0.5, 1.5]],
                  "duration": 2.0},
        "initial": {"actions": [float(x) for x in rng.uniform(0.5, 1.5, 2)],
                    "angles": [float(x) for x in rng.uniform(0.0, 2 * np.pi, 2)]},
        "run": {"steps": steps},
    }


def mode_config(rng, steps: int) -> dict:
    """m=1 transport model in the shape of the verify battery's check."""
    poly = [{"exponents": [0], "coefficient": float(rng.uniform(0.03, 0.06))},
            {"exponents": [1], "coefficient": float(rng.uniform(0.01, 0.03))}]
    return {
        "schema": 1,
        "model": {"m": 1, "controlled": [0], "offsets": [0.0], "truncation": 8},
        "connection": {"parameter_dim": 1, "components": [
            {"axis": 0, "parameter": 0, "fourier": [{"shift": [1], "poly": poly}]}]},
        "curve": {"type": "waypoints", "points": [[0.0], [1.0]], "duration": 1.0},
        "initial": {"actions": [float(rng.uniform(0.5, 1.5))],
                    "angles": [float(rng.uniform(0.0, 2 * np.pi))]},
        "run": {"steps": steps},
    }


def random_affine(th, rng, m: int):
    """Seeded affine observable of bandwidth 1 or 2 (real component fields)."""
    bandwidth = int(rng.integers(1, 3))

    def real_field():
        half = {}
        zero = (0,) * m
        for c in itertools.product(range(-bandwidth, bandwidth + 1), repeat=m):
            if c > zero:
                half[c] = complex(rng.normal(), rng.normal())
            elif c == zero:
                half[c] = complex(rng.normal())
        return th.fields.TorusFourierField.from_half_spectrum(m, half)

    actions = tuple(real_field() for _ in range(m))
    return th.fields.AffineObservable(actions, real_field())


# ---------------------------------------------------------------------------
# Payload helpers
# ---------------------------------------------------------------------------


def _plain(value):
    """Payload as the JSON reader returns it: lists for tuples, Python scalars."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def payload_gate(written: dict[str, object], digests: dict[str, str]) -> tuple[float, float]:
    """Re-read every written file, record its sha256, count those differing in content."""
    mismatches = 0
    for path, expected in written.items():
        with open(path, "rb") as handle:
            raw = handle.read()
        digests[os.path.basename(path)] = hashlib.sha256(raw).hexdigest()
        if isinstance(expected, str):
            same = raw.decode() == expected
        else:
            same = json.loads(raw) == _plain(expected)
        mismatches += not same
    return float(mismatches), 0.0


def operator_entries(payload: dict) -> np.ndarray:
    entries = np.asarray(payload["entries"], dtype=float)
    return (entries[:, 0] + 1j * entries[:, 1]).reshape(payload["shape"])


def off_block_mass(matrix: np.ndarray, m: int, controlled, truncation: int) -> float:
    """Largest entry coupling different dynamic indices (lexicographic modes)."""
    dynamic = [a for a in range(m) if a not in controlled]
    modes = np.array(list(itertools.product(range(-truncation, truncation + 1), repeat=m)))
    labels = modes[:, dynamic]
    off = np.any(labels[:, None, :] != labels[None, :, :], axis=2)
    return float(np.max(np.abs(matrix[off]))) if off.any() else 0.0


# ---------------------------------------------------------------------------
# Operations per workload
# ---------------------------------------------------------------------------


def _operator_op(th, name: str, kind: str, config, harness_run, stem: str, gates) -> Operation:
    """A ``harness.run_*`` returning (operator payload, diagnostics), written as the CLI does."""

    def run(out_dir: str, shared: dict) -> dict:
        matrix, diagnostics = harness_run(config)
        path = os.path.join(out_dir, f"{name}_{stem}.json")
        diag_path = os.path.join(out_dir, f"{name}_{stem}_diagnostics.json")
        th.serialize.atomic_write_json(path, matrix)
        th.serialize.atomic_write_json(diag_path, diagnostics)
        return {"written": {path: matrix, diag_path: diagnostics}, "diagnostics": diagnostics,
                "matrix": matrix}

    return Operation(name, kind, run, gates, config.run.steps)


def _holonomy_op(th, name: str, config, abelian: bool) -> Operation:
    def gates(result: dict, outcome: Outcome) -> dict:
        fine, coarse = result["diagnostics"]["unitarity_defect"]
        out = {"unitarity_fine": (fine, UNITARITY_TOL), "unitarity_coarse": (coarse, UNITARITY_TOL)}
        if abelian:
            expected = th.verify.abelian_control_phases(config.model, config.connection, config.curve)
            got = operator_entries(result["matrix"])
            out["abelian_closed_form"] = (np.max(np.abs(got - np.diag(expected))), ABELIAN_TOL)
        out["payload_roundtrip"] = payload_gate(result["written"], outcome.digests)
        return out

    kind = "abelian_holonomy" if abelian else "holonomy"
    return _operator_op(th, name, kind, config, th.harness.run_holonomy, "holonomy", gates)


def _evolve_op(th, name: str, config) -> Operation:
    def gates(result: dict, outcome: Outcome) -> dict:
        diagnostics = result["diagnostics"]
        model = config.model
        mass = off_block_mass(operator_entries(result["matrix"]), model.m, model.controlled,
                              model.truncation)
        outcome.recorded["route_deviation"] = diagnostics["route_deviation"]
        return {
            "factorized_unitarity": (diagnostics["factorized_unitarity_defect"], UNITARITY_TOL),
            "reference_unitarity": (diagnostics["reference_unitarity_defect"], UNITARITY_TOL),
            "off_block_mass": (mass, OFF_BLOCK_TOL),
            "payload_roundtrip": payload_gate(result["written"], outcome.digests),
        }

    return _operator_op(th, name, "evolve", config, th.harness.run_evolve, "evolution", gates)


def _dirac_op(th, name: str, model, f, g) -> Operation:
    def run(out_dir: str, shared: dict) -> dict:
        return {"residual": th.operators.dirac_residual(model, f, g)}

    def gates(result: dict, outcome: Outcome) -> dict:
        return {"dirac_residual": (result["residual"], DIRAC_TOL)}

    return Operation(name, "dirac", run, gates)


def _classical_op(th, name: str, config) -> Operation:
    def run(out_dir: str, shared: dict) -> dict:
        text = th.harness.run_classical(config)
        path = os.path.join(out_dir, f"{name}_trajectory.csv")
        th.serialize.atomic_write_text(path, text)
        return {"written": {path: text}, "text": text}

    def gates(result: dict, outcome: Outcome) -> dict:
        rows = np.loadtxt(result["text"].splitlines()[1:], delimiter=",", ndmin=2)
        m = config.model.m
        dynamic = list(config.model.dynamic)
        ham = config.hamiltonian
        worst = 0.0
        for row in rows:
            free = th.classical.evolve_free(ham, config.initial, float(row[0]))
            worst = max(
                worst,
                float(np.max(np.abs(row[1:1 + m][dynamic] - free.actions[dynamic]))),
                float(np.max(np.abs(row[1 + m:][dynamic] - free.angles[dynamic]))),
            )
        return {
            "free_flow_dynamic_axes": (worst, FREE_FLOW_TOL),
            "payload_roundtrip": payload_gate(result["written"], outcome.digests),
        }

    return Operation(name, "classical", run, gates)


def _transport_ops(th, config) -> list[Operation]:
    steps = config.run.steps
    phi0 = config.initial.angles
    actions0 = config.initial.actions

    def run_modes(out_dir: str, shared: dict) -> dict:
        result = th.classical.classical_mode_transport(
            config.model, config.connection, config.curve, phi0, steps, guard=MODE_GUARD
        )
        shared["phi_history"] = result.phi_history
        return {"discrepancy": result.discrepancy}

    def gate_modes(result: dict, outcome: Outcome) -> dict:
        return {"mode_transport_discrepancy": (result["discrepancy"], MODE_TRANSPORT_TOL)}

    def run_actions(out_dir: str, shared: dict) -> dict:
        final = th.classical.classical_action_transport(
            config.model, config.connection, config.curve, actions0, shared["phi_history"], steps
        )
        return {"actions": final}

    def gate_actions(result: dict, outcome: Outcome) -> dict:
        ham = th.fields.ActionPolynomial.zero(config.model.m)
        rk4 = th.classical.evolve_perturbed(ham, config.connection, config.curve,
                                            config.initial, steps).final
        deviation = np.max(np.abs(np.asarray(result["actions"]) - rk4.actions))
        return {"action_transport_vs_rk4": (deviation, ACTION_TRANSPORT_TOL)}

    return [
        Operation("mode_transport", "mode_transport", run_modes, gate_modes, steps),
        Operation("action_transport", "action_transport", run_actions, gate_actions, steps),
    ]


def prepare(th, workload: str, seed: int, pass_index: int, size: str = "full") -> list[Operation]:
    """Generate and parse one pass's inputs; returns its operations in run order."""
    s = SIZES[size]
    parse = th.config.parse_config
    if workload == "loop_block":
        ops = [
            _holonomy_op(th, f"loop{i}", parse(loop_config(_rng(seed, pass_index, i), s["loop_steps"])),
                         abelian=False)
            for i in range(s["loops"])
        ]
        with open(ABELIAN_CONFIG) as handle:
            ops.append(_holonomy_op(th, "abelian_loop", parse(json.load(handle)), abelian=True))
        return ops
    if workload == "full_lattice":
        rng = _rng(seed, pass_index, 0)
        config = parse(evolve_config(rng, s["evolve_truncation"], s["evolve_steps"]))
        with open(ABELIAN_CONFIG) as handle:
            raw = json.load(handle)
        raw["run"]["steps"] = s["abelian_evolve_steps"]
        ops = [_evolve_op(th, "evolve", config), _evolve_op(th, "abelian_evolve", parse(raw))]
        for i in range(s["dirac_pairs"]):
            f = random_affine(th, rng, config.model.m)
            g = random_affine(th, rng, config.model.m)
            ops.append(_dirac_op(th, f"dirac{i}", config.model, f, g))
        return ops
    if workload == "classical_transport":
        ops = [
            _classical_op(th, f"trajectory{i}",
                          parse(trajectory_config(_rng(seed, pass_index, i), s["rk4_steps"])))
            for i in range(s["trajectories"])
        ]
        mode = parse(mode_config(_rng(seed, pass_index, 100), s["mode_steps"]))
        return ops + _transport_ops(th, mode)
    raise ValueError(f"unknown workload {workload!r}")


def run_gates(op: Operation, result: dict | None, outcome: Outcome) -> None:
    """Evaluate the operation's gates into ``outcome`` (outside the timed region)."""
    if result is None:
        return
    for name, (measured, tol) in op.gates(result, outcome).items():
        measured = float(measured)
        outcome.gates[name] = {"measured": measured, "tolerance": tol,
                               "passed": measured <= tol}
    missing = [name for name in GATES[op.kind] if name not in outcome.gates]
    if missing:
        outcome.error = f"gates not evaluated: {', '.join(missing)}"
