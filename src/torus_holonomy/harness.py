"""Experiment drivers: pure functions from a parsed config to output payloads.

The CLI wires these to files; tests call them directly.  Every driver is
deterministic for a fixed config (fixed seeds, fixed summation orders).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from . import classical, propagation
from .config import ExperimentConfig
from .curves import segment_edges
from .errors import ConfigError
from .fields import ActionPolynomial, ControlConnection
from .lattice import mode_array
from .operators import hamiltonian_spectrum
from .serialize import model_payload, operator_payload, trajectory_csv


def run_spectrum(config: ExperimentConfig) -> dict:
    """Sorted energy levels with multiplicities and dynamic-index labels.

    Modes sharing a dynamic index always share a level; levels whose values
    also coincide bitwise are merged, so a constant Hamiltonian reports a
    single level of full multiplicity.
    """
    if config.hamiltonian is None:
        raise ConfigError("spectrum requires a hamiltonian section")
    model = config.model
    values = hamiltonian_spectrum(model, config.hamiltonian)
    modes = mode_array(model)
    dyn = list(model.dynamic)
    groups: dict[float, dict] = defaultdict(lambda: {"multiplicity": 0, "labels": set()})
    for row, val in zip(modes, values):
        entry = groups[float(val)]
        entry["multiplicity"] += 1
        entry["labels"].add(tuple(int(x) for x in row[dyn]))
    levels = [
        {
            "value": value,
            "multiplicity": entry["multiplicity"],
            "labels": sorted(list(label) for label in entry["labels"]),
        }
        for value, entry in groups.items()
    ]
    levels.sort(key=lambda lv: (lv["value"], lv["labels"]))
    return {
        "format": "spectrum",
        "model": model_payload(model),
        "dynamic_axes": dyn,
        "levels": levels,
    }


def _connection_or_empty(config: ExperimentConfig) -> ControlConnection:
    if config.connection is not None:
        return config.connection
    d = config.curve.dimension if config.curve is not None else 1
    return ControlConnection.empty(config.model.m, d)


def run_classical(config: ExperimentConfig) -> str:
    """Perturbed trajectory as CSV text."""
    if config.curve is None:
        raise ConfigError("classical run requires a curve section (it sets the time span)")
    if config.initial is None:
        raise ConfigError("classical run requires an initial section")
    if config.initial.m != config.model.m:
        raise ConfigError("initial state dimension differs from model")
    ham = config.hamiltonian or ActionPolynomial.zero(config.model.m)
    trajectory = classical.evolve_perturbed(
        ham, _connection_or_empty(config), config.curve, config.initial, config.run.steps
    )
    return trajectory_csv(trajectory)


def run_holonomy(config: ExperimentConfig) -> tuple[dict, dict]:
    """Holonomy block of a closed loop plus refinement diagnostics."""
    if config.connection is None:
        raise ConfigError("holonomy requires a connection section")
    if config.curve is None:
        raise ConfigError("holonomy requires a curve section")
    steps = config.run.steps
    report = propagation.holonomy(config.model, config.connection, config.curve, steps)
    # Refine at half the steps, or at twice as many where half leaves a smooth segment without one.
    other_steps = steps // 2 if steps // 2 >= len(segment_edges(config.curve)) - 1 else 2 * steps
    other = propagation.holonomy(config.model, config.connection, config.curve, other_steps)
    refinement = float(np.max(np.abs(report.operator.matrix - other.operator.matrix)))
    diagnostics = {
        "format": "holonomy-diagnostics",
        "steps": [report.steps, other.steps],
        "unitarity_defect": [report.unitarity_defect, other.unitarity_defect],
        "refinement_deviation": refinement,
    }
    return operator_payload(report.operator), diagnostics


def run_evolve(config: ExperimentConfig) -> tuple[dict, dict]:
    """Factorized full propagator plus the reference-route diagnostics."""
    if config.hamiltonian is None or config.connection is None or config.curve is None:
        raise ConfigError("evolve requires hamiltonian, connection and curve sections")
    report = propagation.evolve_full(
        config.model, config.hamiltonian, config.connection, config.curve, config.run.steps
    )
    diagnostics = {
        "format": "evolve-diagnostics",
        "steps": report.steps,
        "factorized_unitarity_defect": report.factorized_unitarity_defect,
        "reference_unitarity_defect": report.reference_unitarity_defect,
        "route_deviation": report.deviation,
    }
    return operator_payload(report.operator), diagnostics


def run_verify(config: ExperimentConfig | None = None) -> dict:
    """Built-in invariant battery; a config may set the seed."""
    from . import verify

    seed = config.run.seed if config is not None else verify.DEFAULT_SEED
    payload = verify.run_battery(seed).to_dict()
    payload["format"] = "verify-report"
    return payload
