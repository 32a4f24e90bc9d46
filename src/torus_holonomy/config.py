"""Experiment configuration: JSON schema, validation, object construction.

Axis and parameter indices in config files are 0-based.  Connection Fourier
entries are auto-completed to real fields: each listed shift also
contributes the conjugate coefficient at the mirrored shift, and listing
both members of a pair is an error (this keeps files short and reality
unbreakable).  Complex coefficients are written as [re, im]; bare numbers
are taken as real.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

import jsonschema

from .curves import CirclePath, ParameterCurve, WaypointPath
from .errors import ConfigError
from .fields import ActionPolynomial, ControlConnection, ParameterPolynomial
from .lattice import ClassicalState, TorusModel

SCHEMA_VERSION = 1

_NUMBER = {"type": "number"}
_COMPLEX = {
    "oneOf": [
        {"type": "number"},
        {"type": "array", "items": _NUMBER, "minItems": 2, "maxItems": 2},
    ]
}
_INT_ARRAY = {"type": "array", "items": {"type": "integer"}}
_NUM_ARRAY = {"type": "array", "items": _NUMBER}

CONFIG_SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema", "model"],
    "additionalProperties": False,
    "properties": {
        "schema": {"const": SCHEMA_VERSION},
        "model": {
            "type": "object",
            "required": ["m", "controlled", "offsets", "truncation"],
            "additionalProperties": False,
            "properties": {
                "m": {"type": "integer", "minimum": 1},
                "controlled": _INT_ARRAY,
                "offsets": _NUM_ARRAY,
                "truncation": {"type": "integer", "minimum": 1},
            },
        },
        "hamiltonian": {
            "type": "object",
            "required": ["terms"],
            "additionalProperties": False,
            "properties": {
                "terms": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["exponents", "coefficient"],
                        "additionalProperties": False,
                        "properties": {
                            "exponents": _INT_ARRAY,
                            "coefficient": _NUMBER,
                        },
                    },
                }
            },
        },
        "connection": {
            "type": "object",
            "required": ["parameter_dim", "components"],
            "additionalProperties": False,
            "properties": {
                "parameter_dim": {"type": "integer", "minimum": 1},
                "components": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["axis", "parameter", "fourier"],
                        "additionalProperties": False,
                        "properties": {
                            "axis": {"type": "integer", "minimum": 0},
                            "parameter": {"type": "integer", "minimum": 0},
                            "fourier": {
                                "type": "array",
                                "items": {
                                    "type": "object",
                                    "required": ["shift", "poly"],
                                    "additionalProperties": False,
                                    "properties": {
                                        "shift": _INT_ARRAY,
                                        "poly": {
                                            "type": "array",
                                            "items": {
                                                "type": "object",
                                                "required": ["exponents", "coefficient"],
                                                "additionalProperties": False,
                                                "properties": {
                                                    "exponents": _INT_ARRAY,
                                                    "coefficient": _COMPLEX,
                                                },
                                            },
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
        "curve": {
            "type": "object",
            "required": ["type"],
            "properties": {"type": {"enum": ["circle", "waypoints"]}},
        },
        "initial": {
            "type": "object",
            "required": ["actions", "angles"],
            "additionalProperties": False,
            "properties": {"actions": _NUM_ARRAY, "angles": _NUM_ARRAY},
        },
        "run": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "steps": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0},
                "battery": {"enum": ["full", "quick"]},
            },
        },
    },
}

_CIRCLE_SCHEMA = {
    "type": "object",
    "required": ["type", "center", "duration"],
    "additionalProperties": False,
    "properties": {
        "type": {"const": "circle"},
        "center": _NUM_ARRAY,
        "radius": _NUMBER,
        "axes": {"type": "array", "items": {"type": "integer"}, "minItems": 2, "maxItems": 2},
        "u": _NUM_ARRAY,
        "v": _NUM_ARRAY,
        "duration": {"type": "number", "exclusiveMinimum": 0},
        "turns": _NUMBER,
        "phase": _NUMBER,
    },
}

_WAYPOINT_SCHEMA = {
    "type": "object",
    "required": ["type", "points", "duration"],
    "additionalProperties": False,
    "properties": {
        "type": {"const": "waypoints"},
        "points": {"type": "array", "items": _NUM_ARRAY, "minItems": 2},
        "duration": {"type": "number", "exclusiveMinimum": 0},
    },
}


# Built once: ``jsonschema.validate`` would re-check a schema against the
# meta-schema on every call.  The tests check each schema once.
_CONFIG_VALIDATOR, _CIRCLE_VALIDATOR, _WAYPOINT_VALIDATOR = (
    jsonschema.Draft202012Validator(s) for s in (CONFIG_SCHEMA, _CIRCLE_SCHEMA, _WAYPOINT_SCHEMA)
)


def _validate(validator: jsonschema.Draft202012Validator, payload: Any, where: str) -> None:
    """Raise ``ConfigError`` for the error ``jsonschema.validate`` would raise."""
    error = jsonschema.exceptions.best_match(validator.iter_errors(payload))
    if error is not None:
        raise ConfigError(f"{where}{_json_path(error)}: {error.message}") from error


@dataclass(frozen=True)
class RunSettings:
    steps: int = 1000
    seed: int = 1234
    battery: str = "full"


@dataclass(frozen=True)
class ExperimentConfig:
    model: TorusModel
    hamiltonian: ActionPolynomial | None
    connection: ControlConnection | None
    curve: ParameterCurve | None
    initial: ClassicalState | None
    run: RunSettings = field(default_factory=RunSettings)


def _complex_value(raw) -> complex:
    if isinstance(raw, (int, float)):
        return complex(raw)
    return complex(raw[0], raw[1])


def _build_model(raw: dict) -> TorusModel:
    m = raw["m"]
    for a in raw["controlled"]:
        if not 0 <= a < m:
            raise ConfigError(f"model.controlled: axis {a} out of range for m={m}")
    if len(raw["offsets"]) != m:
        raise ConfigError(f"model.offsets: expected {m} entries, got {len(raw['offsets'])}")
    try:
        return TorusModel(m, tuple(raw["controlled"]), tuple(raw["offsets"]), raw["truncation"])
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc


def _build_hamiltonian(raw: dict | None, m: int) -> ActionPolynomial | None:
    if raw is None:
        return None
    terms: dict[tuple[int, ...], float] = {}
    for i, term in enumerate(raw["terms"]):
        exps = tuple(term["exponents"])
        if len(exps) != m:
            raise ConfigError(f"hamiltonian.terms[{i}].exponents: expected length {m}")
        if any(e < 0 for e in exps):
            raise ConfigError(f"hamiltonian.terms[{i}].exponents: negative exponent")
        terms[exps] = terms.get(exps, 0.0) + term["coefficient"]
    return ActionPolynomial(m, terms)


def _build_connection(raw: dict | None, m: int) -> ControlConnection | None:
    if raw is None:
        return None
    d = raw["parameter_dim"]
    half: dict[tuple[int, int], dict[tuple[int, ...], ParameterPolynomial]] = {}
    for i, comp in enumerate(raw["components"]):
        axis, beta = comp["axis"], comp["parameter"]
        if axis >= m:
            raise ConfigError(f"connection.components[{i}].axis: {axis} out of range for m={m}")
        if beta >= d:
            raise ConfigError(
                f"connection.components[{i}].parameter: {beta} out of range for d={d}"
            )
        entry = half.setdefault((axis, beta), {})
        for j, item in enumerate(comp["fourier"]):
            shift = tuple(item["shift"])
            if len(shift) != m:
                raise ConfigError(
                    f"connection.components[{i}].fourier[{j}].shift: expected length {m}"
                )
            coeffs: dict[tuple[int, ...], complex] = {}
            for k, mono in enumerate(item["poly"]):
                exps = tuple(mono["exponents"])
                if len(exps) != d:
                    raise ConfigError(
                        f"connection.components[{i}].fourier[{j}].poly[{k}]: expected {d} exponents"
                    )
                coeffs[exps] = coeffs.get(exps, 0.0) + _complex_value(mono["coefficient"])
            if shift in entry:
                raise ConfigError(
                    f"connection.components[{i}].fourier[{j}]: duplicate shift {shift}"
                )
            entry[shift] = ParameterPolynomial(d, coeffs)
    try:
        return ControlConnection.from_half_spectrum(m, d, half)
    except ValueError as exc:
        raise ConfigError(f"connection: {exc}") from exc


def _build_curve(raw: dict | None) -> ParameterCurve | None:
    if raw is None:
        return None
    validator = _CIRCLE_VALIDATOR if raw.get("type") == "circle" else _WAYPOINT_VALIDATOR
    _validate(validator, raw, "curve")
    try:
        if raw["type"] == "circle":
            if "u" in raw or "v" in raw:
                if not ("u" in raw and "v" in raw):
                    raise ConfigError("curve: give both u and v, or a radius")
                return CirclePath(
                    tuple(raw["center"]),
                    tuple(raw["u"]),
                    tuple(raw["v"]),
                    raw["duration"],
                    raw.get("turns", 1.0),
                    raw.get("phase", 0.0),
                )
            if "radius" not in raw:
                raise ConfigError("curve: circle needs a radius or explicit u/v spans")
            return CirclePath.circle(
                tuple(raw["center"]),
                raw["radius"],
                raw["duration"],
                tuple(raw.get("axes", (0, 1))),
                raw.get("turns", 1.0),
                raw.get("phase", 0.0),
            )
        return WaypointPath(tuple(tuple(p) for p in raw["points"]), raw["duration"])
    except (ValueError, ConfigError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"curve: {exc}") from exc


def _build_initial(raw: dict | None, m: int) -> ClassicalState | None:
    if raw is None:
        return None
    if len(raw["actions"]) != m or len(raw["angles"]) != m:
        raise ConfigError(f"initial: actions and angles must have length m={m}")
    return ClassicalState(raw["actions"], raw["angles"])


def _json_path(exc: jsonschema.ValidationError) -> str:
    return "".join(f".{p}" if isinstance(p, str) else f"[{p}]" for p in exc.absolute_path)


def _non_finite_path(value: Any, path: str) -> str | None:
    """JSON path of the first non-finite float in ``value``, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    if isinstance(value, dict):
        items = ((f"{path}.{key}", item) for key, item in value.items())
    elif isinstance(value, (list, tuple)):
        items = ((f"{path}[{i}]", item) for i, item in enumerate(value))
    else:
        return None
    for item_path, item in items:
        found = _non_finite_path(item, item_path)
        if found is not None:
            return found
    return None


def parse_config(payload: Any) -> ExperimentConfig:
    bad = _non_finite_path(payload, "config")
    if bad is not None:
        raise ConfigError(f"{bad}: non-finite number")
    _validate(_CONFIG_VALIDATOR, payload, "config")
    model = _build_model(payload["model"])
    run_raw = payload.get("run", {})
    run = RunSettings(
        steps=run_raw.get("steps", 1000),
        seed=run_raw.get("seed", 1234),
        battery=run_raw.get("battery", "full"),
    )
    curve = _build_curve(payload.get("curve"))
    connection = _build_connection(payload.get("connection"), model.m)
    if connection is not None and curve is not None:
        if curve.dimension != connection.parameter_dim:
            raise ConfigError(
                f"curve dimension {curve.dimension} differs from connection parameter_dim "
                f"{connection.parameter_dim}"
            )
    return ExperimentConfig(
        model=model,
        hamiltonian=_build_hamiltonian(payload.get("hamiltonian"), model.m),
        connection=connection,
        curve=curve,
        initial=_build_initial(payload.get("initial"), model.m),
        run=run,
    )


def _reject_non_finite(token: str) -> float:
    raise ConfigError(f"non-finite number {token} in config")


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        _reject_non_finite(token)
    return value


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as handle:
            payload = json.load(
                handle, parse_constant=_reject_non_finite, parse_float=_finite_float
            )
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    return parse_config(payload)
