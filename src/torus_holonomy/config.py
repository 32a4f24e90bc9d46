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
import numbers
from dataclasses import dataclass, field
from typing import Any

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
_EXPONENTS = {"type": "array", "items": {"type": "integer", "minimum": 0}}
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
                            "exponents": _EXPONENTS,
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
                                                    "exponents": _EXPONENTS,
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


# The schema dicts above are the only statement of the format.  They are
# checked by ``_check`` below, which knows these keywords with their draft
# 2020-12 meaning and jsonschema's error wording; a schema that uses any
# other keyword is refused at import.
_KEYWORDS = frozenset({
    "$schema", "type", "const", "enum", "oneOf", "required", "properties",
    "additionalProperties", "items", "minItems", "maxItems", "minimum", "exclusiveMinimum",
})
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    # 2.0 is an integer; True is not
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}


def _check_keywords(schema: dict) -> None:
    """Raise ``ValueError`` if ``schema`` or a subschema steps outside what ``_check`` knows."""
    if (
        not _KEYWORDS.issuperset(schema)
        or schema.get("type", "object") not in _TYPES
        or schema.get("additionalProperties", False) is not False
    ):
        raise ValueError(f"schema outside the supported keywords: {schema!r}")
    items = [schema["items"]] if "items" in schema else []
    for sub in [*schema.get("properties", {}).values(), *schema.get("oneOf", ()), *items]:
        _check_keywords(sub)


for _schema in (CONFIG_SCHEMA, _CIRCLE_SCHEMA, _WAYPOINT_SCHEMA):
    _check_keywords(_schema)


def _equal(a: Any, b: Any) -> bool:
    # const and enum hold scalars here; as in JSON, true is not 1
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _check(schema: dict, value: Any, path: tuple, errors: list) -> Any:
    """Append ``value``'s violations of ``schema`` to ``errors``; return a copy of
    ``value`` in which every value at an ``integer`` position is an ``int``.

    An error is ``(path, message, keyword, mismatched, context)``, where
    ``mismatched`` says ``value`` is not of the schema's type (or it has none)
    and ``context`` holds the errors of the ``oneOf`` branches.
    """
    kind = schema.get("type")
    mismatched = kind is None or not _TYPES[kind](value)
    is_object, is_array = isinstance(value, dict), isinstance(value, list)
    is_number = _TYPES["number"](value)
    out = dict(value) if is_object else list(value) if is_array else value

    def fail(keyword: str, message: str, context: list = ()) -> None:
        errors.append((path, message, keyword, mismatched, context))

    for keyword, arg in schema.items():
        if keyword == "type" and mismatched:
            fail(keyword, f"{value!r} is not of type {arg!r}")
        elif keyword == "const" and not _equal(value, arg):
            fail(keyword, f"{arg!r} was expected")
        elif keyword == "enum" and not any(_equal(value, e) for e in arg):
            fail(keyword, f"{value!r} is not one of {arg!r}")
        elif keyword == "oneOf":
            context: list = []
            passed = []
            for sub in arg:
                branch: list = []
                checked = _check(sub, value, path, branch)
                context += branch
                if not branch:
                    passed.append((sub, checked))
            if not passed:
                fail(keyword, f"{value!r} is not valid under any of the given schemas", context)
            elif len(passed) > 1:
                reprs = ", ".join(repr(s) for s, _ in passed[1:] + passed[:1])
                fail(keyword, f"{value!r} is valid under each of {reprs}")
            else:
                out = passed[0][1]
        elif keyword == "required" and is_object:
            for name in arg:
                if name not in value:
                    fail(keyword, f"{name!r} is a required property")
        elif keyword == "properties" and is_object:
            for name, sub in arg.items():
                if name in value:
                    out[name] = _check(sub, value[name], path + (name,), errors)
        elif keyword == "additionalProperties" and is_object:
            extras = sorted(set(value) - set(schema.get("properties", {})), key=str)
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                names = ", ".join(repr(e) for e in extras)
                fail(keyword, f"Additional properties are not allowed ({names} {verb} unexpected)")
        elif keyword == "items" and is_array:
            out = [_check(arg, item, path + (i,), errors) for i, item in enumerate(value)]
        elif keyword == "minItems" and is_array and len(value) < arg:
            fail(keyword, f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}")
        elif keyword == "maxItems" and is_array and len(value) > arg:
            fail(keyword, f"{value!r} {'is expected to be empty' if arg == 0 else 'is too long'}")
        elif keyword == "minimum" and is_number and value < arg:
            fail(keyword, f"{value!r} is less than the minimum of {arg!r}")
        elif keyword == "exclusiveMinimum" and is_number and value <= arg:
            fail(keyword, f"{value!r} is less than or equal to the minimum of {arg!r}")
    return int(value) if kind == "integer" and not mismatched else out


def _relevance(error: tuple) -> tuple:
    """jsonschema's ``relevance`` key: shallow paths, then later siblings, then
    errors not from ``oneOf``, then errors whose value has the wrong type."""
    path, _, keyword, mismatched, _ = error
    return (-len(path), path, keyword != "oneOf", mismatched)


def _validated(schema: dict, payload: Any, where: str) -> Any:
    """The normalised copy of ``payload``, or ``ConfigError`` for the error
    ``jsonschema.exceptions.best_match`` would pick."""
    errors: list = []
    normalised = _check(schema, payload, (), errors)
    if not errors:
        return normalised
    best = max(errors, key=_relevance)
    while best[4]:  # a oneOf error: descend to its deepest branch error, unless tied
        first, *rest = sorted(best[4], key=_relevance)[:2]
        if rest and _relevance(first) == _relevance(rest[0]):
            break
        best = first
    path = "".join(f".{p}" if isinstance(p, str) else f"[{p}]" for p in best[0])
    raise ConfigError(f"{where}{path}: {best[1]}")


@dataclass(frozen=True)
class RunSettings:
    steps: int = 1000
    seed: int = 1234


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


def _section(payload: dict, name: str, build, *args):
    """``build(payload[name], *args)``, or None when the section is absent.

    The objects a section builds own the rules that relate its fields; a
    ``ValueError`` they raise becomes ``ConfigError("<name>: <message>")``.
    """
    raw = payload.get(name)
    if raw is None:
        return None
    try:
        return build(raw, *args)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _build_hamiltonian(raw: dict, m: int) -> ActionPolynomial:
    terms: dict[tuple[int, ...], float] = {}
    for term in raw["terms"]:
        exps = tuple(term["exponents"])
        terms[exps] = terms.get(exps, 0.0) + term["coefficient"]
    return ActionPolynomial(m, terms)


def _build_connection(raw: dict, m: int) -> ControlConnection:
    d = raw["parameter_dim"]
    half: dict[tuple[int, int], dict[tuple[int, ...], ParameterPolynomial]] = {}
    for i, comp in enumerate(raw["components"]):
        entry = half.setdefault((comp["axis"], comp["parameter"]), {})
        for j, item in enumerate(comp["fourier"]):
            shift = tuple(item["shift"])
            if shift in entry:
                raise ConfigError(
                    f"connection.components[{i}].fourier[{j}]: duplicate shift {shift}"
                )
            coeffs: dict[tuple[int, ...], complex] = {}
            for mono in item["poly"]:
                exps = tuple(mono["exponents"])
                coeffs[exps] = coeffs.get(exps, 0.0) + _complex_value(mono["coefficient"])
            entry[shift] = ParameterPolynomial(d, coeffs)
    return ControlConnection.from_half_spectrum(m, d, half)


def _build_curve(raw: dict) -> ParameterCurve:
    raw = _validated(_CIRCLE_SCHEMA if raw.get("type") == "circle" else _WAYPOINT_SCHEMA, raw, "curve")
    if raw["type"] == "waypoints":
        return WaypointPath(raw["points"], raw["duration"])
    turns, phase = raw.get("turns", 1.0), raw.get("phase", 0.0)
    if "u" in raw or "v" in raw:
        if not ("u" in raw and "v" in raw):
            raise ConfigError("curve: give both u and v, or a radius")
        return CirclePath(raw["center"], raw["u"], raw["v"], raw["duration"], turns, phase)
    if "radius" not in raw:
        raise ConfigError("curve: circle needs a radius or explicit u/v spans")
    return CirclePath.circle(
        raw["center"], raw["radius"], raw["duration"], raw.get("axes", (0, 1)), turns, phase
    )


def _build_initial(raw: dict, m: int) -> ClassicalState:
    if len(raw["actions"]) != m or len(raw["angles"]) != m:
        raise ConfigError(f"initial: actions and angles must have length m={m}")
    return ClassicalState(raw["actions"], raw["angles"])


def _non_finite_path(value: Any, path: str) -> str | None:
    """JSON path of the first number in ``value`` with no finite float value, or None."""
    if isinstance(value, (int, float)):
        try:
            return None if math.isfinite(value) else path
        except OverflowError:  # an integer beyond float range
            return path
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
    payload = _validated(CONFIG_SCHEMA, payload, "config")
    model = _section(payload, "model", lambda raw: TorusModel(**raw))
    curve = _section(payload, "curve", _build_curve)
    connection = _section(payload, "connection", _build_connection, model.m)
    if connection is not None and curve is not None:
        if curve.dimension != connection.parameter_dim:
            raise ConfigError(
                f"curve dimension {curve.dimension} differs from connection parameter_dim "
                f"{connection.parameter_dim}"
            )
    return ExperimentConfig(
        model=model,
        hamiltonian=_section(payload, "hamiltonian", _build_hamiltonian, model.m),
        connection=connection,
        curve=curve,
        initial=_section(payload, "initial", _build_initial, model.m),
        run=RunSettings(**payload.get("run", {})),
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
