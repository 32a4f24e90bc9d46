import copy
import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torus_holonomy
from torus_holonomy import ConfigError, Trajectory
from torus_holonomy.cli import main
from torus_holonomy.config import (
    _CIRCLE_SCHEMA,
    _WAYPOINT_SCHEMA,
    CONFIG_SCHEMA,
    RunSettings,
    _check_keywords,
    _validated,
    parse_config,
)
from torus_holonomy.harness import run_classical, run_holonomy, run_spectrum

ROOT = Path(__file__).parents[1]
CONFIGS = ROOT / "configs"


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _base_model(m=2, controlled=(0,), offsets=(0.0, 0.0), truncation=2):
    return {
        "m": m,
        "controlled": list(controlled),
        "offsets": list(offsets),
        "truncation": truncation,
    }


def _spectrum_config(offsets=(0.0, 0.0)):
    return {
        "schema": 1,
        "model": _base_model(offsets=offsets),
        "hamiltonian": {"terms": [{"exponents": [0, 1], "coefficient": 1.0}]},
    }


def _holonomy_config(**run):
    return {
        "schema": 1,
        "model": _base_model(truncation=3),
        "connection": {
            "parameter_dim": 2,
            "components": [
                {
                    "axis": 0,
                    "parameter": 0,
                    "fourier": [
                        {"shift": [0, 0], "poly": [{"exponents": [0, 0], "coefficient": 0.3},
                                                    {"exponents": [0, 1], "coefficient": 0.2}]}
                    ],
                },
                {
                    "axis": 0,
                    "parameter": 1,
                    "fourier": [
                        {"shift": [0, 0], "poly": [{"exponents": [1, 0], "coefficient": -0.15}]}
                    ],
                },
            ],
        },
        "curve": {"type": "circle", "center": [0.0, 0.0], "radius": 1.0, "duration": 1.0},
        "run": {"steps": 400, **run},
    }


# --- config parsing -------------------------------------------------------------


def test_parse_valid_config():
    config = parse_config(_spectrum_config())
    assert config.model.m == 2
    assert config.hamiltonian is not None
    assert config.run.steps == 1000


def test_parse_rejects_wrong_schema_version():
    payload = _spectrum_config()
    payload["schema"] = 99
    with pytest.raises(ConfigError):
        parse_config(payload)


def test_parse_rejects_out_of_range_axis():
    payload = _spectrum_config()
    payload["model"]["controlled"] = [5]
    with pytest.raises(ConfigError, match="out of range"):
        parse_config(payload)


def test_parse_rejects_bad_exponent_length():
    payload = _spectrum_config()
    payload["hamiltonian"]["terms"][0]["exponents"] = [1]
    with pytest.raises(ConfigError, match="expected length 2"):
        parse_config(payload)


def test_parse_connection_auto_mirrors_reality():
    payload = _holonomy_config()
    payload["connection"]["components"][0]["fourier"] = [
        {"shift": [1, 0], "poly": [{"exponents": [0, 0], "coefficient": [0.1, 0.05]}]}
    ]
    config = parse_config(payload)
    fourier = config.connection.components[(0, 0)]
    assert fourier[(1, 0)].coefficients[(0, 0)] == 0.1 + 0.05j
    assert fourier[(-1, 0)].coefficients[(0, 0)] == 0.1 - 0.05j


def test_parse_rejects_duplicate_shift():
    payload = _holonomy_config()
    payload["connection"]["components"][0]["fourier"] = [
        {"shift": [1, 0], "poly": [{"exponents": [0, 0], "coefficient": 0.1}]},
        {"shift": [-1, 0], "poly": [{"exponents": [0, 0], "coefficient": 0.1}]},
    ]
    with pytest.raises(ConfigError):
        parse_config(payload)


def test_parse_curve_mismatch():
    payload = _holonomy_config()
    payload["curve"] = {"type": "waypoints", "points": [[0.0], [1.0]], "duration": 1.0}
    with pytest.raises(ConfigError, match="parameter_dim"):
        parse_config(payload)


@pytest.mark.parametrize(
    "where, value, expected",
    [
        ("offset", float("nan"), "config.model.offsets[0]"),
        ("radius", float("inf"), "config.curve.radius"),
        ("coefficient", float("-inf"),
         "config.connection.components[1].fourier[0].poly[0].coefficient"),
    ],
)
def test_parse_rejects_non_finite_numbers(where, value, expected):
    payload = _holonomy_config()
    if where == "offset":
        payload["model"]["offsets"][0] = value
    elif where == "radius":
        payload["curve"]["radius"] = value
    else:
        payload["connection"]["components"][1]["fourier"][0]["poly"][0]["coefficient"] = value
    with pytest.raises(ConfigError) as info:
        parse_config(payload)
    assert str(info.value).startswith(f"{expected}: non-finite")


@pytest.mark.parametrize(
    "schema", [CONFIG_SCHEMA, _CIRCLE_SCHEMA, _WAYPOINT_SCHEMA], ids=["config", "circle", "waypoints"]
)
def test_schema_is_valid_draft_2020_12(schema):
    # the package checks payloads with its own validator, never against the meta-schema
    jsonschema.Draft202012Validator.check_schema(schema)


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "string"},
        {"pattern": "x"},
        {"additionalProperties": True},
        {"type": "object", "properties": {"a": {"maxLength": 1}}},
        {"oneOf": [{"type": "number"}, {"type": "array", "uniqueItems": True}]},
        {"type": "array", "items": {"multipleOf": 2}},
    ],
)
def test_schema_keyword_outside_the_supported_set_is_refused(schema):
    with pytest.raises(ValueError, match="supported keywords"):
        _check_keywords(schema)


@pytest.mark.parametrize("value", [1, 1.5, "x"])
def test_one_of_means_exactly_one(value):
    # the shipped schemas have disjoint branches; overlapping ones must still fail on overlap
    schema = {"oneOf": [{"type": "number"}, {"type": "integer"}]}
    error = jsonschema.exceptions.best_match(jsonschema.Draft202012Validator(schema).iter_errors(value))
    if error is None:
        assert _validated(schema, value, "x") == value
    else:
        with pytest.raises(ConfigError) as info:
            _validated(schema, value, "x")
        assert str(info.value) == f"x: {error.message}"


def _bench_configs() -> list[dict]:
    """One config of each shape the benchmark generates."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up while it loads
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    rng = np.random.default_rng(5)
    return [
        workloads.loop_config(rng, 3000),
        workloads.evolve_config(rng, 8, 100),
        workloads.trajectory_config(rng, 4000),
        workloads.mode_config(rng, 3000),
    ]


_BASE_CONFIGS = [json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))] + _bench_configs()
_ODD_VALUES = (True, False, "x", None, [], [1.0], {}, 2.0, 2.5, 0, -1)
_CURVE_FIELDS = ("type", "center", "radius", "axes", "u", "v", "duration", "turns", "phase", "points")
_CURVE_VALUES = ("circle", "waypoints", "square", [0, 1], [0.0, 1.0, 2.0], [1.0, 0.0], [[0.0, 0.0]],
                 [[0.0, 0.0], [1.0, "x"]], 0.5, -1.0, 0.0, *_ODD_VALUES)


def _nodes(value, path=()):
    """Every (path, value) pair of a JSON tree, the root first."""
    yield path, value
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in children:
        yield from _nodes(item, path + (key,))


def _at(payload, path):
    for key in path:
        payload = payload[key]
    return payload


def _fresh(draw, strategy):
    # a copy, so that later edits of the payload never reach the shared value tables
    return copy.deepcopy(draw(strategy))


@st.composite
def _mutated_configs(draw):
    """A shipped or benchmark-shaped config with one or two faults (or fault-like edits)."""
    payload = copy.deepcopy(draw(st.sampled_from(_BASE_CONFIGS)))
    for _ in range(draw(st.integers(1, 2))):
        nodes = list(_nodes(payload))
        kind = draw(st.sampled_from(["drop", "add", "replace", "coefficient", "curve"]))
        if kind == "drop":
            path = draw(st.sampled_from([p for p, v in nodes if p and isinstance(_at(payload, p[:-1]), dict)]))
            del _at(payload, path[:-1])[path[-1]]
        elif kind == "add":
            path = draw(st.sampled_from([p for p, v in nodes if isinstance(v, dict)]))
            _at(payload, path)[draw(st.sampled_from(["extra", "Type", "m"]))] = 1
        elif kind == "replace":
            path = draw(st.sampled_from([p for p, _ in nodes if p]))
            _at(payload, path[:-1])[path[-1]] = _fresh(draw, st.sampled_from(_ODD_VALUES))
        elif kind == "coefficient":
            paths = [p for p, _ in nodes if p and p[-1] == "coefficient"]
            if paths:
                value = st.one_of(st.floats(-1.0, 1.0), st.sampled_from(_ODD_VALUES))
                path = draw(st.sampled_from(paths))
                _at(payload, path[:-1])[path[-1]] = _fresh(draw, st.lists(value, min_size=1, max_size=3))
        elif isinstance(payload.get("curve"), dict):
            payload["curve"][draw(st.sampled_from(_CURVE_FIELDS))] = _fresh(draw, st.sampled_from(_CURVE_VALUES))
        else:
            payload["curve"] = {"type": "circle", "center": [0.0, 0.0], "radius": 1.0, "duration": 1.0}
    return payload


def _integer_values(schema, value):
    """The values at ``integer`` positions of ``schema`` in a valid ``value``."""
    if schema.get("type") == "integer":
        yield value
    for name, sub in schema.get("properties", {}).items():
        if name in value:
            yield from _integer_values(sub, value[name])
    for item in value if "items" in schema else ():
        yield from _integer_values(schema["items"], item)


def _assert_agrees_with_jsonschema(schema, payload, where):
    before = json.dumps(payload)
    errors = list(jsonschema.Draft202012Validator(schema).iter_errors(payload))
    try:
        normalised = _validated(schema, payload, where)
    except ConfigError as exc:
        assert errors, f"accepted by jsonschema, refused here: {exc}"
        if len(errors) == 1 and errors[0].validator != "oneOf":
            (error,) = errors
            path = "".join(f".{p}" if isinstance(p, str) else f"[{p}]" for p in error.absolute_path)
            assert str(exc) == f"{where}{path}: {error.message}"
    else:
        assert not errors, f"refused by jsonschema: {errors[0].message}"
        assert normalised == payload
        assert all(type(v) is int for v in _integer_values(schema, normalised))
    assert json.dumps(payload) == before  # the caller's payload is left as it was


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_mutated_configs())
def test_validator_agrees_with_jsonschema_on_mutated_configs(payload):
    _assert_agrees_with_jsonschema(CONFIG_SCHEMA, payload, "config")
    curve = payload.get("curve")
    if isinstance(curve, dict):  # parse_config checks the curve's own schema next
        schema = _CIRCLE_SCHEMA if curve.get("type") == "circle" else _WAYPOINT_SCHEMA
        _assert_agrees_with_jsonschema(schema, curve, "curve")


_COEFFICIENT = ("connection", "components", 0, "fourier", 0, "poly", 0, "coefficient")


@pytest.mark.parametrize(
    "faults, message",
    [
        ({("schema",): True}, "config.schema: 1 was expected"),
        ({("model", "m"): True}, "config.model.m: True is not of type 'integer'"),
        ({("model", "m"): 2.5}, "config.model.m: 2.5 is not of type 'integer'"),
        ({("model", "m"): 0.0}, "config.model.m: 0.0 is less than the minimum of 1"),
        ({("extra",): 1}, "config: Additional properties are not allowed ('extra' was unexpected)"),
        ({("curve", "duration"): 0}, "curve.duration: 0 is less than or equal to the minimum of 0"),
        ({_COEFFICIENT: [0.1]},
         "config.connection.components[0].fourier[0].poly[0].coefficient: [0.1] is too short"),
        ({_COEFFICIENT: True}, "config.connection.components[0].fourier[0].poly[0].coefficient: "
                               "True is not valid under any of the given schemas"),
        # of two faults at one depth, best_match reports the later sibling
        ({("model", "m"): "x", ("model", "truncation"): "y"},
         "config.model.truncation: 'y' is not of type 'integer'"),
        ({("model", "m"): "x", ("run", "steps"): 0}, "config.run.steps: 0 is less than the minimum of 1"),
    ],
)
def test_parse_reports_jsonschema_wording(faults, message):
    payload = _holonomy_config()
    for path, value in faults.items():
        _at(payload, path[:-1])[path[-1]] = value
    with pytest.raises(ConfigError) as info:
        parse_config(payload)
    assert str(info.value) == message


@pytest.mark.parametrize("bad", [-1, 10**400], ids=["minus_one", "beyond_float_range"])
def test_every_numeric_leaf_replaced_parses_or_raises_config_error(bad):
    escapes = []
    for base in _BASE_CONFIGS:
        for path, value in _nodes(base):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            payload = copy.deepcopy(base)
            _at(payload, path[:-1])[path[-1]] = bad
            try:
                parse_config(payload)
            except ConfigError:
                pass
            except Exception as exc:  # any other exception escapes as a traceback
                escapes.append((path, f"{type(exc).__name__}: {exc}"))
    assert not escapes


@pytest.mark.parametrize(
    "seed, refused", [(2**1024, True), (2**1023, False)], ids=["2**1024", "2**1023"]
)
def test_integer_without_float_value_is_a_non_finite_number(seed, refused):
    payload = _holonomy_config(seed=seed)
    if refused:
        with pytest.raises(ConfigError) as info:
            parse_config(payload)
        assert str(info.value) == "config.run.seed: non-finite number"
    else:
        assert parse_config(payload).run.seed == seed


def test_parse_normalises_integral_floats_without_touching_the_payload():
    payload = _holonomy_config()
    payload["model"].update(m=2.0, controlled=[0.0], truncation=3.0)
    payload["curve"]["axes"] = [0.0, 1.0]
    payload["run"]["steps"] = 400.0
    before = json.dumps(payload)
    config = parse_config(payload)
    assert config == parse_config(_holonomy_config() | {"curve": payload["curve"] | {"axes": [0, 1]}})
    assert type(config.model.m) is int and type(config.model.truncation) is int
    assert type(config.run.steps) is int
    assert json.dumps(payload) == before


# --- spectrum driver --------------------------------------------------------------


def test_spectrum_linear_hamiltonian_levels():
    # H = I_2 at zero offset, N=2: levels -2..2 each carrying 5 modes
    payload = run_spectrum(parse_config(_spectrum_config()))
    values = [level["value"] for level in payload["levels"]]
    assert values == [-2.0, -1.0, 0.0, 1.0, 2.0]
    assert all(level["multiplicity"] == 5 for level in payload["levels"])
    assert payload["levels"][0]["labels"] == [[-2]]


def test_spectrum_zero_hamiltonian_single_level():
    config = parse_config(
        {
            "schema": 1,
            "model": _base_model(),
            "hamiltonian": {"terms": []},
        }
    )
    payload = run_spectrum(config)
    assert len(payload["levels"]) == 1
    assert payload["levels"][0]["value"] == 0.0
    assert payload["levels"][0]["multiplicity"] == 25
    assert len(payload["levels"][0]["labels"]) == 5


def test_spectrum_half_offset_levels():
    payload = run_spectrum(parse_config(_spectrum_config(offsets=(0.0, 0.5))))
    values = [level["value"] for level in payload["levels"]]
    assert values == [-2.5, -1.5, -0.5, 0.5, 1.5]


def test_spectrum_requires_hamiltonian():
    config = parse_config({"schema": 1, "model": _base_model()})
    with pytest.raises(ConfigError):
        run_spectrum(config)


# --- classical driver ---------------------------------------------------------------


def test_classical_zero_connection_constant_actions(tmp_path):
    config = parse_config(
        {
            "schema": 1,
            "model": _base_model(),
            "hamiltonian": {"terms": [{"exponents": [0, 2], "coefficient": 0.5}]},
            "curve": {"type": "waypoints", "points": [[0.0], [1.0]], "duration": 1.0},
            "initial": {"actions": [0.4, 1.2], "angles": [0.0, 0.3]},
            "run": {"steps": 32},
        }
    )
    csv_text = run_classical(config)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "t,I_1,I_2,phi_1,phi_2"
    assert len(lines) == 34
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[1]) == 0.4
        assert float(cells[2]) == 1.2


# --- holonomy driver -----------------------------------------------------------------


def test_holonomy_driver_payloads():
    matrix, diagnostics = run_holonomy(parse_config(_holonomy_config()))
    assert matrix["format"] == "operator"
    assert matrix["shape"] == [7, 7]
    assert diagnostics["steps"] == [400, 200]
    assert diagnostics["unitarity_defect"][0] <= 1e-10
    # angle-independent connection: refinement already converged
    assert diagnostics["refinement_deviation"] <= 1e-8


def test_holonomy_driver_rejects_open_curve():
    payload = _holonomy_config()
    payload["curve"]["turns"] = 0.5
    from torus_holonomy import OpenCurveError

    with pytest.raises(OpenCurveError):
        run_holonomy(parse_config(payload))


# --- CLI ------------------------------------------------------------------------------


def test_cli_spectrum_roundtrip(tmp_path):
    cfg = _write(tmp_path / "cfg.json", _spectrum_config())
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet", "spectrum"]) == 0
    payload = json.loads((out / "spectrum.json").read_text())
    assert payload["format"] == "spectrum"
    assert len(payload["levels"]) == 5


def test_cli_deterministic_outputs(tmp_path):
    cfg = _write(tmp_path / "cfg.json", _holonomy_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--config", cfg, "--out", str(out1), "--quiet", "holonomy"]) == 0
    assert main(["--config", cfg, "--out", str(out2), "--quiet", "holonomy"]) == 0
    assert (out1 / "holonomy.json").read_bytes() == (out2 / "holonomy.json").read_bytes()


def test_cli_malformed_config_exit2_no_partial(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out"
    assert main(["--config", str(bad), "--out", str(out), "--quiet", "classical"]) == 2
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize(
    "field, token",
    [("offset", "NaN"), ("radius", "Infinity"), ("radius", "-Infinity"), ("offset", "1e999")],
)
def test_cli_non_finite_number_exit2_no_output(tmp_path, capsys, field, token):
    payload = _holonomy_config()
    if field == "offset":
        payload["model"]["offsets"][0] = "@"
    else:
        payload["curve"]["radius"] = "@"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload).replace('"@"', token))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet", "holonomy"]) == 2
    assert token in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize(
    "path, value",
    [
        (("connection", "components", 0, "fourier", 0, "poly", 0, "exponents", 1), -1),
        (("model", "offsets", 0), 10**400),
        (("curve", "duration"), 10**400),
    ],
    ids=["negative_connection_exponent", "huge_integer_offset", "huge_integer_duration"],
)
def test_cli_config_fault_exit2_without_traceback_or_output(tmp_path, capsys, path, value):
    payload = _holonomy_config()
    _at(payload, path[:-1])[path[-1]] = value
    cfg = _write(tmp_path / "cfg.json", payload)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet", "holonomy"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config.") and "Traceback" not in err
    assert not out.exists() or not list(out.iterdir())


def test_cli_schema_violation_exit2(tmp_path):
    payload = _spectrum_config()
    payload["model"]["truncation"] = 0
    cfg = _write(tmp_path / "cfg.json", payload)
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet", "spectrum"]) == 2
    assert not (tmp_path / "spectrum.json").exists()


@pytest.mark.parametrize("truncation", ["1e300", "10000000000000000000"])
def test_cli_unindexable_truncation_exit2(tmp_path, capsys, truncation):
    # a box of more than intp-max modes is refused before any array is built
    raw = json.loads((CONFIGS / "spectrum_quadratic.json").read_text())
    raw["model"]["truncation"] = "@"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw).replace('"@"', truncation))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet", "spectrum"]) == 2
    err = capsys.readouterr().err
    assert "truncation" in err and "Traceback" not in err
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize(
    "command, config", [("spectrum", "spectrum_quadratic.json"), ("holonomy", "abelian_loop.json")]
)
def test_cli_integral_floats_at_integer_fields_run_as_integers(tmp_path, capsys, command, config):
    raw = json.loads((CONFIGS / config).read_text())
    outputs = []
    for name, m, truncation in (("ints", 2, 8), ("floats", 2.0, 8.0)):
        raw["model"].update(m=m, truncation=truncation)
        out = tmp_path / name
        argv = ["--config", _write(tmp_path / f"{name}.json", raw), "--out", str(out), "--quiet"]
        assert main([*argv, "--steps", "200", command]) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outputs[0] == outputs[1]
    raw["model"]["m"] = 2.5
    out = tmp_path / "half"
    argv = ["--config", _write(tmp_path / "half.json", raw), "--out", str(out), "--quiet", command]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == "config error: config.model.m: 2.5 is not of type 'integer'\n"
    assert not out.exists()


def test_cli_open_curve_exit3(tmp_path):
    payload = _holonomy_config()
    payload["curve"]["turns"] = 0.5
    cfg = _write(tmp_path / "cfg.json", payload)
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet", "holonomy"]) == 3
    assert not (tmp_path / "holonomy.json").exists()


@pytest.mark.parametrize("command", ["holonomy", "evolve"])
def test_cli_split_violation_exit3_names_the_shift(tmp_path, capsys, command):
    payload = _holonomy_config(steps=16)
    payload["hamiltonian"] = {"terms": [{"exponents": [0, 2], "coefficient": 0.5}]}
    payload["connection"]["components"][0]["fourier"][0]["shift"] = [1, 1]
    cfg = _write(tmp_path / "cfg.json", payload)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet", command]) == 3
    err = capsys.readouterr().err
    assert err == "precondition error: Fourier shift (1, 1) touches axes outside (0,)\n"
    assert not out.exists()


def _square_loop_config(tmp_path) -> str:
    payload = _holonomy_config()
    square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]
    payload["curve"] = {"type": "waypoints", "points": square, "duration": 1.0}
    return _write(tmp_path / "cfg.json", payload)


@pytest.mark.parametrize("steps, grid", [(3, 3)])
def test_cli_too_few_steps_for_segments_exit3(tmp_path, capsys, steps, grid):
    cfg = _square_loop_config(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--steps", str(steps), "holonomy"]) == 3
    err = capsys.readouterr().err
    assert err == f"precondition error: {grid} steps cannot cover 4 smooth segments\n"
    assert not out.exists()


def test_cli_holonomy_refines_upward_when_half_steps_miss_segments(tmp_path):
    # 5 steps cover the 4 segments, 5 // 2 would not: the refinement run doubles instead.
    cfg = _square_loop_config(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet", "--steps", "5", "holonomy"]) == 0
    diag = json.loads((out / "holonomy_diagnostics.json").read_text())
    assert diag["steps"] == [5, 10]
    assert diag["refinement_deviation"] > 0.0


def test_cli_steps_override(tmp_path):
    cfg = _write(tmp_path / "cfg.json", _holonomy_config())
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet", "--steps", "128", "holonomy"]) == 0
    diag = json.loads((out / "holonomy_diagnostics.json").read_text())
    assert diag["steps"] == [128, 64]


def test_cli_config_selecting_a_battery_exit2_no_output(tmp_path, capsys):
    # there is one verify battery; run takes only steps and seed
    cfg = _write(
        tmp_path / "cfg.json",
        {"schema": 1, "model": _base_model(), "run": {"battery": "quick", "seed": 7}},
    )
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet", "verify"]) == 2
    assert "battery" in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


def test_run_schema_properties_are_the_run_settings_fields():
    properties = CONFIG_SCHEMA["properties"]["run"]["properties"]
    assert set(properties) == {f.name for f in dataclasses.fields(RunSettings)}


def test_cli_holonomy_diagnostics_keys(tmp_path):
    out = tmp_path / "out"
    assert main(["--config", str(CONFIGS / "abelian_loop.json"), "--out", str(out), "--quiet",
                 "holonomy"]) == 0
    diagnostics = json.loads((out / "holonomy_diagnostics.json").read_text())
    assert set(diagnostics) == {"format", "refinement_deviation", "steps", "unitarity_defect"}


def test_cli_verify_report_keys(tmp_path, monkeypatch):
    from torus_holonomy import verify

    monkeypatch.setattr(verify, "_FULL_BATTERY", (verify.check_diagonality,))
    out = tmp_path / "out"
    assert main(["--out", str(out), "--quiet", "verify"]) == 0
    assert set(json.loads((out / "verify.json").read_text())) == {"checks", "format", "passed", "seed"}


def test_cli_verify_failed_refinement_exit4_with_report(tmp_path, capsys, monkeypatch):
    from types import SimpleNamespace

    from torus_holonomy import propagation, verify

    deviations = iter([1e-7, 2e-7])  # the refined run does not decrease the deviation
    monkeypatch.setattr(
        propagation, "evolve_full", lambda *args: SimpleNamespace(deviation=next(deviations))
    )
    monkeypatch.setattr(verify, "_FULL_BATTERY", (verify.check_factorization,))
    out = tmp_path / "out"
    assert main(["--out", str(out), "verify"]) == 4
    (check,) = json.loads((out / "verify.json").read_text())["checks"]
    assert check["passed"] is False and check["measured"] is None
    assert "did not decrease" in check["detail"]
    assert "FAIL factorized_vs_reference: non-finite <=" in capsys.readouterr().out


def test_cli_classical_writes_csv(tmp_path):
    payload = {
        "schema": 1,
        "model": _base_model(),
        "hamiltonian": {"terms": [{"exponents": [0, 2], "coefficient": 0.5}]},
        "curve": {"type": "waypoints", "points": [[0.0], [1.0]], "duration": 1.0},
        "initial": {"actions": [0.4, 1.2], "angles": [0.0, 0.3]},
        "run": {"steps": 16},
    }
    cfg = _write(tmp_path / "cfg.json", payload)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet", "classical"]) == 0
    text = (out / "trajectory.csv").read_text()
    assert text.startswith("t,I_1,I_2,phi_1,phi_2\n")


def test_cli_classical_unbounded_flow_exit3_no_output(tmp_path, capsys):
    # a 1e3 Fourier term swept over 2000 parameter units: h * |L . v| is of
    # order 1e3, RK4 blows up, and the nan rows are refused unwritten
    payload = json.loads((CONFIGS / "classical_drift.json").read_text())
    payload["connection"]["components"][0]["fourier"] = [
        {"shift": [1, 0], "poly": [{"exponents": [0], "coefficient": 1e3}]}
    ]
    payload["curve"]["points"] = [[0.0], [2000.0]]
    cfg = _write(tmp_path / "cfg.json", payload)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet", "classical"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-finite" in err and "Traceback" not in err
    assert not out.exists() or not list(out.iterdir())


def test_cli_classical_overflowing_power_exit3_no_output(tmp_path, capsys):
    # H = 1e5 I_1^3 at I_1 = 1e200: the gradient's power overflows a float
    # in the first RK4 stage, and the run ends with one error line
    payload = json.loads((CONFIGS / "classical_drift.json").read_text())
    payload["hamiltonian"] = {"terms": [{"exponents": [0, 3], "coefficient": 1e5}]}
    payload["initial"]["actions"] = [1.0, 1e200]
    payload["curve"] = {"type": "waypoints", "points": [[0.0], [1.0]], "duration": 1.0}
    payload["run"]["steps"] = 50
    cfg = _write(tmp_path / "cfg.json", payload)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet", "classical"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "did not stay bounded" in err
    assert len(err.splitlines()) == 1
    assert not out.exists() or not list(out.iterdir())


def test_cli_evolve_writes_matrix_and_diagnostics(tmp_path):
    payload = _holonomy_config()
    payload["model"]["truncation"] = 2
    payload["hamiltonian"] = {"terms": [{"exponents": [0, 2], "coefficient": 0.5}]}
    payload["run"]["steps"] = 64
    cfg = _write(tmp_path / "cfg.json", payload)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet", "evolve"]) == 0
    matrix = json.loads((out / "evolution.json").read_text())
    diag = json.loads((out / "evolution_diagnostics.json").read_text())
    assert matrix["format"] == "operator"
    assert matrix["shape"] == [25, 25]
    assert matrix["model"]["truncation"] == 2
    assert len(matrix["entries"]) == 625 and len(matrix["entries"][0]) == 2
    assert diag["route_deviation"] <= 1e-5
    assert diag["factorized_unitarity_defect"] <= 1e-10


def test_run_evolve_lifts_only_the_factorized_route(monkeypatch):
    # the payload is the one full-lattice matrix evolve builds; the reference
    # route stays a stack of controlled blocks
    from torus_holonomy import harness, propagation

    lifted = []
    lift = propagation._lift_controlled
    monkeypatch.setattr(
        propagation, "_lift_controlled", lambda model, block: lifted.append(block.shape) or lift(model, block)
    )
    payload = _holonomy_config(steps=16)
    payload["model"]["truncation"] = 2
    payload["hamiltonian"] = {"terms": [{"exponents": [0, 2], "coefficient": 0.5}]}
    matrix, diagnostics = harness.run_evolve(parse_config(payload))
    assert lifted == [(5, 5, 5)]
    assert matrix["shape"] == [25, 25] and diagnostics["steps"] == 16


def test_operator_payload_roundtrip():
    # entries are row-major [re, im] pairs under a model echo
    from torus_holonomy import TorusModel, action_operator
    from torus_holonomy.serialize import operator_payload

    model = TorusModel(1, (0,), (0.25,), 1)
    payload = operator_payload(action_operator(model, 0))
    assert payload["shape"] == [3, 3]
    assert payload["model"] == {"m": 1, "controlled": [0], "offsets": [0.25], "truncation": 1}
    entries = np.array(payload["entries"]).reshape(3, 3, 2)
    assert np.allclose(entries[..., 1], 0.0)
    assert np.allclose(np.diag(entries[..., 0]), [-1.25, -0.25, 0.75])


def test_atomic_write_uses_umask_mode(tmp_path):
    from torus_holonomy.serialize import atomic_write_text

    previous = os.umask(0o027)
    try:
        atomic_write_text(str(tmp_path / "a.txt"), "x\n")
    finally:
        os.umask(previous)
    assert (tmp_path / "a.txt").stat().st_mode & 0o777 == 0o640
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]


def test_atomic_write_json_refuses_non_finite(tmp_path):
    from torus_holonomy import OperatorMatrix, TorusHolonomyError, TorusModel
    from torus_holonomy.serialize import atomic_write_json, operator_payload

    with pytest.raises(TorusHolonomyError):
        atomic_write_json(str(tmp_path / "d.json"), {"defect": np.float64("nan")})
    assert not list(tmp_path.iterdir())

    model = TorusModel(1, (0,), (0.0,), 1)
    matrix = np.eye(model.size, dtype=complex)
    matrix[1, 2] = complex(0.0, np.nan)
    with pytest.raises(TorusHolonomyError):
        atomic_write_json(str(tmp_path / "op.json"), operator_payload(OperatorMatrix(model, matrix)))
    assert not list(tmp_path.iterdir())


@st.composite
def _payload_operators(draw):
    """Complex operators up to 39x39: dense or block diagonal, with signed zeros."""
    from torus_holonomy import OperatorMatrix, TorusModel

    m, truncation = draw(st.sampled_from([(1, n) for n in range(1, 20)] + [(2, 1), (2, 2), (3, 1)]))
    model = TorusModel(m, (0,), (0.0,) * m, truncation)
    n = model.size
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # a scale of 1e-310 makes subnormals, and underflows some parts to a signed zero
    scale = draw(st.sampled_from([1.0, 1e-310, 1e300]))
    matrix = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    kind = draw(st.sampled_from(["dense", "block diagonal", "signed zeros"]))
    if kind != "dense":
        labels = np.sort(rng.integers(0, max(1, n // 4), size=n))
        matrix[labels[:, None] != labels[None, :]] = 0.0
    if kind == "signed zeros":
        for part in (matrix.real, matrix.imag):
            mask = rng.random((n, n)) < 0.3
            part[mask] = rng.choice([0.0, -0.0], size=int(mask.sum()))
    bad = draw(st.sampled_from([None, None, float("nan"), float("inf"), -float("inf")]))
    if bad is not None:
        part = matrix.real if rng.random() < 0.5 else matrix.imag
        part[tuple(rng.integers(0, n, size=2))] = bad
    return OperatorMatrix(model, matrix), bad is not None


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_payload_operators())
def test_operator_payload_writes_the_list_form_bytes(case):
    from torus_holonomy import TorusHolonomyError
    from torus_holonomy.serialize import json_text, operator_payload

    op, non_finite = case
    payload = operator_payload(op)
    # the oracle is the list-per-entry payload, encoded as json_text used to
    lists = np.stack((op.matrix.real, op.matrix.imag), -1).reshape(-1, 2).tolist()
    oracle = {**payload, "entries": lists}
    entries = payload["entries"]
    assert all(type(e) is tuple and list(map(type, e)) == [float, float] for e in entries)
    words = op.matrix.reshape(-1).view(np.uint64).reshape(-1, 2)
    zeros = [e for e, w in zip(entries, words.tolist()) if w == [0, 0]]
    assert all(e is zeros[0] for e in zeros) and (not zeros or zeros[0] == (0.0, 0.0))
    if non_finite:
        with pytest.raises(ValueError):
            json.dumps(oracle, sort_keys=True, allow_nan=False)
        with pytest.raises(TorusHolonomyError):
            json_text(payload)
        return
    # every part keeps its bits, the sign of a -0.0 included
    assert np.array_equal(np.array(entries, dtype=float).view(np.uint64), words)
    assert json_text(payload) == json.dumps(oracle, sort_keys=True, allow_nan=False) + "\n"


def test_json_text_writes_operator_keys_around_the_entries_in_sorted_order():
    # an operator payload's entries are rendered apart from its other keys;
    # keys that sort before and after "entries" keep json.dumps' order and form
    from torus_holonomy import OperatorMatrix, TorusModel
    from torus_holonomy.serialize import _numpy_value, json_text, operator_payload

    model = TorusModel(1, (0,), (0.25,), 1)
    matrix = np.diag([1.5, -0.0, 2.0**-1074]).astype(complex)
    matrix[0, 2] = complex(-3.0, 1e300)
    payload = {**operator_payload(OperatorMatrix(model, matrix)),
               "alpha": [np.float64(0.1), "entries"], "zeta": {"n": np.int64(-2)}}
    want = json.dumps(payload, sort_keys=True, allow_nan=False, default=_numpy_value) + "\n"
    assert json_text(payload) == want


def test_json_text_round_trips_numpy_values():
    from torus_holonomy.serialize import json_text

    payload = {
        "count": np.int64(7),
        "defect": np.float32(0.25),
        "passed": np.bool_(True),
        "levels": np.array([[1.5, -2.0], [0.0, 3.25]]),
        "nested": [{"label": np.int64(-3)}],
    }
    text = json_text(payload)
    assert text.endswith("}\n") and text.count("\n") == 1
    assert json.loads(text) == {**payload, "levels": [[1.5, -2.0], [0.0, 3.25]]}


_CSV_VALUES = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300, 3.0, -7.0, 2.0**53, 1e16]),
    st.integers(-(2**60), 2**60).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _trajectories(draw):
    m = draw(st.integers(1, 3))
    times = sorted(draw(st.lists(_CSV_VALUES, min_size=1, max_size=6, unique=True)))
    rows = len(times)
    cells = st.lists(_CSV_VALUES, min_size=rows * m, max_size=rows * m)
    actions = np.array(draw(cells)).reshape(rows, m)
    angles = np.array(draw(cells)).reshape(rows, m)
    return Trajectory(np.array(times), actions, angles)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_trajectories())
def test_trajectory_csv_matches_per_value_formatting(trajectory):
    from torus_holonomy.serialize import trajectory_csv

    m = trajectory.actions.shape[1]
    header = ["t"] + [f"I_{k + 1}" for k in range(m)] + [f"phi_{k + 1}" for k in range(m)]
    lines = [",".join(header)]
    for i in range(len(trajectory)):
        row = [trajectory.times[i], *trajectory.actions[i], *trajectory.angles[i]]
        lines.append(",".join(f"{v:.17g}" for v in row))
    assert trajectory_csv(trajectory) == "\n".join(lines) + "\n"


@pytest.mark.parametrize("bad", ["matrix", "diagnostics"])
def test_cli_non_finite_result_exit3_no_output(tmp_path, capsys, monkeypatch, bad):
    from torus_holonomy import harness

    def run_with_nan(config):
        matrix, diagnostics = run_holonomy(config)
        if bad == "matrix":
            matrix["entries"][0] = (float("nan"), 0.0)
        else:
            diagnostics["refinement_deviation"] = float("inf")
        return matrix, diagnostics

    monkeypatch.setattr(harness, "run_holonomy", run_with_nan)
    cfg = _write(tmp_path / "cfg.json", _holonomy_config(steps=20))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet", "holonomy"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists() or not list(out.iterdir())


# a numpy warning fails the test: the CLI quiets them itself
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["holonomy", "evolve"])
def test_cli_overflowing_generator_exit3_no_output(tmp_path, capsys, command):
    # a finite coefficient whose step weights overflow: the stacked
    # exponentials give a non-finite operator, and json_text's non-finite
    # refusal stops it before any file is created (for evolve too: its
    # reference route builds no field per step to refuse)
    payload = json.loads((CONFIGS / "abelian_loop.json").read_text())
    payload["connection"]["components"][0]["fourier"][0]["poly"][0]["coefficient"] = 1e308
    cfg = _write(tmp_path / "cfg.json", payload)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet", command]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists() or not list(out.iterdir())


def _modules_after(code: str, *argv: str) -> tuple[int, set[str], str]:
    """Run ``code`` in a fresh interpreter: the exit status it leaves in ``status``,
    the modules loaded at its end, and what it printed on stderr."""
    code += "; import json; print(json.dumps(sorted(sys.modules))); sys.exit(status)"
    env = dict(os.environ, PYTHONPATH=str(Path(torus_holonomy.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    return run.returncode, set(json.loads(run.stdout.strip().splitlines()[-1])), run.stderr


_CLI_MAIN = "import sys; from torus_holonomy.cli import main; status = main(sys.argv[1:])"


def test_cli_overflowing_spectrum_prints_one_error_line(tmp_path):
    # I_1 ** 1e18 overflows while the levels are built; numpy would warn on
    # stderr, with a source path, ahead of the error line.  In a fresh
    # interpreter, as a user's run sees it: no warning filter of the tests
    # stands between the run and its stderr.
    payload = json.loads((CONFIGS / "spectrum_quadratic.json").read_text())
    payload["hamiltonian"]["terms"][0]["exponents"] = [0, 10**18]
    cfg = _write(tmp_path / "cfg.json", payload)
    out = tmp_path / "out"
    status, _, err = _modules_after(_CLI_MAIN, "--config", cfg, "--out", str(out), "spectrum")
    assert status == 3
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not out.exists() or not list(out.iterdir())


# jsonschema and the packages it loads; the tests use it as an oracle only
_JSONSCHEMA = ("jsonschema", "referencing", "jsonschema_specifications", "rpds")


def _loaded(modules: set[str], *packages: str) -> list[str]:
    """The loaded modules that are one of ``packages`` or inside one."""
    return sorted(m for m in modules if m.split(".")[0] in packages)


def test_import_loads_no_heavy_optional_modules():
    # Every CLI run and benchmark set-up pays the package import.
    heavy = ("scipy.signal", "sympy", "hypothesis")
    code = "import sys, torus_holonomy, torus_holonomy.cli, torus_holonomy.harness, torus_holonomy.verify"
    status, modules, _ = _modules_after(code + "; status = 0")
    assert status == 0
    assert [m for m in heavy if m in modules] == []
    assert _loaded(modules, "scipy", *_JSONSCHEMA) == []


@pytest.mark.parametrize(
    "command,config",
    [
        ("spectrum", "spectrum_quadratic.json"),
        ("classical", "classical_drift.json"),
        ("holonomy", "abelian_loop.json"),
        ("evolve", "abelian_loop.json"),
        ("verify", None),
    ],
)
def test_cli_commands_load_no_scipy(tmp_path, command, config):
    # scipy is a test-only oracle: evolve's reference exponential and the
    # Dirac residual that verify checks are numpy code.  A run on a shipped
    # config prints nothing on stderr.
    argv = ("--out", str(tmp_path), "--quiet", command)
    if config:
        argv = ("--config", str(CONFIGS / config), *argv)
    status, modules, err = _modules_after(_CLI_MAIN, *argv)
    assert status == 0 and err == ""
    assert _loaded(modules, "scipy", *_JSONSCHEMA) == []
