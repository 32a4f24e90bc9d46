import json

import numpy as np
import pytest

from torus_holonomy import (
    ActionPolynomial,
    TorusModel,
    lambda_shift_equivalence,
)
from torus_holonomy.cli import main
from torus_holonomy.verify import (
    BatteryReport,
    abelian_control_phases,
    run_battery,
)

ABELIAN_TOL = 1e-8  # the tolerance of verify's abelian_closed_form check


def test_full_default_battery_passes():
    # the default battery on a correct build passes outright
    report = run_battery()
    assert report.passed, [c.to_dict() for c in report.checks if not c.passed]
    assert len(report.checks) == 17


def test_battery_passes_its_seed_to_the_seeded_checks(monkeypatch):
    from torus_holonomy import verify

    seen = {}

    def recorder(name):
        def check(seed=None):
            seen[name] = seed
            return verify.CheckResult(name, 0.0, 0.0)

        return check

    names = ("check_orthonormality", "check_dirac", "check_hermiticity", "check_diagonality")
    for name in names:
        monkeypatch.setattr(verify, name, recorder(name))
    monkeypatch.setattr(verify, "_FULL_BATTERY", tuple(getattr(verify, name) for name in names))
    report = run_battery(99)
    assert isinstance(report, BatteryReport) and report.seed == 99 and report.passed
    assert seen == dict(zip(names, (99, 99, 99, None)))


def test_fault_injection_corrupted_offset_is_flagged():
    # a representation whose offset drifted by a non-integer amount is not
    # gauge-equivalent; the spectral comparison must say so loudly.
    model = TorusModel(2, (0,), (0.25, 0.5), 6)
    ham = ActionPolynomial(2, {(0, 1): 1.0})
    assert lambda_shift_equivalence(model, ham, (0.0, 1.0)) <= 1e-12
    assert lambda_shift_equivalence(model, ham, (0.0, 1.0 + 0.07)) > 0.01


def test_abelian_oracle_rejects_angle_dependence():
    from torus_holonomy import CirclePath, ControlConnection, ParameterPolynomial

    model = TorusModel(1, (0,), (0.0,), 3)
    conn = ControlConnection.from_half_spectrum(
        1, 2, {(0, 0): {(1,): ParameterPolynomial(2, {(0, 0): 0.1})}}
    )
    with pytest.raises(ValueError):
        abelian_control_phases(model, conn, CirclePath.circle((0.0, 0.0), 1.0, 1.0))


def test_abelian_oracle_independent_of_curve_sample(monkeypatch):
    # the closed form must not read the path through sample(), which the
    # ordered product it checks uses: a wrong sample() has to show as a gap
    from torus_holonomy import CirclePath, ControlConnection, ParameterPolynomial, holonomy

    model = TorusModel(2, (0,), (0.25, 0.5), 8)
    zero = (0, 0)
    conn = ControlConnection(
        2,
        2,
        {
            (0, 0): {zero: ParameterPolynomial(2, {(0, 0): 0.3, (0, 1): 0.2})},
            (0, 1): {zero: ParameterPolynomial(2, {(0, 0): 0.1, (1, 0): -0.15})},
        },
    )
    loop = CirclePath.circle((0.0, 0.0), 1.0, 1.0)
    expected = abelian_control_phases(model, conn, loop)
    sample = CirclePath.sample
    monkeypatch.setattr(
        CirclePath, "sample", lambda self, t, segment=None: tuple(1.01 * a for a in sample(self, t, segment))
    )
    assert np.array_equal(abelian_control_phases(model, conn, loop), expected)
    measured = np.max(np.abs(holonomy(model, conn, loop, 1000).operator.matrix - np.diag(expected)))
    assert measured > ABELIAN_TOL


# --- shipped sample configs -------------------------------------------------------


def test_sample_spectrum_config(tmp_path):
    out = tmp_path / "out"
    assert main(["--config", "configs/spectrum_quadratic.json", "--out", str(out), "--quiet", "spectrum"]) == 0
    payload = json.loads((out / "spectrum.json").read_text())
    # every level groups one or two dynamic labels, 17 modes per label
    for level in payload["levels"]:
        assert level["multiplicity"] == 17 * len(level["labels"])


def test_sample_classical_config_reproduces_drift(tmp_path):
    # constant component kappa = 0.45 along a displacement-2 run over T = 3:
    # controlled angle gains kappa * displacement, dynamic angle winds with
    # grad H, actions stay put.
    out = tmp_path / "out"
    assert main(["--config", "configs/classical_drift.json", "--out", str(out), "--quiet", "classical"]) == 0
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    final = [float(x) for x in rows[-1].split(",")]
    t, i1, i2, phi1, phi2 = final
    assert t == 3.0
    assert i1 == pytest.approx(1.2, abs=1e-10)
    assert i2 == pytest.approx(0.8, abs=1e-10)
    assert phi1 == pytest.approx(0.7 + 0.45 * 2.0, abs=1e-8)
    assert phi2 == pytest.approx(0.1 + 0.8 * 3.0, abs=1e-10)


def test_zero_velocity_loop_yields_identity_via_cli(tmp_path):
    payload = {
        "schema": 1,
        "model": {"m": 2, "controlled": [0], "offsets": [0.1, 0.2], "truncation": 3},
        "connection": {
            "parameter_dim": 2,
            "components": [
                {
                    "axis": 0,
                    "parameter": 0,
                    "fourier": [{"shift": [1, 0], "poly": [{"exponents": [0, 0], "coefficient": 0.2}]}],
                }
            ],
        },
        "curve": {"type": "circle", "center": [0.4, -0.7], "radius": 0.0, "duration": 1.0},
        "run": {"steps": 50},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet", "holonomy"]) == 0
    doc = json.loads((out / "holonomy.json").read_text())
    entries = np.array(doc["entries"], dtype=float)
    n = doc["shape"][0]
    matrix = (entries[:, 0] + 1j * entries[:, 1]).reshape(n, n)
    assert np.allclose(matrix, np.eye(n), atol=1e-14)


def test_verify_payload_deterministic(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"schema": 1, "model": {"m": 1, "controlled": [0], "offsets": [0.0], "truncation": 2},
                    "run": {"seed": 11}})
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--config", str(cfg), "--out", str(out1), "--quiet", "verify"]) == 0
    assert main(["--config", str(cfg), "--out", str(out2), "--quiet", "verify"]) == 0
    assert (out1 / "verify.json").read_bytes() == (out2 / "verify.json").read_bytes()


def test_sample_abelian_config_matches_closed_form(tmp_path):
    out = tmp_path / "out"
    assert main(["--config", "configs/abelian_loop.json", "--out", str(out), "--quiet", "holonomy"]) == 0
    payload = json.loads((out / "holonomy.json").read_text())
    n = payload["shape"][0]
    entries = np.array(payload["entries"], dtype=float)
    matrix = (entries[:, 0] + 1j * entries[:, 1]).reshape(n, n)

    from torus_holonomy.config import load_config

    config = load_config("configs/abelian_loop.json")
    expected = abelian_control_phases(config.model, config.connection, config.curve)
    assert np.max(np.abs(matrix - np.diag(expected))) <= 1e-8
