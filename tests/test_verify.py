import __future__
import inspect
import json
import textwrap
from typing import NamedTuple

import numpy as np
import pytest

from torus_holonomy import (
    ActionPolynomial,
    TorusModel,
    classical,
    lambda_shift_equivalence,
    operators,
    propagation,
    verify,
)
from torus_holonomy.cli import main
from torus_holonomy.operators import CompiledConnection
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
    assert len(report.checks) == 14


def test_battery_passes_its_seed_to_the_seeded_checks(monkeypatch):
    seen = {}

    def recorder(name):
        def check(seed=None):
            seen[name] = seed
            return verify.CheckResult(name, 0.0, 0.0)

        return check

    names = ("check_dirac", "check_hermiticity", "check_lambda_shift")
    for name in names:
        monkeypatch.setattr(verify, name, recorder(name))
    monkeypatch.setattr(verify, "_FULL_BATTERY", tuple(getattr(verify, name) for name in names))
    report = run_battery(99)
    assert isinstance(report, BatteryReport) and report.seed == 99 and report.passed
    assert seen == dict(zip(names, (99, 99, None)))


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


# --- the fault table: which checks catch which one-line fault ------------------


class Fault(NamedTuple):
    """A one-line fault: ``old`` becomes ``new`` in the function ``owner.name``.

    ``owner`` is the module or class whose attribute the callers read, so
    the patch reaches them: the ordered product reads
    ``propagation.quantized_basis``, and patching ``operators.quantized_basis``
    would miss it.
    """

    owner: object
    name: str
    old: str
    new: str
    checks: tuple


_CAUGHT = [
    pytest.param(
        Fault(operators, "_elements", "modes[:, k] + 0.5 * shifts[:, k, None] - model.offsets[k]",
              "modes[:, k] - model.offsets[k]", (verify.check_hermiticity, verify.check_factorization)),
        id="quantize-halfform-dropped",
    ),
    pytest.param(
        Fault(operators, "_elements", "0.5 * shifts[:, k, None]", "shifts[:, k, None]",
              (verify.check_hermiticity, verify.check_factorization)),
        id="quantize-halfform-doubled",
    ),
    pytest.param(
        Fault(operators, "_elements", "- model.offsets[k])", "+ model.offsets[k])",
              (verify.check_factorization,)),
        id="quantize-offset-sign",
    ),
    pytest.param(
        Fault(operators, "_elements", "values += B[:, None]", "values += B[:, None].conj()",
              (verify.check_dirac,)),
        id="quantize-scalar-conjugated",
    ),
    pytest.param(
        Fault(operators, "dirac_residual", "D - g.bandwidth", "D", (verify.check_dirac,)),
        id="dirac-f-sources-only-interior",
    ),
    pytest.param(
        Fault(operators, "poisson_bracket", "total -= minus", "total += minus", (verify.check_dirac,)),
        id="bracket-second-convolution-added",
    ),
    pytest.param(
        Fault(propagation, "quantized_basis", "n[:, k] + 0.5 * c[k] - offsets[k]", "n[:, k] - offsets[k]",
              (verify.check_unitarity_and_blocks, verify.check_factorization)),
        id="kernel-halfform-dropped",
    ),
    pytest.param(
        Fault(propagation, "quantized_basis", "- offsets[k])", "+ offsets[k])",
              (verify.check_abelian_oracle, verify.check_factorization)),
        id="kernel-offset-sign",
    ),
    pytest.param(
        Fault(propagation, "_pairwise_product", "stack[1 : 2 * pairs : 2], stack[0 : 2 * pairs : 2]",
              "stack[0 : 2 * pairs : 2], stack[1 : 2 * pairs : 2]",
              (verify.check_group_laws, verify.check_quantum_reparameterization, verify.check_factorization)),
        id="pair-order-swapped",
    ),
    pytest.param(
        Fault(propagation, "_control_block_product", "U = _pairwise_product(stack, work[1:3]) @ U",
              "U = U @ _pairwise_product(stack, work[1:3])",
              (verify.check_group_laws, verify.check_quantum_reparameterization, verify.check_factorization)),
        id="chunk-product-on-the-right",
    ),
    pytest.param(
        Fault(propagation, "_control_block_product", "0.5 * (times[:-1] + times[1:])", "times[:-1]",
              (verify.check_group_laws, verify.check_quantum_reparameterization, verify.check_factorization)),
        id="holonomy-weights-at-step-starts",
    ),
    pytest.param(
        Fault(propagation, "_control_block_product", "-1j * np.diff(times)[:, None]", "-1j / steps",
              (verify.check_path_only_speed,)),
        id="step-scale-without-the-duration",
    ),
    pytest.param(
        Fault(classical, "_rk4_step", "b1 + 2.0 * b2 + 2.0 * b3 + b4", "b1 + 2.0 * b2 + b3 + 2.0 * b4",
              (verify.check_rk4_order, verify.check_classical_reparameterization)),
        id="rk4-weights",
    ),
    pytest.param(
        Fault(operators, "hamiltonian_spectrum", "mode_array(model) - np.asarray(model.offsets)",
              "mode_array(model) + np.asarray(model.offsets)",
              (verify.check_lambda_shift, verify.check_halfform)),
        id="spectrum-at-n-plus-offsets",
    ),
    pytest.param(
        Fault(classical, "classical_mode_transport", "weights *= 1j * np.diff(times)",
              "weights *= -1j * np.diff(times)", (verify.check_mode_transport,)),
        id="mode-transport-generator-sign",
    ),
    pytest.param(
        Fault(CompiledConnection, "drift", "2.0 * weights[K]", "1.0 * weights[K]",
              (verify.check_mode_transport,)),
        id="drift-mirror-factor",
    ),
]

# Faults in the classical right-hand sides that no check catches yet: every
# classical check compares the code with itself, and the connections of
# check_rk4_order and check_mode_transport are cosines in phi, so a drift
# at -phi is the same drift.  A mirror pair counted once in ``flow`` is
# the flow of another smooth connection, which converges as well; only the
# property test against the field oracle in test_propagation.py sees it.
_ESCAPES = [
    pytest.param(
        Fault(CompiledConnection, "flow", "rate[a] += c * pull", "rate[a] -= c * pull",
              (verify.check_rk4_order, verify.check_classical_reparameterization)),
        id="action-rate-sign",
        marks=pytest.mark.xfail(
            strict=True, raises=pytest.fail.Exception, reason="no check relates the action rate to a law"
        ),
    ),
    pytest.param(
        Fault(CompiledConnection, "drift", "angle += phi[a] * c", "angle -= phi[a] * c",
              (verify.check_mode_transport,)),
        id="drift-at-minus-phi",
        marks=pytest.mark.xfail(
            strict=True, raises=pytest.fail.Exception, reason="no check ties the angle flow to quantum code"
        ),
    ),
    pytest.param(
        Fault(CompiledConnection, "flow", "2.0 * weights[K]", "1.0 * weights[K]",
              (verify.check_rk4_order, verify.check_classical_reparameterization)),
        id="flow-mirror-factor",
        marks=pytest.mark.xfail(
            strict=True, raises=pytest.fail.Exception, reason="no check ties the perturbed flow to an oracle"
        ),
    ),
]


def _apply(monkeypatch, fault: Fault) -> None:
    """Replace ``fault.owner.name`` by a copy of its function with the one line changed."""
    function = getattr(fault.owner, fault.name)
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(fault.old) == 1, f"{fault.old!r} must occur once in {function.__qualname__}"
    code = compile(source.replace(fault.old, fault.new), inspect.getsourcefile(function), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace: dict = {}
    exec(code, function.__globals__, namespace)  # the copy reads the module's names
    monkeypatch.setattr(fault.owner, fault.name, namespace[function.__name__])


@pytest.mark.parametrize("fault", _CAUGHT + _ESCAPES)
def test_each_fault_fails_a_check_that_names_it(monkeypatch, fault):
    _apply(monkeypatch, fault)
    results = []
    for check in fault.checks:
        results.append(check())
        if not results[-1].passed:
            return
    pytest.fail(f"no named check failed: {[r.to_dict() for r in results]}")


def test_every_check_but_the_structural_one_is_named_by_a_caught_fault():
    named = {check for param in _CAUGHT for check in param.values[0].checks}
    assert set(verify._FULL_BATTERY) - named == {verify.check_commuting_perturbation}


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
