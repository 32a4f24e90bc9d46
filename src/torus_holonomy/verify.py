"""Built-in verification battery and the independent oracles it relies on.

Each check measures one contract of the package against a tolerance and an
oracle that does not share code with the path being checked: closed-form
line integrals for Abelian control phases, torus quadrature for matrix
elements, step-refinement and group-law identities for ordered products.
The battery is what the CLI ``verify`` subcommand runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from . import classical, operators, propagation
from .curves import CirclePath, WaypointPath, concatenate, line_integral, reparameterize
from .fields import (
    ActionPolynomial,
    AffineObservable,
    ControlConnection,
    ParameterPolynomial,
    TorusFourierField,
)
from .lattice import ClassicalState, TorusModel, controlled_submodel, mode_array

DEFAULT_SEED = 1234


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def abelian_control_phases(
    model: TorusModel, connection: ControlConnection, curve
) -> np.ndarray:
    """Closed-form control phases for an angle-independent connection.

    For such a connection the control generator is diagonal and the ordered
    product collapses per mode to ``exp(-i (n_a - offset_a) J_a)`` with
    ``J_a`` the exact line integral of the connection component along the
    curve.  Evaluated here without any time stepping; the line integral is
    exact for polynomial components on circles and waypoint paths.
    """
    sub = classical.controlled_connection(model, connection)
    if not sub.is_angle_independent():
        raise ValueError("closed-form phases require an angle-independent connection")
    zero_shift = (0,) * sub.m
    integrals = np.zeros(sub.m)
    for axis in range(sub.m):
        polys = {
            beta: fourier[zero_shift]
            for (a, beta), fourier in sub.components.items()
            if a == axis and zero_shift in fourier
        }
        if polys:
            integrals[axis] = line_integral(polys, curve)
    sub_model = controlled_submodel(model)
    return np.exp(-1j * (mode_array(sub_model) - np.array(sub_model.offsets)) @ integrals)


def quadrature_matrix_element(
    model: TorusModel, observable: AffineObservable, row, col, points_per_axis: int | None = None
) -> complex:
    """Torus-quadrature oracle for one matrix element of a quantized observable.

    Applies the first-order operator pointwise to the basis mode ``col`` and
    integrates against the conjugate of ``row`` with a uniform grid, which
    is exact for band-limited integrands once the grid beats the trig
    degree.  Independent of the closed-form element construction.
    """
    m = model.m
    row = np.asarray(row, dtype=int)
    col = np.asarray(col, dtype=int)
    degree = int(np.max(np.abs(row)) + np.max(np.abs(col))) + observable.bandwidth
    K = points_per_axis or (2 * degree + 3)
    grid_1d = 2.0 * np.pi * np.arange(K) / K
    grids = np.meshgrid(*([grid_1d] * m), indexing="ij")
    phi = np.stack([g.ravel() for g in grids], axis=1)

    def field_values(fld):
        vals = np.zeros(phi.shape[0], dtype=complex)
        for c, v in fld.coefficients.items():
            vals += v * np.exp(1j * (phi @ np.asarray(c)))
        return vals

    applied = field_values(observable.scalar)
    for k in range(m):
        a_k = observable.action_coeffs[k]
        if a_k.is_zero:
            continue
        applied += field_values(a_k) * (col[k] - model.offsets[k])
        applied += -0.5j * field_values(a_k.derivative(k))
    integrand = np.exp(-1j * (phi @ row)) * applied * np.exp(1j * (phi @ col))
    return complex(integrand.mean())


def random_real_field(rng: np.random.Generator, m: int, bandwidth: int, scale: float = 1.0):
    """Seeded random real field with |c_k| <= bandwidth."""
    half: dict[tuple[int, ...], complex] = {}
    for c in product(range(-bandwidth, bandwidth + 1), repeat=m):
        if c > tuple([0] * m):
            half[c] = scale * complex(rng.normal(), rng.normal())
        elif c == tuple([0] * m):
            half[c] = scale * complex(rng.normal())
    return TorusFourierField.from_half_spectrum(m, half)


def random_affine(rng: np.random.Generator, m: int, bandwidth: int, scale: float = 1.0):
    fields = tuple(random_real_field(rng, m, bandwidth, scale) for _ in range(m))
    return AffineObservable(fields, random_real_field(rng, m, bandwidth, scale))


# ---------------------------------------------------------------------------
# Battery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    tolerance: float
    larger_is_better: bool = False
    detail: str = ""

    @property
    def passed(self) -> bool:
        if self.larger_is_better:
            return bool(self.measured >= self.tolerance)
        return bool(self.measured <= self.tolerance)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            # JSON has no form for inf/nan; such a value is written as null
            "measured": self.measured if np.isfinite(self.measured) else None,
            "tolerance": self.tolerance,
            "comparison": ">=" if self.larger_is_better else "<=",
            "detail": self.detail,
        }


@dataclass(frozen=True)
class BatteryReport:
    checks: tuple[CheckResult, ...]
    seed: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "seed": self.seed,
            "checks": [c.to_dict() for c in self.checks],
        }


# -- standard test fixtures used by several checks --------------------------


def _demo_model(n: int = 8) -> TorusModel:
    return TorusModel(m=2, controlled=(0,), offsets=(0.25, 0.5), truncation=n)


def _demo_hamiltonian() -> ActionPolynomial:
    return ActionPolynomial(2, {(0, 2): 0.5})


def _abelian_connection() -> ControlConnection:
    # angle-independent, linear in sigma; two parameter axes
    zero2 = (0, 0)
    return ControlConnection(
        2,
        2,
        {
            (0, 0): {zero2: ParameterPolynomial(2, {(0, 0): 0.3, (0, 1): 0.2})},
            (0, 1): {zero2: ParameterPolynomial(2, {(0, 0): 0.1, (1, 0): -0.15})},
        },
    )


def _nonabelian_connection(m: int = 1, scale: float = 1.0) -> ControlConnection:
    # cos/sin angle content with sigma-dependent weights: generators at
    # different loop points do not commute.
    plus = tuple(1 if k == 0 else 0 for k in range(m))
    return ControlConnection.from_half_spectrum(
        m,
        2,
        {
            (0, 0): {plus: ParameterPolynomial(2, {(0, 0): 0.1 * scale, (0, 1): 0.05 * scale})},
            (0, 1): {plus: ParameterPolynomial(2, {(0, 0): 0.05j * scale, (1, 0): 0.04 * scale})},
        },
    )


def _unit_circle(duration: float = 1.0, radius: float = 1.0) -> CirclePath:
    return CirclePath.circle((0.0, 0.0), radius, duration)


# -- individual checks -------------------------------------------------------


def check_dirac(seed: int = DEFAULT_SEED, pairs: int = 100, n: int = 8) -> CheckResult:
    model = TorusModel(2, (0,), (0.25, 0.5), n)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(pairs):
        f = random_affine(rng, 2, bandwidth=int(rng.integers(1, 3)))
        g = random_affine(rng, 2, bandwidth=int(rng.integers(1, 3)))
        worst = max(worst, operators.dirac_residual(model, f, g))
    return CheckResult("dirac_condition_random_pairs", worst, 1e-10, detail=f"pairs={pairs}, N={n}")


def check_hermiticity(seed: int = DEFAULT_SEED) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in (4, 8):
        model = TorusModel(2, (0,), (0.25, 0.5), n)
        for _ in range(5):
            op = operators.quantize_affine(model, random_affine(rng, 2, 2))
            worst = max(worst, op.hermiticity_defect())
    return CheckResult("quantization_hermiticity", worst, 1e-13)


def check_lambda_shift() -> CheckResult:
    model = _demo_model(8)
    dev = operators.lambda_shift_equivalence(model, _demo_hamiltonian(), (0.0, 1.0))
    return CheckResult("integer_offset_gauge", dev, 1e-12)


def check_halfform() -> CheckResult:
    # axis 1's offset is not 1/2, so a spectrum rule that adds the offsets
    # does not cancel against the half shift
    model = TorusModel(2, (0,), (0.25, 0.25), 8)
    dev = operators.halfform_equivalence(model, (1,), _demo_hamiltonian())
    return CheckResult("halfform_offset_equivalence", dev, 1e-12)


def check_commuting_perturbation() -> CheckResult:
    model = _demo_model(8)
    conn = _nonabelian_connection(m=2)
    h_op = operators.hamiltonian_operator(model, _demo_hamiltonian())
    curve = _unit_circle()
    worst = 0.0
    for t in np.linspace(0.0, curve.duration, 10):
        delta = propagation.delta_generator(model, conn, curve.point(t), curve.velocity(t))
        worst = max(worst, float(np.max(np.abs(operators.commutator(delta, h_op)))))
    return CheckResult(
        "perturbation_commutes",
        worst,
        1e-12,
        detail="the split's structural check: the gate keeps Delta's shifts on controlled axes "
        "and H reads dynamic labels only, so a correct split reads exactly 0.0",
    )


def check_abelian_oracle(steps: int = 1000) -> CheckResult:
    model = _demo_model(8)
    conn = _abelian_connection()
    loop = _unit_circle()
    report = propagation.holonomy(model, conn, loop, steps)
    expected = abelian_control_phases(model, conn, loop)
    measured = float(np.max(np.abs(report.operator.matrix - np.diag(expected))))
    return CheckResult("abelian_closed_form", measured, 1e-8, detail=f"steps={steps}")


def check_path_only_speed() -> CheckResult:
    # a non-Abelian loop at durations 1 and 3: the steps' v * dt round
    # differently, so the check reads rounding on correct code, not 0.0
    model = _demo_model(8)
    conn = _nonabelian_connection(m=2)
    fast = propagation.holonomy(model, conn, _unit_circle(duration=1.0), 1000)
    slow = propagation.holonomy(model, conn, _unit_circle(duration=3.0), 1000)
    measured = float(np.max(np.abs(fast.operator.matrix - slow.operator.matrix)))
    return CheckResult("path_only_no_adiabatic_limit", measured, 1e-12)


def check_unitarity_and_blocks(steps: int = 400) -> CheckResult:
    model = _demo_model(4)
    rep = propagation.evolve_control(model, _nonabelian_connection(m=2), _unit_circle(), steps)
    return CheckResult(
        "unitarity_eigenspace_preservation",
        rep.unitarity_defect,
        1e-10,
        detail="the controlled block's unitarity defect; U2's eigenspace blocks come from the lift, "
        "which copies the block onto each dynamic label with zeros between labels, and "
        "perturbation_commutes checks the split that allows it",
    )


def check_group_laws(steps: int = 1000) -> CheckResult:
    model = TorusModel(1, (0,), (0.3,), 8)
    conn = _nonabelian_connection(m=1)
    arc1 = CirclePath.circle((0.0, 0.0), 1.0, 1.0, turns=0.5)
    arc2 = CirclePath.circle((0.0, 0.0), 1.0, 1.0, turns=0.5, phase=np.pi)
    full = concatenate(arc1, arc2)
    u1 = propagation.holonomy(model, conn, full, steps).operator.matrix
    a = propagation.evolve_control(model, conn, arc1, steps // 2).operator.matrix
    b = propagation.evolve_control(model, conn, arc2, steps // 2).operator.matrix
    eye = np.eye(u1.shape[0])
    worst = float(np.max(np.abs(u1 - b @ a)))
    rev = propagation.holonomy(model, conn, full.reverse(), steps).operator.matrix
    worst = max(worst, float(np.max(np.abs(rev @ u1 - eye))))
    return CheckResult("reversal_and_concatenation", worst, 1e-8, detail=f"steps={steps}")


def check_quantum_reparameterization(steps: int = 10000) -> CheckResult:
    model = TorusModel(1, (0,), (0.3,), 8)
    conn = _nonabelian_connection(m=1)
    curve = _unit_circle()
    T = curve.duration
    warped = reparameterize(curve, lambda t: T * (t / T) ** 2, lambda t: 2.0 * t / T, T)
    a = propagation.evolve_control(model, conn, curve, steps).operator.matrix
    b = propagation.evolve_control(model, conn, warped, steps).operator.matrix
    dev = float(np.max(np.abs(a - b)))
    return CheckResult("control_reparameterization_invariance", dev, 1e-6, detail=f"steps={steps}")


def check_factorization(steps: int = 1000) -> CheckResult:
    model = _demo_model(4)
    conn = _nonabelian_connection(m=2, scale=0.25)
    rep = propagation.evolve_full(model, _demo_hamiltonian(), conn, _unit_circle(), steps)
    fine = propagation.evolve_full(model, _demo_hamiltonian(), conn, _unit_circle(), 2 * steps)
    ok_decreasing = fine.deviation < rep.deviation
    measured = rep.deviation if ok_decreasing else float("inf")
    refined = f"refined deviation {fine.deviation:.3e}"
    if not ok_decreasing:
        refined += f" did not decrease from {rep.deviation:.3e}"
    return CheckResult("factorized_vs_reference", measured, 1e-6, detail=f"steps={steps}, {refined}")


def check_rk4_order() -> CheckResult:
    model = TorusModel(1, (0,), (0.0,), 4)
    conn = ControlConnection.from_half_spectrum(
        1, 1, {(0, 0): {(1,): ParameterPolynomial(1, {(0,): 0.2, (1,): 0.1})}}
    )
    ham = ActionPolynomial.zero(1)
    curve = WaypointPath(((0.0,), (1.0,)), 1.0)
    s0 = ClassicalState(np.array([0.7]), np.array([0.4]))
    ref = classical.evolve_perturbed(ham, conn, curve, s0, 5120).final
    errors = []
    steps_list = [40, 80, 160, 320]
    for s in steps_list:
        fin = classical.evolve_perturbed(ham, conn, curve, s0, s).final
        err = max(
            float(np.max(np.abs(fin.actions - ref.actions))),
            float(np.max(np.abs(fin.angles - ref.angles))),
        )
        errors.append(err)
    slopes = [
        np.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1) if errors[i + 1] > 0
    ]
    measured = float(min(slopes)) if slopes else 4.0
    return CheckResult("rk4_observed_order", measured, 3.5, larger_is_better=True)


def check_mode_transport(steps: int = 10000) -> CheckResult:
    model = TorusModel(1, (0,), (0.0,), 8)
    conn = ControlConnection.from_half_spectrum(
        1,
        1,
        {(0, 0): {(1,): ParameterPolynomial(1, {(0,): 0.05, (1,): 0.02})}},
    )
    curve = WaypointPath(((0.0,), (1.0,)), 1.0)
    result = classical.classical_mode_transport(model, conn, curve, [0.4], steps, guard=6)
    return CheckResult(
        "mode_transport_two_routes", result.discrepancy, 1e-6, detail=f"steps={steps}, guard=6"
    )


def check_classical_reparameterization(steps: int = 2000) -> CheckResult:
    conn = _nonabelian_connection(m=1)
    ham = ActionPolynomial.zero(1)
    curve = _unit_circle()
    T = curve.duration
    warped = reparameterize(curve, lambda t: T * (t / T) ** 2, lambda t: 2.0 * t / T, T)
    s0 = ClassicalState(np.array([0.9]), np.array([0.2]))
    a = classical.evolve_perturbed(ham, conn, curve, s0, steps).final
    b = classical.evolve_perturbed(ham, conn, warped, s0, steps).final
    measured = max(
        float(np.max(np.abs(a.actions - b.actions))),
        float(np.max(np.abs(a.angles - b.angles))),
    )
    return CheckResult("classical_reparameterization_invariance", measured, 1e-6)


_FULL_BATTERY: tuple[Callable[..., CheckResult], ...] = (
    check_dirac,
    check_hermiticity,
    check_lambda_shift,
    check_halfform,
    check_commuting_perturbation,
    check_abelian_oracle,
    check_path_only_speed,
    check_unitarity_and_blocks,
    check_group_laws,
    check_quantum_reparameterization,
    check_factorization,
    check_rk4_order,
    check_mode_transport,
    check_classical_reparameterization,
)


def run_battery(seed: int = DEFAULT_SEED) -> BatteryReport:
    """Run the battery; the seeded checks, ``check_dirac`` and ``check_hermiticity``, get the seed."""
    seeded = (check_dirac, check_hermiticity)
    results = [fn(seed=seed) if fn in seeded else fn() for fn in _FULL_BATTERY]
    return BatteryReport(tuple(results), seed)
