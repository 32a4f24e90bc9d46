"""Acceptance criteria, one test per criterion, one printed line each.

Every tolerance is pinned here; nothing is deferred to calibration.  All
runs are desk scale (m <= 2, N <= 8, matrices <= 289 x 289).
"""

import numpy as np
import pytest

from torus_holonomy import (
    ActionPolynomial,
    CirclePath,
    ClassicalState,
    ControlConnection,
    ParameterPolynomial,
    TorusModel,
    classical_mode_transport,
    dirac_residual,
    evolve_control,
    evolve_full,
    evolve_perturbed,
    halfform_equivalence,
    hamiltonian_operator,
    holonomy,
    lambda_shift_equivalence,
    reparameterize,
)
from torus_holonomy.lattice import mode_array, sublattice_index
from torus_holonomy.operators import commutator
from torus_holonomy.propagation import delta_generator
from torus_holonomy.verify import (
    _abelian_connection,
    _nonabelian_connection,
    abelian_control_phases,
    random_affine,
)

SEED = 20240801


def _report(number, name, measured, tolerance, larger_is_better=False):
    ok = measured >= tolerance if larger_is_better else measured <= tolerance
    cmp = ">=" if larger_is_better else "<="
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} "
          f"(measured {measured:.3e} {cmp} {tolerance:.1e})")
    assert ok, f"criterion {number} ({name}): {measured:.3e} not {cmp} {tolerance:.1e}"


def _model_n8() -> TorusModel:
    return TorusModel(m=2, controlled=(0,), offsets=(0.25, 0.5), truncation=8)


def _quad_hamiltonian() -> ActionPolynomial:
    # H = (dynamic action)^2 / 2
    return ActionPolynomial(2, {(0, 2): 0.5})


def _circle(duration=1.0, radius=1.0) -> CirclePath:
    return CirclePath.circle((0.0, 0.0), radius, duration)


def test_criterion_01_spectral_exactness():
    model = _model_n8()
    ham = _quad_hamiltonian()
    op = hamiltonian_operator(model, ham)
    worst_rel = 0.0
    by_label: dict[int, list[float]] = {}
    # the basis vector of each mode is its column of the identity
    for mode, psi in zip(mode_array(model).tolist(), np.eye(model.size).T):
        applied = op.matrix @ psi
        expected = 0.5 * (mode[1] - 0.5) ** 2
        err = np.max(np.abs(applied - expected * psi))
        worst_rel = max(worst_rel, err / abs(expected))
        by_label.setdefault(mode[1], []).append(expected)
    multiplicities_ok = all(len(v) == 17 and len(set(v)) == 1 for v in by_label.values())
    assert len(by_label) == 17
    assert multiplicities_ok, "each dynamic label must carry 17 equal eigenvalues"
    _report(1, "spectral-exactness", worst_rel, 1e-14)


def test_criterion_02_dirac_condition():
    model = _model_n8()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        f = random_affine(rng, 2, int(rng.integers(1, 3)), scale=0.3)
        g = random_affine(rng, 2, int(rng.integers(1, 3)), scale=0.3)
        worst = max(worst, dirac_residual(model, f, g))
    _report(2, "dirac-condition", worst, 1e-10)


def test_criterion_03_commuting_perturbation():
    model = _model_n8()
    conn = _nonabelian_connection(m=2)
    h_op = hamiltonian_operator(model, _quad_hamiltonian())
    curve = _circle()
    worst = 0.0
    for t in np.linspace(0.0, curve.duration, 10):
        delta = delta_generator(model, conn, curve.point(float(t)), curve.velocity(float(t)))
        worst = max(worst, float(np.max(np.abs(commutator(delta, h_op)))))
    _report(3, "commuting-perturbation", worst, 1e-12)


def test_criterion_04_abelian_berry_oracle():
    model = _model_n8()
    conn = _abelian_connection()
    loop = _circle(duration=1.0)
    rep = holonomy(model, conn, loop, 1000)
    expected = abelian_control_phases(model, conn, loop)
    phase_dev = float(np.max(np.abs(rep.operator.matrix - np.diag(expected))))
    slow = holonomy(model, conn, _circle(duration=2.0), 1000)
    speed_dev = float(np.max(np.abs(rep.operator.matrix - slow.operator.matrix)))
    _report(4, "abelian-berry-oracle", max(phase_dev, speed_dev), 1e-8)


@pytest.fixture(scope="module")
def quadratic_clock_setup():
    model = TorusModel(1, (0,), (0.3,), 8)
    conn = _nonabelian_connection(m=1)
    curve = _circle()
    T = curve.duration
    clock = (lambda t: T * (t / T) ** 2, lambda t: 2.0 * t / T, T)
    return model, conn, curve, clock


def test_criterion_05_reparameterization_invariance(quadratic_clock_setup):
    model, conn, curve, clock = quadratic_clock_setup
    warped = reparameterize(curve, *clock)

    def clock_deviation(steps):
        a = evolve_control(model, conn, curve, steps).operator.matrix
        b = evolve_control(model, conn, warped, steps).operator.matrix
        return float(np.max(np.abs(a - b)))

    dev = clock_deviation(10000)
    d1 = clock_deviation(1250)
    d2 = clock_deviation(2500)
    order = float(np.log2(d1 / d2))
    _report(5, "reparameterization-invariance", dev, 1e-6)
    print(f"    refinement order {order:.2f} (>= 2 required)")
    assert order >= 2.0


def test_criterion_06_group_laws():
    model = TorusModel(1, (0,), (0.3,), 8)
    conn = _nonabelian_connection(m=1)
    loop = _circle()
    u = holonomy(model, conn, loop, 1000).operator.matrix
    u_rev = holonomy(model, conn, loop.reverse(), 1000).operator.matrix
    eye = np.eye(u.shape[0])
    reversal_dev = float(np.max(np.abs(u_rev @ u - eye)))

    from torus_holonomy import concatenate

    first = CirclePath.circle((0.0, 0.0), 1.0, 1.0, turns=0.5)
    second = CirclePath.circle((0.0, 0.0), 1.0, 1.0, turns=0.5, phase=np.pi)
    whole = evolve_control(model, conn, concatenate(first, second), 1000).operator.matrix
    ua = evolve_control(model, conn, first, 500).operator.matrix
    ub = evolve_control(model, conn, second, 500).operator.matrix
    concat_dev = float(np.max(np.abs(whole - ub @ ua)))
    _report(6, "group-laws", max(reversal_dev, concat_dev), 1e-8)


@pytest.fixture(scope="module")
def factorization_runs():
    model = TorusModel(m=2, controlled=(0,), offsets=(0.25, 0.5), truncation=4)
    conn = _nonabelian_connection(m=2, scale=0.25)
    ham = _quad_hamiltonian()
    coarse = evolve_full(model, ham, conn, _circle(), 1000)
    fine = evolve_full(model, ham, conn, _circle(), 2000)
    return model, conn, coarse, fine


def test_criterion_07_factorization(factorization_runs):
    _, _, coarse, fine = factorization_runs
    _report(7, "factorization", coarse.deviation, 1e-6)
    print(f"    refined deviation {fine.deviation:.3e} (must decrease)")
    assert fine.deviation < coarse.deviation


def test_criterion_08_unitarity_and_eigenspaces(factorization_runs):
    model, conn, coarse, fine = factorization_runs
    u2 = evolve_control(model, conn, _circle(), 1000)
    worst_unitarity = max(
        u2.unitarity_defect,
        coarse.factorized_unitarity_defect,
        coarse.reference_unitarity_defect,
        fine.factorized_unitarity_defect,
        fine.reference_unitarity_defect,
    )
    # the eigenspace blocks of the operator that evolve writes
    di, _ = sublattice_index(model, model.dynamic)
    off = coarse.operator.matrix[di[:, None] != di[None, :]]
    off_mass = float(np.max(np.abs(off))) if off.size else 0.0
    _report(8, "unitarity-and-eigenspaces", worst_unitarity, 1e-10)
    print(f"    off-block mass {off_mass:.3e} (<= 1e-12 required)")
    assert off_mass <= 1e-12


def test_criterion_09_classical_consistency():
    # two transport routes
    model = TorusModel(1, (0,), (0.0,), 8)
    conn = ControlConnection.from_half_spectrum(
        1, 1, {(0, 0): {(1,): ParameterPolynomial(1, {(0,): 0.05, (1,): 0.02})}}
    )
    from torus_holonomy import WaypointPath

    line = WaypointPath(((0.0,), (1.0,)), 1.0)
    transport = classical_mode_transport(model, conn, line, [0.4], 10000, guard=6)

    # reparameterization invariance of the final classical state (H = 0)
    ham0 = ActionPolynomial.zero(1)
    conn_c = _nonabelian_connection(m=1)
    circle = _circle()
    warped = reparameterize(circle, lambda t: t**2, lambda t: 2.0 * t, 1.0)
    s0 = ClassicalState([0.8], [0.2])
    a = evolve_perturbed(ham0, conn_c, circle, s0, 4000).final
    b = evolve_perturbed(ham0, conn_c, warped, s0, 4000).final
    reparam_dev = max(
        float(np.max(np.abs(a.actions - b.actions))),
        float(np.max(np.abs(a.angles - b.angles))),
    )

    # RK4 observed order over three refinements
    ham = ActionPolynomial(1, {(2,): 0.5})
    conn_rk = ControlConnection.from_half_spectrum(
        1, 1, {(0, 0): {(1,): ParameterPolynomial(1, {(0,): 0.2, (1,): 0.1})}}
    )
    ref = evolve_perturbed(ham, conn_rk, line, ClassicalState([0.9], [0.2]), 5120).final
    errors = []
    for steps in (40, 80, 160, 320):
        fin = evolve_perturbed(ham, conn_rk, line, ClassicalState([0.9], [0.2]), steps).final
        errors.append(
            max(
                float(np.max(np.abs(fin.actions - ref.actions))),
                float(np.max(np.abs(fin.angles - ref.angles))),
            )
        )
    order = min(np.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1))

    _report(9, "classical-consistency", max(transport.discrepancy, reparam_dev), 1e-6)
    print(f"    rk4 observed order {order:.2f} (>= 3.5 required)")
    assert order >= 3.5


def test_criterion_10_gauge_and_halfform():
    model = _model_n8()
    ham = _quad_hamiltonian()
    shift = lambda_shift_equivalence(model, ham, (0.0, 1.0))
    halfform = halfform_equivalence(model, (1,), ham)
    _report(10, "gauge-and-halfform", max(shift, halfform), 1e-12)
