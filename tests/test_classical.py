import numpy as np
import pytest

from torus_holonomy import (
    ActionPolynomial,
    CirclePath,
    ClassicalState,
    ControlConnection,
    DimensionMismatchError,
    NonFiniteError,
    ParameterPolynomial,
    SplitViolationError,
    TorusModel,
    WaypointPath,
    classical_action_transport,
    classical_mode_transport,
    delta_generator,
    evolve_control,
    evolve_free,
    evolve_full,
    evolve_perturbed,
    holonomy,
    reparameterize,
    split_residual,
)
from torus_holonomy import classical, concatenate
from torus_holonomy.operators import CompiledConnection, hamiltonian_spectrum
from torus_holonomy.verify import abelian_control_phases


def _array_rk4_step(rhs, h, y, s0, sm, s1):
    """Classical RK4 on arrays, kept apart from the package's kernel."""
    k1 = rhs(s0, y)
    k2 = rhs(sm, y + 0.5 * h * k1)
    k3 = rhs(sm, y + 0.5 * h * k2)
    k4 = rhs(s1, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _const_connection(m: int, axis: int, kappa: float, d: int = 1) -> ControlConnection:
    zero = (0,) * m
    return ControlConnection(m, d, {(axis, 0): {zero: ParameterPolynomial(d, {(0,) * d: kappa})}})


def _cos_connection(amplitude: float) -> ControlConnection:
    return ControlConnection.from_half_spectrum(
        1, 1, {(0, 0): {(1,): ParameterPolynomial(1, {(0,): amplitude / 2.0})}}
    )


# --- free flow ---------------------------------------------------------------


def test_free_flow_quadratic():
    # H = I^2/2 at I=2: angle advances by I*t
    ham = ActionPolynomial(1, {(2,): 0.5})
    s0 = ClassicalState([2.0], [0.0])
    s1 = evolve_free(ham, s0, 1.0)
    assert s1.actions[0] == 2.0
    assert s1.angles[0] == pytest.approx(2.0)


def test_free_flow_identity_at_t0():
    ham = ActionPolynomial(2, {(0, 2): 0.5})
    s0 = ClassicalState([0.3, -1.2], [0.4, 2.5])
    s1 = evolve_free(ham, s0, 0.0)
    assert np.array_equal(s1.actions, s0.actions)
    assert np.array_equal(s1.angles, s0.angles)


def test_free_flow_unused_axis_constant():
    ham = ActionPolynomial(2, {(0, 2): 0.5})  # independent of I_0
    s0 = ClassicalState([0.7, 1.0], [0.1, 0.2])
    s1 = evolve_free(ham, s0, 3.0)
    assert s1.angles[0] == s0.angles[0]
    assert s1.angles[1] == pytest.approx(0.2 + 3.0)


# --- perturbed flow ----------------------------------------------------------


def test_perturbed_reduces_to_free_without_connection():
    ham = ActionPolynomial(1, {(2,): 0.5})
    conn = ControlConnection.empty(1, 1)
    curve = WaypointPath(((0.0,), (1.0,)), 2.0)
    s0 = ClassicalState([1.5], [0.3])
    traj = evolve_perturbed(ham, conn, curve, s0, 16)
    for i, t in enumerate(traj.times):
        free = evolve_free(ham, s0, float(t))
        assert np.allclose(traj.actions[i], free.actions, atol=1e-13)
        assert np.allclose(traj.angles[i], free.angles, atol=1e-12)


def test_perturbed_constant_drift_closed_form(monkeypatch):
    # constant component kappa along a straight run of net displacement D:
    # angle gains grad H * T + kappa * D, actions stay put.
    kappa, displacement = 0.45, 2.0
    ham = ActionPolynomial(1, {(2,): 0.5})
    conn = _const_connection(1, 0, kappa)
    curve = WaypointPath(((0.0,), (displacement,)), 3.0)
    s0 = ClassicalState([1.2], [0.7])
    sampled = []
    sample = WaypointPath.sample
    monkeypatch.setattr(
        WaypointPath, "sample", lambda self, t, segment=None: sampled.append(len(t)) or sample(self, t, segment)
    )
    traj = evolve_perturbed(ham, conn, curve, s0, 600)
    # one weight table: each grid time and RK4 stage midpoint sampled once, in one call
    assert sampled == [2 * 600 + 1]
    final = traj.final
    assert final.actions[0] == pytest.approx(1.2, abs=1e-12)
    expected = 0.7 + 1.2 * 3.0 + kappa * displacement
    assert final.angles[0] == pytest.approx(expected, abs=1e-10)


def test_perturbed_flow_reads_only_the_fused_rhs(monkeypatch):
    # each RK4 stage takes the action rate and the drift from one flow call;
    # the result must equal RK4 of the frozen component fields
    def refuse(self, w, phi):
        raise AssertionError("the perturbed flow evaluated drift or coupling on its own")

    monkeypatch.setattr(CompiledConnection, "coupling", refuse)
    monkeypatch.setattr(CompiledConnection, "drift", refuse)
    # connections on both axes that depend on both angles: not split-compliant
    conn = ControlConnection.from_half_spectrum(
        2,
        2,
        {
            (0, 0): {(1, -1): ParameterPolynomial(2, {(0, 0): 0.3 - 0.2j, (1, 0): 0.1})},
            (0, 1): {(0, 0): ParameterPolynomial(2, {(0, 1): 0.25})},
            (1, 0): {(1, 0): ParameterPolynomial(2, {(0, 0): -0.15j, (0, 1): 0.2})},
            (1, 1): {(2, 1): ParameterPolynomial(2, {(1, 1): 0.05 + 0.1j})},
        },
    )
    ham = ActionPolynomial(2, {(2, 0): 0.5, (0, 2): 0.3, (1, 1): 0.1})
    curve = CirclePath.circle((0.2, -0.1), 0.8, 1.5)
    s0 = ClassicalState([0.9, -0.4], [0.3, 2.1])
    steps = 300
    final = evolve_perturbed(ham, conn, curve, s0, steps).final

    def rhs(t, y):
        actions, angles = y[:2], y[2:]
        sigma, vel = curve.point(t), curve.velocity(t)
        drift = np.zeros(2)
        coupling = np.zeros((2, 2))
        for axis, beta in conn.components:
            fld = conn.field(axis, beta, sigma)
            drift[axis] += fld.evaluate(angles) * vel[beta]
            for a in range(2):
                coupling[a, axis] += fld.derivative(a).evaluate(angles) * vel[beta]
        grad = np.array([actions[0] + 0.1 * actions[1], 0.6 * actions[1] + 0.1 * actions[0]])
        return np.concatenate([-coupling @ actions, grad + drift])

    y = np.concatenate([s0.actions, s0.angles])
    times = np.linspace(0.0, 1.5, steps + 1)
    for t0, t1 in zip(times[:-1], times[1:]):
        h = float(t1 - t0)
        y = _array_rk4_step(rhs, h, y, float(t0), float(t0) + 0.5 * h, float(t1))
    assert np.max(np.abs(final.actions - y[:2])) <= 1e-12
    assert np.max(np.abs(final.angles - y[2:])) <= 1e-12


def test_perturbed_step_refinement_order():
    ham = ActionPolynomial(1, {(2,): 0.5})
    conn = _cos_connection(0.8)
    curve = WaypointPath(((0.0,), (1.0,)), 1.0)
    s0 = ClassicalState([0.9], [0.2])
    ref = evolve_perturbed(ham, conn, curve, s0, 5120).final
    errors = []
    for steps in (40, 80, 160):
        fin = evolve_perturbed(ham, conn, curve, s0, steps).final
        errors.append(
            max(
                np.max(np.abs(fin.actions - ref.actions)),
                np.max(np.abs(fin.angles - ref.angles)),
            )
        )
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    assert min(orders) >= 3.5


def _kinked_chain(circle_duration: float = 1.0, loop_duration: float = 2.0):
    # a unit circle still moving at its end, then a closed waypoint loop that
    # starts at rest: the velocity jumps at the joint t = circle_duration
    circle = CirclePath.circle((0.0, 0.0), 1.0, circle_duration, phase=0.3)
    start = tuple(circle.point(0.0))
    return concatenate(circle, WaypointPath((start, (0.0, 0.0), start), loop_duration))


def _derived_kinked_curves():
    """Reversed, reparameterized, chained and reversed chained kinked chains.

    The durations 0.9 and 1.1 are not dyadic, so each float map of a time
    (T - t, tau, t - t1) misses a joint by an ulp: a stepper that found its
    joints by comparing step times with breakpoints fell to first order on
    all four.
    """
    chain = _kinked_chain(0.9, 1.1)
    T = chain.duration
    twice = concatenate(chain, chain)
    warped = reparameterize(chain, lambda t: T * (t / T) ** 2, lambda t: 2.0 * t / T, T)
    return chain.reverse(), warped, twice, twice.reverse()


def test_perturbed_flow_keeps_fourth_order_across_a_velocity_jump():
    # every stage of a step reads the segment of the step's midpoint; with
    # one constant component the exact angle change on the closed path is 0,
    # which RK4 then meets at rounding (first order, 7e-3 at 100 steps, when
    # the joint's left limit fed the step that starts there)
    ham = ActionPolynomial.zero(1)
    s0 = ClassicalState([1.0], [0.2])
    chain = _kinked_chain()
    constant = ControlConnection(1, 2, {(0, 0): {(0,): ParameterPolynomial(2, {(0, 0): 0.7})}})
    for steps in (100, 200, 400, 800):
        assert abs(evolve_perturbed(ham, constant, chain, s0, steps).final.angles[0] - 0.2) <= 1e-14
    conn = ControlConnection.from_half_spectrum(
        1,
        2,
        {
            (0, 0): {
                (0,): ParameterPolynomial(2, {(0, 0): 0.7}),
                (1,): ParameterPolynomial(2, {(0, 0): 0.25}),
            },
            (0, 1): {(1,): ParameterPolynomial(2, {(1, 0): 0.3j})},
        },
    )
    # the derived curves against references at 4x the finest step count, whose
    # error is 1/256 of the finest's: about 1 s for the four
    cases = [(chain, 12800, 6400), (chain.reverse(), 12800, 6400)]
    for curve, rk4_ref, mode_ref in cases + [(curve, 3200, 1600) for curve in _derived_kinked_curves()]:
        ref = evolve_perturbed(ham, conn, curve, s0, rk4_ref).final
        errors = []
        for steps in (100, 200, 400, 800):
            fin = evolve_perturbed(ham, conn, curve, s0, steps).final
            errors.append(max(abs(fin.angles[0] - ref.angles[0]), abs(fin.actions[0] - ref.actions[0])))
        assert min(np.log2(errors[i] / errors[i + 1]) for i in range(3)) >= 3.5
        model = TorusModel(1, (0,), (0.0,), 4)
        ref_phi = classical_mode_transport(model, conn, curve, [0.2], mode_ref).phi_history[-1, 0]
        errors = [
            abs(classical_mode_transport(model, conn, curve, [0.2], steps).phi_history[-1, 0] - ref_phi)
            for steps in (50, 100, 200, 400)
        ]
        assert min(np.log2(errors[i] / errors[i + 1]) for i in range(3)) >= 3.5


def test_perturbed_flow_closes_on_a_c1_chain():
    # waypoint pieces start and end at rest, so this joint has no jump
    ham = ActionPolynomial.zero(1)
    constant = ControlConnection(1, 2, {(0, 0): {(0,): ParameterPolynomial(2, {(0, 0): 0.7})}})
    there = WaypointPath(((0.0, 0.0), (1.0, 0.5)), 1.0)
    chain = concatenate(there, there.reverse())
    for steps in (10, 100, 101, 1000):
        final = evolve_perturbed(ham, constant, chain, ClassicalState([1.0], [0.2]), steps).final
        assert abs(final.angles[0] - 0.2) <= 1e-15


def test_rk4_step_runs_once_per_step(monkeypatch):
    # the benchmark's classical.rk4_step layer wraps this module-level name
    calls = []
    step = classical._rk4_step
    monkeypatch.setattr(classical, "_rk4_step", lambda *args: calls.append(1) or step(*args))
    model = TorusModel(2, (0,), (0.0, 0.0), 4)
    conn = ControlConnection.from_half_spectrum(
        2, 1, {(0, 0): {(1, 0): ParameterPolynomial(1, {(0,): 0.2})}}
    )
    curve = WaypointPath(((0.0,), (1.0,), (0.5,)), 1.0)
    evolve_perturbed(ActionPolynomial(2, {(0, 2): 0.5}), conn, curve, ClassicalState([0.5, 1.0], [0.0, 0.3]), 37)
    assert len(calls) == 37
    calls.clear()
    classical_mode_transport(model, conn, curve, [0.3], 23)
    assert len(calls) == 2 * 23


def test_trajectory_times_strictly_increasing():
    ham = ActionPolynomial(1, {(1,): 1.0})
    conn = ControlConnection.empty(1, 1)
    curve = WaypointPath(((0.0,), (1.0,)), 1.0)
    traj = evolve_perturbed(ham, conn, curve, ClassicalState([0.0], [0.0]), 10)
    assert np.all(np.diff(traj.times) > 0)
    assert len(traj) == 11


def test_perturbed_flow_with_an_overflowing_power_raises_non_finite():
    # grad H = 3e5 I_1^2 at I_1 = 1e200: Python's float ** raises
    # OverflowError there, which the flow turns into the package's error
    ham = ActionPolynomial(2, {(0, 3): 1e5})
    curve = WaypointPath(((0.0,), (1.0,)), 1.0)
    s0 = ClassicalState([1.0, 1e200], [0.7, 0.1])
    with pytest.raises(NonFiniteError, match="the flow did not stay bounded"):
        evolve_perturbed(ham, _const_connection(2, 0, 0.45), curve, s0, 50)


# --- split residual ----------------------------------------------------------


def test_split_residual_compliant():
    model = TorusModel(2, (0,), (0.0, 0.0), 4)
    ham = ActionPolynomial(2, {(0, 2): 0.5})
    conn = _cos_connection(0.3)  # m=1; rebuild on 2 axes
    conn2 = ControlConnection.from_half_spectrum(
        2, 1, {(0, 0): {(1, 0): ParameterPolynomial(1, {(0,): 0.15})}}
    )
    assert split_residual(model, ham, conn2) == 0


def test_split_residual_detects_hamiltonian_violation():
    model = TorusModel(2, (0,), (0.0, 0.0), 4)
    ham = ActionPolynomial(2, {(1, 1): 1.0})  # touches controlled axis 0
    assert split_residual(model, ham, ControlConnection.empty(2, 1)) >= 1


def test_split_residual_detects_connection_violations():
    model = TorusModel(2, (0,), (0.0, 0.0), 4)
    ham = ActionPolynomial.zero(2)
    on_dynamic_axis = ControlConnection.from_half_spectrum(
        2, 1, {(1, 0): {(0, 0): ParameterPolynomial(1, {(0,): 1.0})}}
    )
    assert split_residual(model, ham, on_dynamic_axis) >= 1
    dynamic_angle_mode = ControlConnection.from_half_spectrum(
        2, 1, {(0, 0): {(0, 1): ParameterPolynomial(1, {(0,): 1.0})}}
    )
    assert split_residual(model, ham, dynamic_angle_mode) >= 1


def _accepts(gate) -> bool:
    try:
        gate()
    except SplitViolationError:
        return False
    return True


def _random_split_case(rng):
    """A model with m <= 3, a connection and a Hamiltonian, each free to break the split."""
    m = int(rng.integers(1, 4))
    controlled = tuple(a for a in range(m) if rng.random() < 0.6)
    model = TorusModel(m, controlled, (0.0,) * m, 1)
    comps: dict = {}
    for _ in range(int(rng.integers(0, 4))):
        shift = tuple(int(x) for x in rng.integers(-1, 2, size=m))
        key = (int(rng.integers(0, m)), int(rng.integers(0, 2)))
        poly = ParameterPolynomial(2, {(0, 0): float(rng.normal())})
        comps.setdefault(key, {}).update({shift: poly, tuple(-x for x in shift): poly})
    terms = {tuple(int(x) for x in rng.integers(0, 3, size=m)): 1.0 for _ in range(rng.integers(0, 3))}
    return model, ControlConnection(m, 2, comps), ActionPolynomial(m, terms)


def test_split_residual_is_zero_exactly_where_the_gates_accept():
    # the count and the two refusing checks state one rule: the connection's
    # gate (controlled_connection) and the Hamiltonian's (hamiltonian_spectrum)
    rng = np.random.default_rng(23)
    seen = set()
    for _ in range(1000):
        model, conn, ham = _random_split_case(rng)
        zero, empty = ActionPolynomial.zero(model.m), ControlConnection.empty(model.m, 2)
        conn_ok = _accepts(lambda: classical.controlled_connection(model, conn))
        ham_ok = _accepts(lambda: hamiltonian_spectrum(model, ham))
        assert conn_ok == (split_residual(model, zero, conn) == 0)
        assert ham_ok == (split_residual(model, ham, empty) == 0)
        seen.update({("connection", conn_ok), ("hamiltonian", ham_ok)})
    assert len(seen) == 4  # both gates both accepted and refused


_POLY = ParameterPolynomial(2, {(0, 0): 0.3})
# connections that break the split of a model with m=2 and axis 0 controlled,
# with the error and message each must be refused with
_VIOLATIONS = {
    "component-on-dynamic-axis": (
        ControlConnection(2, 2, {(1, 0): {(0, 0): _POLY}}),
        SplitViolationError,
        r"component on axis 1 outside \(0,\)",
    ),
    "shift-touching-dynamic-axis": (
        ControlConnection.from_half_spectrum(2, 2, {(0, 0): {(1, 1): _POLY}}),
        SplitViolationError,
        r"Fourier shift \(-?1, -?1\) touches axes outside \(0,\)",
    ),
    "connection-of-another-m": (
        ControlConnection(3, 2, {(0, 0): {(0, 0, 0): _POLY}}),
        DimensionMismatchError,
        "connection has m=3, model has m=2",
    ),
}

_ENTRY_POINTS = {
    "holonomy": lambda model, conn, loop: holonomy(model, conn, loop, 8),
    "evolve_control": lambda model, conn, loop: evolve_control(model, conn, loop, 8),
    "evolve_full": lambda model, conn, loop: evolve_full(
        model, ActionPolynomial(2, {(0, 2): 0.5}), conn, loop, 8
    ),
    "delta_generator": lambda model, conn, loop: delta_generator(model, conn, [1.0, 0.0], [0.0, 1.0]),
    "classical_mode_transport": lambda model, conn, loop: classical_mode_transport(
        model, conn, loop, [0.1], 8
    ),
    "classical_action_transport": lambda model, conn, loop: classical_action_transport(
        model, conn, loop, [1.0], np.zeros((17, 1)), 8
    ),
    "abelian_control_phases": lambda model, conn, loop: abelian_control_phases(model, conn, loop),
}


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
@pytest.mark.parametrize("kind", list(_VIOLATIONS))
def test_every_entry_point_refuses_a_split_violation_by_name(kind, entry):
    conn, error, message = _VIOLATIONS[kind]
    model = TorusModel(2, (0,), (0.0, 0.0), 2)
    loop = CirclePath.circle((0.0, 0.0), 1.0, 1.0)
    with pytest.raises(error, match=message):
        _ENTRY_POINTS[entry](model, conn, loop)


# --- mode transport ----------------------------------------------------------


def test_mode_transport_zero_mode_constant():
    model = TorusModel(1, (0,), (0.0,), 4)
    conn = _cos_connection(0.5)
    curve = WaypointPath(((0.0,), (1.0,)), 1.0)
    result = classical_mode_transport(model, conn, curve, [0.3], 200)
    i0 = [tuple(r) for r in result.modes].index((0,))
    assert result.direct[i0] == pytest.approx(1.0)
    assert result.ordered[i0] == pytest.approx(1.0, abs=1e-12)


def test_mode_transport_constant_component_closed_form(monkeypatch):
    # kappa constant: psi_n(T) = exp(i n (phi0 + kappa * displacement)) for
    # every mode, both routes, no truncation loss.  The angle route carries
    # no actions, so it never builds the action coupling.
    def coupling(self, w, phi):
        raise AssertionError("mode transport evaluated the action coupling")

    monkeypatch.setattr(CompiledConnection, "coupling", coupling)
    model = TorusModel(1, (0,), (0.0,), 6)
    kappa, displacement, phi0 = 0.7, 2.0, 0.3
    conn = _const_connection(1, 0, kappa)
    curve = WaypointPath(((0.0,), (displacement,)), 1.0)
    sampled = []
    sample = WaypointPath.sample
    monkeypatch.setattr(
        WaypointPath, "sample", lambda self, t, segment=None: sampled.append(len(t)) or sample(self, t, segment)
    )
    result = classical_mode_transport(model, conn, curve, [phi0], 200, guard=0)
    # one weight table: the RK4 route's half-step ends, stage midpoints and
    # start; the ordered product reads the full steps' midpoints from it
    assert sampled == [4 * 200 + 1]
    expected = np.exp(1j * result.modes[:, 0] * (phi0 + kappa * displacement))
    assert np.max(np.abs(result.direct - expected)) < 1e-12
    assert np.max(np.abs(result.ordered - expected)) < 1e-12


def test_mode_transport_two_routes_agree_on_interior():
    model = TorusModel(1, (0,), (0.0,), 8)
    conn = ControlConnection.from_half_spectrum(
        1, 1, {(0, 0): {(1,): ParameterPolynomial(1, {(0,): 0.05, (1,): 0.02})}}
    )
    curve = WaypointPath(((0.0,), (1.0,)), 1.0)
    result = classical_mode_transport(model, conn, curve, [0.4], 4000, guard=6)
    assert result.discrepancy <= 1e-6


def test_mode_transport_consistency_improves_with_steps():
    # two harmonics with different sigma-weights: the ordered-product factors
    # stop commuting, so the route discrepancy is discretization-dominated at
    # coarse steps and falls at second order until the truncation floor.
    model = TorusModel(1, (0,), (0.0,), 8)
    conn = ControlConnection.from_half_spectrum(
        1,
        2,
        {
            (0, 0): {(1,): ParameterPolynomial(2, {(0, 0): 0.05, (0, 1): 0.03})},
            (0, 1): {(1,): ParameterPolynomial(2, {(0, 0): 0.02j, (1, 0): 0.03})},
        },
    )
    curve = CirclePath.circle((0.0, 0.0), 1.0, 1.0)
    coarse = classical_mode_transport(model, conn, curve, [0.4], 50, guard=6)
    fine = classical_mode_transport(model, conn, curve, [0.4], 400, guard=6)
    assert fine.discrepancy < coarse.discrepancy / 16


@pytest.mark.parametrize("guard", [-1, 5])
def test_mode_transport_refuses_a_guard_outside_the_box_before_stepping(monkeypatch, guard):
    def fail(*args):
        raise AssertionError("a refused guard reached the RK4 route")

    monkeypatch.setattr(classical, "_rk4_along", fail)
    model = TorusModel(1, (0,), (0.0,), 4)
    curve = WaypointPath(((0.0,), (1.0,)), 1.0)
    with pytest.raises(ValueError, match="guard"):
        classical_mode_transport(model, _cos_connection(0.5), curve, [0.3], 10, guard=guard)


def test_mode_transport_guard_at_truncation_compares_mode_zero():
    model = TorusModel(1, (0,), (0.0,), 4)
    curve = WaypointPath(((0.0,), (1.0,)), 1.0)
    result = classical_mode_transport(model, _cos_connection(0.5), curve, [0.3], 50, guard=4)
    i0 = [tuple(r) for r in result.modes].index((0,))
    assert result.discrepancy == abs(result.direct[i0] - result.ordered[i0])


def test_mode_transport_accepts_bandwidth_over_truncation():
    # shifts wider than the box only feed from outside it: truncation loss, no error
    model = TorusModel(1, (0,), (0.0,), 1)
    wide = ControlConnection.from_half_spectrum(
        1, 1, {(0, 0): {(2,): ParameterPolynomial(1, {(0,): 0.5})}}
    )
    result = classical_mode_transport(model, wide, WaypointPath(((0.0,), (1.0,)), 1.0), [0.3], 20)
    assert np.all(np.isfinite(result.ordered))


@pytest.mark.parametrize(
    "points", [((0.0,), (1.0,)), ((0.0, 0.0, 0.0), (1.0, 0.5, -0.5))], ids=["short", "long"]
)
def test_curve_dimension_mismatch_rejected(points):
    model = TorusModel(2, (0,), (0.0, 0.0), 2)
    conn = ControlConnection.from_half_spectrum(
        2,
        2,
        {
            (0, 0): {(1, 0): ParameterPolynomial(2, {(0, 1): 0.2})},
            (0, 1): {(0, 0): ParameterPolynomial(2, {(0, 0): 0.3})},
        },
    )
    curve = WaypointPath(points, 1.0)
    steps = 4
    with pytest.raises(DimensionMismatchError):
        state0 = ClassicalState([1.0, 1.0], [0.0, 0.0])
        evolve_perturbed(ActionPolynomial.zero(2), conn, curve, state0, steps)
    with pytest.raises(DimensionMismatchError):
        evolve_control(model, conn, curve, steps)
    with pytest.raises(DimensionMismatchError):
        classical_mode_transport(model, conn, curve, [0.0], steps)
    with pytest.raises(DimensionMismatchError):
        classical_action_transport(model, conn, curve, [1.0], np.zeros((2 * steps + 1, 1)), steps)


# --- action transport ---------------------------------------------------------


def test_action_transport_angle_independent_is_constant():
    model = TorusModel(1, (0,), (0.0,), 4)
    conn = _const_connection(1, 0, 0.9)
    curve = WaypointPath(((0.0,), (1.5,)), 1.0)
    transport = classical_mode_transport(model, conn, curve, [0.2], 100)
    final = classical_action_transport(model, conn, curve, [1.3], transport.phi_history, 100)
    assert final[0] == pytest.approx(1.3, abs=1e-14)


def test_action_transport_matches_direct_rk4():
    # one controlled axis, sin(phi) component: cross-check the ordered
    # product against direct RK4 of the coupled action-angle system.
    model = TorusModel(1, (0,), (0.0,), 4)
    amplitude = 0.6
    conn = ControlConnection.from_half_spectrum(
        1, 1, {(0, 0): {(1,): ParameterPolynomial(1, {(0,): -0.5j * amplitude})}}
    )  # sin(phi^0) * amplitude
    curve = WaypointPath(((0.0,), (1.0,)), 1.0)
    steps = 2000
    transport = classical_mode_transport(model, conn, curve, [0.7], steps)
    final = classical_action_transport(model, conn, curve, [1.1], transport.phi_history, steps)

    def rhs(t, y):
        I, phi = y
        sigma, vel = curve.point(t), curve.velocity(t)
        lam = conn.field(0, 0, sigma)
        return np.array(
            [-lam.derivative(0).evaluate([phi]) * I * vel[0], lam.evaluate([phi]) * vel[0]]
        )

    y = np.array([1.1, 0.7])
    times = np.linspace(0.0, 1.0, steps + 1)
    for t0, t1 in zip(times[:-1], times[1:]):
        h = float(t1 - t0)
        y = _array_rk4_step(rhs, h, y, float(t0), float(t0) + 0.5 * h, float(t1))
    assert final[0] == pytest.approx(y[0], abs=1e-6)


def test_action_transport_reversal_returns_start():
    model = TorusModel(1, (0,), (0.0,), 4)
    conn = _cos_connection(0.5)
    curve = CirclePath.circle((0.0, 0.0), 1.0, 1.0)
    conn2 = ControlConnection.from_half_spectrum(
        1, 2, {(0, 0): {(1,): ParameterPolynomial(2, {(0, 0): 0.25})}}
    )
    steps = 500
    forward = classical_mode_transport(model, conn2, curve, [0.3], steps)
    mid = classical_action_transport(model, conn2, curve, [0.8], forward.phi_history, steps)
    back = classical_action_transport(
        model, conn2, curve.reverse(), mid, forward.phi_history[::-1], steps
    )
    assert back[0] == pytest.approx(0.8, abs=1e-8)


def _random_transport_connection(rng, l: int, bandwidth: int) -> ControlConnection:
    """Seeded connection on an l-torus, d=2, shifts up to ``bandwidth``, linear in sigma."""
    half = {}
    for axis in range(l):
        for beta in range(2):
            fourier = {}
            for _ in range(3):
                shift = tuple(int(x) for x in rng.integers(-bandwidth, bandwidth + 1, size=l))
                if shift in fourier or tuple(-x for x in shift) in fourier:
                    continue
                re, im = rng.uniform(-0.5, 0.5, size=(2, 3))
                zero = not any(shift)
                exponents = ((0, 0), (1, 0), (0, 1))
                poly = {e: (r if zero else complex(r, i)) for e, r, i in zip(exponents, re, im)}
                fourier[shift] = ParameterPolynomial(2, poly)
            half[(axis, beta)] = fourier
    return ControlConnection.from_half_spectrum(l, 2, half)


@pytest.mark.parametrize("l, steps", [(1, 70), (2, 40), (2, 200)])
def test_transport_bounds_cover_the_dense_norms(monkeypatch, l, steps):
    # both transports pass exp_stack a bound read from their weights; it must be
    # at least the largest 1-norm of every chunk (up to the rounding of the sums)
    seen = []
    real_exp_stack = classical.exp_stack

    def checking(a, bound, *args):
        seen.append((len(a), np.max(np.abs(a).sum(axis=1), initial=0.0), bound))
        return real_exp_stack(a, bound, *args)

    monkeypatch.setattr(classical, "exp_stack", checking)
    rng = np.random.default_rng(l * steps)
    model = TorusModel(l, tuple(range(l)), (0.25,) * l, 3)
    curve = CirclePath.circle((0.1, -0.2), 1.5, 1.0)
    for bandwidth in (0, 1, 2):
        conn = _random_transport_connection(rng, l, bandwidth)
        phi0 = rng.uniform(0.0, 6.0, size=l)
        transport = classical_mode_transport(model, conn, curve, phi0, steps, guard=0)
        classical_action_transport(model, conn, curve, np.ones(l), transport.phi_history, steps)
        assert sum(count for count, _, _ in seen) == 2 * steps
        assert all(norm <= bound * (1 + 1e-13) for _, norm, bound in seen)
        seen.clear()


# --- reparameterization invariance --------------------------------------------


def test_classical_reparameterization_invariance_full_state():
    # with H = 0 the whole final state is a function of the traced path only
    ham = ActionPolynomial.zero(1)
    conn = _cos_connection(0.5)
    base = WaypointPath(((0.0,), (1.0,)), 1.0)
    warped = reparameterize(base, lambda t: t**2, lambda t: 2 * t, 1.0)
    s0 = ClassicalState([0.8], [0.1])
    a = evolve_perturbed(ham, conn, base, s0, 2000).final
    b = evolve_perturbed(ham, conn, warped, s0, 2000).final
    assert np.allclose(a.actions, b.actions, atol=1e-8)
    assert np.allclose(a.angles, b.angles, atol=1e-8)


def test_classical_reparameterization_invariance_controlled_block():
    # with H != 0 only the controlled block is path-only; the dynamic angle
    # keeps winding with wall-clock time.
    model = TorusModel(2, (0,), (0.0, 0.0), 4)
    ham = ActionPolynomial(2, {(0, 2): 0.5})
    conn = ControlConnection.from_half_spectrum(
        2, 1, {(0, 0): {(1, 0): ParameterPolynomial(1, {(0,): 0.2})}}
    )
    base = WaypointPath(((0.0,), (1.0,)), 1.0)
    warped = reparameterize(base, lambda t: t**2, lambda t: 2 * t, 1.0)
    s0 = ClassicalState([0.5, 1.0], [0.0, 0.0])
    a = evolve_perturbed(ham, conn, base, s0, 2000).final
    b = evolve_perturbed(ham, conn, warped, s0, 2000).final
    ctrl = list(model.controlled)
    assert np.allclose(a.actions[ctrl], b.actions[ctrl], atol=1e-8)
    assert np.allclose(a.angles[ctrl], b.angles[ctrl], atol=1e-8)
    # dynamic block agrees here because duration matches; actions do regardless
    assert np.allclose(a.actions, b.actions, atol=1e-8)
