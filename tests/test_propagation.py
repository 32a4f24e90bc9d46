from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_holonomy import (
    ActionPolynomial,
    CirclePath,
    ClassicalState,
    ControlConnection,
    OpenCurveError,
    ParameterPolynomial,
    SplitViolationError,
    TorusFourierField,
    TorusModel,
    WaypointPath,
    classical_mode_transport,
    delta_generator,
    evolve_control,
    evolve_full,
    evolve_perturbed,
    holonomy,
    quantize_affine,
    reparameterize,
)
from scipy.linalg import expm

from torus_holonomy import BandwidthError, DimensionMismatchError, concatenate, propagation, step_intervals
from torus_holonomy.classical import _mode_basis
from torus_holonomy.curves import segment_edges
from torus_holonomy.lattice import mode_array, sublattice_index
from torus_holonomy.serialize import operator_payload
from torus_holonomy.operators import (
    CompiledConnection,
    commutator,
    compile_connection,
    hamiltonian_operator,
    hamiltonian_spectrum,
    quantized_basis,
)
from torus_holonomy.verify import (
    _abelian_connection,
    _demo_hamiltonian,
    _demo_model,
    _nonabelian_connection,
    _unit_circle,
    abelian_control_phases,
)


def _array_rk4_step(rhs, h, y, s0, sm, s1):
    """Classical RK4 on arrays, kept apart from the package's kernel."""
    k1 = rhs(s0, y)
    k2 = rhs(sm, y + 0.5 * h * k1)
    k3 = rhs(sm, y + 0.5 * h * k2)
    k4 = rhs(s1, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _kappa_connection(m: int, kappa: float) -> ControlConnection:
    zero = (0,) * m
    return ControlConnection(m, 1, {(0, 0): {zero: ParameterPolynomial(1, {(0,): kappa})}})


# --- delta generator ----------------------------------------------------------


def test_delta_zero_velocity():
    model = _demo_model(3)
    conn = _nonabelian_connection(m=2)
    op = delta_generator(model, conn, [0.1, 0.2], [0.0, 0.0])
    assert np.max(np.abs(op.matrix)) == 0.0


def test_delta_constant_component_diagonal():
    model = TorusModel(1, (0,), (0.3,), 4)
    kappa, v = 0.7, 1.4
    op = delta_generator(model, _kappa_connection(1, kappa), [0.0], [v])
    modes = mode_array(model).tolist()
    expected = np.diag([(n[0] - 0.3) * kappa * v for n in modes])
    assert np.allclose(op.matrix, expected, atol=1e-15)


def test_delta_cosine_elements():
    # cos(phi) component at unit velocity, zero offset: <n+-1|D|n> = (n +- 1/2)/2
    model = TorusModel(1, (0,), (0.0,), 3)
    conn = ControlConnection.from_half_spectrum(
        1, 1, {(0, 0): {(1,): ParameterPolynomial(1, {(0,): 0.5})}}
    )
    op = delta_generator(model, conn, [0.0], [1.0]).matrix
    modes = mode_array(model).tolist()
    for i, p in enumerate(modes):
        for j, q in enumerate(modes):
            n = q[0]
            if p[0] == n + 1:
                assert op[i, j] == pytest.approx(0.5 * (n + 0.5))
            elif p[0] == n - 1:
                assert op[i, j] == pytest.approx(0.5 * (n - 0.5))
            else:
                assert op[i, j] == 0.0


def test_delta_equals_quantized_pairing():
    model = _demo_model(3)
    conn = _nonabelian_connection(m=2)
    sigma, velocity = [0.3, -0.2], [1.1, 0.4]
    direct = delta_generator(model, conn, sigma, velocity).matrix
    via_obs = quantize_affine(model, conn.as_observable(sigma, velocity)).matrix
    assert np.array_equal(direct, via_obs)
    assert np.max(np.abs(direct - direct.conj().T)) == 0.0


# --- compiled connection -----------------------------------------------------


def _random_split_connection(
    rng, model: TorusModel, d: int, bandwidth: int, max_shifts: int = 3
) -> ControlConnection:
    """Seeded connection on the controlled axes: shifts up to ``bandwidth``, degree <= 2.

    Each (axis, beta) component that is not left empty draws 1 to ``max_shifts`` shifts.
    """
    controlled = model.controlled
    half = {}
    for axis in controlled:
        for beta in range(d):
            if rng.random() < 0.3:
                continue  # leave some (axis, beta) components empty
            fourier = {}
            for _ in range(rng.integers(1, max_shifts + 1)):
                shift = [0] * model.m
                for a in controlled:
                    shift[a] = int(rng.integers(-bandwidth, bandwidth + 1))
                shift = tuple(shift)
                if shift in fourier or tuple(-x for x in shift) in fourier:
                    continue
                zero = not any(shift)
                poly = {}
                for _ in range(rng.integers(1, 4)):
                    exps = [0] * d
                    for _ in range(rng.integers(0, 3)):
                        exps[int(rng.integers(d))] += 1
                    re, im = rng.uniform(-0.5, 0.5, size=2)
                    poly[tuple(exps)] = re if zero else complex(re, im)
                fourier[shift] = ParameterPolynomial(d, poly)
            half[(axis, beta)] = fourier
    return ControlConnection.from_half_spectrum(model.m, d, half)


def _random_split_model(rng) -> TorusModel:
    m = int(rng.integers(1, 4))
    size = int(rng.integers(1, m + 1))
    controlled = tuple(sorted(int(a) for a in rng.choice(m, size=size, replace=False)))
    offsets = tuple(float(x) for x in rng.uniform(-1.0, 1.0, size=m))
    return TorusModel(m, controlled, offsets, int(rng.integers(2, 4)) if m < 3 else 2)


def _scatter_loop_mode_generator(model, conn, sigma, v):
    """Mode-system generator scattered entry by entry: feeds of n from n + c."""
    modes = mode_array(model)
    N = model.truncation
    shape = (model.axis_size,) * model.m
    gen = np.zeros((model.size, model.size), dtype=complex)
    for (axis, beta), fourier in sorted(conn.components.items()):
        if v[beta] == 0.0:
            continue
        for c, poly in sorted(fourier.items()):
            source = modes + np.asarray(c)
            ok = np.all(np.abs(source) <= N, axis=1)
            rows = np.ravel_multi_index((modes[ok] + N).T, shape)
            cols = np.ravel_multi_index((source[ok] + N).T, shape)
            gen[rows, cols] += poly.evaluate(sigma) * v[beta] * modes[ok, axis]
    return gen


def _field_drift_and_coupling(conn, sigma, v, phi):
    """``L_k . v`` and ``G[a, k] = d_a L_k . v`` from the frozen component fields."""
    drift = np.zeros(conn.m)
    coupling = np.zeros((conn.m, conn.m))
    for (axis, beta) in conn.components:
        fld = conn.field(axis, beta, sigma)
        drift[axis] += fld.evaluate(phi) * v[beta]
        for a in range(conn.m):
            coupling[a, axis] += fld.derivative(a).evaluate(phi) * v[beta]
    return drift, coupling


def test_compiled_generator_matches_quantized_pairing():
    rng = np.random.default_rng(20260)
    extra = np.random.default_rng(20261)  # draws for the classical side only
    for case in range(61):
        model = _random_split_model(rng)
        d = int(rng.integers(1, 4))
        bandwidth = int(rng.integers(0, 3))
        conn = _random_split_connection(rng, model, d, bandwidth)
        # a connection on every axis breaks the split whenever the model has a dynamic axis
        everywhere = replace(model, controlled=range(model.m))
        broken = _random_split_connection(extra, everywhere, d, bandwidth)
        if case == 60:
            conn = broken = ControlConnection.empty(model.m, d)
        sub_model = propagation.controlled_submodel(model)
        sub_conn = conn.restricted(model.controlled)
        compiled = compile_connection(sub_conn)
        basis = quantized_basis(sub_model, compiled)
        modes = _mode_basis(sub_model, compiled)
        sigmas = rng.uniform(-1.0, 1.0, size=(4, d))
        velocities = rng.uniform(-1.0, 1.0, size=(4, d))
        velocities[1, rng.integers(d)] = 0.0  # one zero-velocity component
        velocities[2] = 0.0
        weights = compiled.weights(sigmas, velocities)
        for sigma, v, w in zip(sigmas, velocities, weights):
            gen = basis.generators(w[None])[0]
            direct = quantize_affine(sub_model, sub_conn.as_observable(sigma, v)).matrix
            assert np.max(np.abs(gen - direct)) <= 1e-14
            full = delta_generator(model, conn, sigma, v).matrix
            assert np.max(np.abs(propagation._lift_controlled(model, gen) - full)) <= 1e-14
            looped = _scatter_loop_mode_generator(sub_model, sub_conn, sigma, v)
            assert np.max(np.abs(modes.generators(w[None])[0].T - looped)) <= 1e-14
            for whole in (conn, broken):
                phi = extra.uniform(-np.pi, np.pi, size=model.m)
                on_torus = compile_connection(whole)
                w_torus = on_torus.weights([sigma], [v])[0]
                drift, coupling = _field_drift_and_coupling(whole, sigma, v, phi)
                assert np.max(np.abs(on_torus.drift(w_torus, phi) - drift)) <= 1e-14
                assert np.max(np.abs(on_torus.coupling(w_torus, phi) - coupling)) <= 1e-14
                actions = extra.uniform(-2.0, 2.0, size=model.m)
                rate, fused_drift = on_torus.flow(w_torus, phi, actions)
                assert np.shape(rate) == np.shape(fused_drift) == (model.m,)
                assert np.max(np.abs(rate - -coupling @ actions)) <= 1e-14
                assert np.max(np.abs(fused_drift - drift)) <= 1e-14
        assert np.max(np.abs(basis.generators(weights[2][None])[0])) == 0.0


def _polynomial_gradient(ham, actions):
    """grad H term by term from the exponent table."""
    grad = np.zeros(ham.m)
    for e, v in ham.terms.items():
        for k, p in enumerate(e):
            if p:
                rest = [a ** (q - (j == k)) for j, (a, q) in enumerate(zip(actions, e))]
                grad[k] += v * p * np.prod(rest)
    return grad


@st.composite
def _rk4_cases(draw):
    """A model (m <= 3), a split or non-split connection of bandwidth <= 2 (1 to
    about 50 compiled terms), a polynomial Hamiltonian, a circle or waypoint
    curve, an initial state and a step count."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = _random_split_model(rng)
    split = rng.random() < 0.5
    owner = model if split else replace(model, controlled=range(model.m))
    d, bandwidth, max_shifts = int(rng.integers(1, 4)), int(rng.integers(0, 3)), int(rng.integers(1, 17))
    conn = ControlConnection.empty(model.m, d)
    while not conn.components:
        conn = _random_split_connection(rng, owner, d, bandwidth, max_shifts)
    exponents = rng.integers(0, 3, size=(int(rng.integers(0, 4)), model.m))
    ham = ActionPolynomial(model.m, {tuple(map(int, e)): float(rng.uniform(-1.0, 1.0)) for e in exponents})
    # the curve's reach shrinks with the term count, so that the rates stay
    # moderate and a few RK4 steps stay stable
    reach = 1.0 / len({(axis, c) for (axis, _), fourier in conn.components.items() for c in fourier})
    center = rng.uniform(-1.0, 1.0, size=d)
    if rng.random() < 0.5:
        u, v = rng.uniform(-reach, reach, size=(2, d))
        curve = CirclePath(tuple(center), tuple(u), tuple(v), 1.0, turns=float(rng.uniform(0.5, 2.0)))
    else:
        points = center + rng.uniform(-reach, reach, size=(int(rng.integers(2, 5)), d))
        curve = WaypointPath(tuple(map(tuple, points)), 1.0)
    state0 = ClassicalState(rng.uniform(-2.0, 2.0, size=model.m), rng.uniform(-np.pi, np.pi, size=model.m))
    steps = draw(st.integers(len(segment_edges(curve)) - 1, 24))
    return model, split, conn, ham, curve, state0, steps


def _assert_rk4_steps(rhs, times, states):
    """Each state is one array RK4 step of ``rhs`` from the one before, to 1e-12 of its size.

    Stepping from the kernel's own states keeps rounding from being
    amplified along trajectories that grow.
    """
    assert len(states) == len(times)
    for t0, t1, y0, y1 in zip(times[:-1], times[1:], states[:-1], states[1:]):
        h = float(t1 - t0)
        expected = _array_rk4_step(rhs, h, y0, float(t0), float(t0) + 0.5 * h, float(t1))
        assert np.max(np.abs(y1 - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(_rk4_cases())
def test_rk4_kernel_matches_array_rk4_of_the_field_oracle(case):
    # the scalar RK4 kernel (compiled drift and flow on Python floats) against
    # RK4 on arrays of the frozen component fields, on the same step grid
    model, split, conn, ham, curve, state0, steps = case
    m = model.m

    def rhs(t, y):
        drift, coupling = _field_drift_and_coupling(conn, curve.point(t), curve.velocity(t), y[m:])
        return np.concatenate([-coupling @ y[:m], _polynomial_gradient(ham, y[:m]) + drift])

    times = step_intervals(curve, steps)
    traj = evolve_perturbed(ham, conn, curve, state0, steps)
    _assert_rk4_steps(rhs, times, np.hstack([traj.actions, traj.angles]))
    if not split:
        return
    sub = conn.restricted(model.controlled)
    half_times = np.empty(2 * steps + 1)
    half_times[::2] = times
    half_times[1::2] = 0.5 * (times[:-1] + times[1:])
    phi0 = state0.angles[list(model.controlled)]
    _assert_rk4_steps(
        lambda t, phi: _field_drift_and_coupling(sub, curve.point(t), curve.velocity(t), phi)[0],
        half_times,
        classical_mode_transport(model, conn, curve, phi0, steps).phi_history,
    )


def test_compiled_empty_connection():
    sub_model = TorusModel(2, (0, 1), (0.25, -0.5), 2)
    compiled = compile_connection(ControlConnection.empty(2, 3))
    weights = compiled.weights(np.ones((5, 3)), np.ones((5, 3)))
    assert weights.shape == (5, 0)
    generator = quantized_basis(sub_model, compiled).generators(weights[:1])[0]
    assert np.array_equal(generator, np.zeros((25, 25)))
    rate, drift = compiled.flow(weights[0], np.array([0.3, -1.1]), np.array([1.5, 0.7]))
    assert np.array_equal(rate, np.zeros(2)) and np.array_equal(drift, np.zeros(2))


def test_compiled_rejects_bandwidth_over_truncation():
    model = TorusModel(1, (0,), (0.0,), 1)
    wide = ControlConnection.from_half_spectrum(
        1, 2, {(0, 1): {(2,): ParameterPolynomial(2, {(0, 1): 0.5})}}
    )
    with pytest.raises(BandwidthError):
        quantized_basis(model, compile_connection(wide))
    with pytest.raises(BandwidthError):
        holonomy(model, wide, _unit_circle(), 10)


def _per_step_block_product(model, conn, curve, steps):
    """Midpoint ordered product assembled per step through quantize_affine."""
    sub_model = propagation.controlled_submodel(model)
    sub_conn = conn.restricted(model.controlled)
    times = step_intervals(curve, steps)
    u = np.eye(sub_model.size, dtype=complex)
    for t0, t1 in zip(times[:-1], times[1:]):
        tm = 0.5 * float(t0 + t1)
        obs = sub_conn.as_observable(curve.point(tm), curve.velocity(tm))
        u = expm(-1j * float(t1 - t0) * quantize_affine(sub_model, obs).matrix) @ u
    return u


def test_holonomy_matches_per_step_assembly():
    rng = np.random.default_rng(7)
    cases = [(_demo_model(4), _nonabelian_connection(m=2))]
    for _ in range(4):
        model = _random_split_model(rng)
        cases.append((model, _random_split_connection(rng, model, 2, 2)))
    loop = CirclePath.circle((0.1, -0.2), 0.8, 1.0)
    for model, conn in cases:
        compiled = holonomy(model, conn, loop, 200).operator.matrix
        reference = _per_step_block_product(model, conn, loop, 200)
        assert np.max(np.abs(compiled - reference)) <= 1e-13


# --- control propagator -----------------------------------------------------------


def test_control_empty_connection_identity():
    model = _demo_model(3)
    rep = evolve_control(model, ControlConnection.empty(2, 2), _unit_circle(), 50)
    assert np.array_equal(propagation._lift_controlled(model, rep.operator.matrix), np.eye(model.size))


def test_control_abelian_matches_closed_form():
    model = _demo_model(8)
    conn = _abelian_connection()
    loop = _unit_circle()
    rep = holonomy(model, conn, loop, 1000)
    expected = abelian_control_phases(model, conn, loop)
    assert np.max(np.abs(rep.operator.matrix - np.diag(expected))) <= 1e-8


def test_control_step_halving_order():
    model = TorusModel(1, (0,), (0.3,), 6)
    conn = _nonabelian_connection(m=1)
    curve = _unit_circle()
    fine = evolve_control(model, conn, curve, 1600).operator.matrix
    devs = []
    for steps in (100, 200, 400):
        u = evolve_control(model, conn, curve, steps).operator.matrix
        devs.append(np.max(np.abs(u - fine)))
    orders = [np.log2(devs[i] / devs[i + 1]) for i in range(len(devs) - 1)]
    assert min(orders) >= 1.9


def test_control_unitarity():
    model = _demo_model(4)
    rep = evolve_control(model, _nonabelian_connection(m=2), _unit_circle(), 300)
    assert rep.unitarity_defect <= 1e-10


def test_control_matches_rk4_matrix_ode():
    # independent route: classical RK4 on dU/dt = -i Delta(t) U, no matrix
    # exponentials anywhere, must meet the ordered product at fine steps.
    model = TorusModel(1, (0,), (0.3,), 6)
    conn = _nonabelian_connection(m=1)
    curve = _unit_circle()
    steps = 3000
    ordered = holonomy(model, conn, curve, steps).operator.matrix

    def rhs(t, u):
        gen = delta_generator(model, conn, curve.point(t), curve.velocity(t)).matrix
        return -1j * (gen @ u)

    u = np.eye(model.size, dtype=complex)
    times = np.linspace(0.0, curve.duration, steps + 1)
    for t0, t1 in zip(times[:-1], times[1:]):
        h = float(t1 - t0)
        u = _array_rk4_step(rhs, h, u, float(t0), float(t0) + 0.5 * h, float(t1))
    assert np.max(np.abs(u - ordered)) <= 1e-6


# --- holonomy ----------------------------------------------------------------------


def test_holonomy_requires_closed_loop():
    model = _demo_model(2)
    arc = CirclePath.circle((0.0, 0.0), 1.0, 1.0, turns=0.5)
    with pytest.raises(OpenCurveError):
        holonomy(model, _nonabelian_connection(m=2), arc, 50)


def test_holonomy_constant_loop_identity():
    model = _demo_model(3)
    still = CirclePath(center=(0.2, 0.9), u=(0.0, 0.0), v=(0.0, 0.0), duration=1.0)
    rep = holonomy(model, _nonabelian_connection(m=2), still, 20)
    assert np.allclose(rep.operator.matrix, np.eye(rep.operator.model.size), atol=1e-15)


def test_holonomy_forward_then_reverse_is_identity():
    model = TorusModel(1, (0,), (0.3,), 6)
    conn = _nonabelian_connection(m=1)
    loop = _unit_circle()
    fwd = holonomy(model, conn, loop, 400).operator.matrix
    bwd = holonomy(model, conn, loop.reverse(), 400).operator.matrix
    assert np.max(np.abs(bwd @ fwd - np.eye(fwd.shape[0]))) <= 1e-8


def test_reversed_waypoint_loop_steps_on_the_mirrored_grid():
    # 5 steps split 2, 2, 1 over three equal segments: the reverse walks 1, 2, 2,
    # so the two products have the same factors in opposite order
    model = TorusModel(1, (0,), (0.3,), 2)
    conn = _nonabelian_connection(m=1)
    loop = WaypointPath(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)), 1.0)
    fwd = holonomy(model, conn, loop, 5).operator.matrix
    bwd = holonomy(model, conn, loop.reverse(), 5).operator.matrix
    assert np.max(np.abs(bwd @ fwd - np.eye(fwd.shape[0]))) <= 1e-8


@st.composite
def _split_loop_cases(draw):
    """A split model (m <= 3), a non-empty connection of bandwidth <= 2 and a closed loop."""
    m = draw(st.integers(1, 3))
    controlled = draw(st.sets(st.integers(0, m - 1), min_size=1))
    offsets = draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m))
    model = TorusModel(m, tuple(sorted(controlled)), tuple(offsets), draw(st.sampled_from((2, 3))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bandwidth = draw(st.integers(0, 2))
    conn = ControlConnection.empty(m, 2)
    while not conn.components:
        conn = _random_split_connection(rng, model, 2, bandwidth)
    point = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    if draw(st.booleans()):
        loop = CirclePath.circle(draw(point), draw(st.floats(0.1, 1.0)), 1.0)
        return model, conn, loop, draw(st.integers(4, 12))
    corners = draw(st.lists(point, min_size=2, max_size=4))
    steps = draw(st.integers(len(corners), 3 * len(corners)))
    return model, conn, WaypointPath((*corners, corners[0]), 1.0), steps


@settings(derandomize=True, max_examples=15, deadline=None)
@given(_split_loop_cases())
def test_holonomy_laws_on_random_split_models(case):
    model, conn, loop, steps = case
    forward = holonomy(model, conn, loop, steps)
    assert forward.unitarity_defect <= 1e-10
    backward = holonomy(model, conn, loop.reverse(), steps).operator.matrix
    fwd = forward.operator.matrix
    assert np.max(np.abs(backward @ fwd - np.eye(fwd.shape[0]))) <= 1e-8
    # the shipped full-lattice operator: zeros between dynamic labels
    full = evolve_full(model, ActionPolynomial.zero(model.m), conn, loop, steps).operator.matrix
    di, _ = sublattice_index(model, model.dynamic)
    assert np.all(full[di[:, None] != di[None, :]] == 0.0)


@st.composite
def _split_chunk_cases(draw):
    """A split model (m <= 3, l <= 2), a connection of bandwidth <= 2 or none, a loop and steps."""
    m = draw(st.integers(1, 3))
    controlled = draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=2))
    offsets = draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m))
    model = TorusModel(m, tuple(sorted(controlled)), tuple(offsets), draw(st.sampled_from((2, 3))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    conn = ControlConnection.empty(m, 2)
    if draw(st.integers(0, 4)):
        conn = _random_split_connection(rng, model, 2, draw(st.integers(0, 2)))
    loop = CirclePath.circle((0.0, 0.0), draw(st.floats(0.1, 3.0)), 1.0)
    # a 17x17 chunk holds 28 steps, a 49x49 one 3
    return model, conn, loop, draw(st.integers(1, 40)), draw(st.sampled_from((np.nan, np.inf)))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_split_chunk_cases())
def test_chunk_bounds_cover_the_dense_norms(case):
    # each chunk's bound is at least the largest 1-norm of its generators (up
    # to the rounding of the two sums), and a non-finite weight reaches the product
    model, conn, loop, steps, bad = case
    real_exp_stack = propagation.exp_stack
    seen = []

    def checking(a, bound, *args):
        seen.append((len(a), np.max(np.abs(a).sum(axis=1), initial=0.0), bound))
        return real_exp_stack(a, bound, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(propagation, "exp_stack", checking)
        block, _ = propagation._control_block_product(model, conn, loop, steps)
    assert np.all(np.isfinite(block))
    assert sum(count for count, _, _ in seen) == steps
    assert all(norm <= bound * (1 + 1e-13) for _, norm, bound in seen)
    if not conn.components:
        return
    real_along = CompiledConnection.along

    def poisoned(self, *args):
        weights = real_along(self, *args)
        weights[steps // 2, -1] = bad
        return weights

    with pytest.MonkeyPatch.context() as patch, np.errstate(invalid="ignore"):
        patch.setattr(CompiledConnection, "along", poisoned)
        block, _ = propagation._control_block_product(model, conn, loop, steps)
    assert not np.all(np.isfinite(block))


def _random_unitaries(rng, count, n):
    x = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    return np.stack([expm(a - a.conj().T) for a in x])


@pytest.mark.parametrize("count", [1, 2, 3, 27, 28])
def test_pairwise_product_matches_the_sequential_product(count):
    # non-commuting factors: a swapped pair or a misplaced odd carry moves the product
    stack = _random_unitaries(np.random.default_rng(count), count, 6)
    want = stack[0]
    for step in stack[1:]:
        want = step @ want
    scratch = np.empty((2, count, 6, 6), dtype=complex)
    got = propagation._pairwise_product(stack, scratch)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_holonomy_block_independent_of_dynamic_label():
    model = _demo_model(3)
    conn = _nonabelian_connection(m=2)
    loop = _unit_circle()
    block = holonomy(model, conn, loop, 100).operator.matrix
    full = evolve_full(model, ActionPolynomial.zero(2), conn, loop, 100).operator.matrix
    di, _ = sublattice_index(model, model.dynamic)
    # dynamic labels -3, 0 and 2 at N = 3
    for label in (0, 3, 5):
        keep = np.flatnonzero(di == label)
        assert np.array_equal(full[np.ix_(keep, keep)], block)


def test_control_block_is_the_shipped_operator():
    # evolve_control returns the block on the controlled submodel; its lift is
    # the factorized operator that evolve writes at zero Hamiltonian
    rng = np.random.default_rng(3207)
    arc = CirclePath.circle((0.1, -0.2), 0.8, 1.0, turns=0.6)
    assert not arc.is_closed
    l2 = TorusModel(3, (0, 2), (0.1, 0.25, -0.6), 2)
    cases = [(_demo_model(3), _nonabelian_connection(m=2)), (l2, _random_split_connection(rng, l2, 2, 1))]
    for model, conn in cases:
        rep = evolve_control(model, conn, arc, 30)
        assert rep.operator.model == propagation.controlled_submodel(model)
        full = evolve_full(model, ActionPolynomial.zero(model.m), conn, arc, 30).operator.matrix
        assert np.array_equal(propagation._lift_controlled(model, rep.operator.matrix), full)
        closed = holonomy(model, conn, _unit_circle(), 30)
        control = evolve_control(model, conn, _unit_circle(), 30)
        assert np.array_equal(closed.operator.matrix, control.operator.matrix)
        assert closed.operator.model == control.operator.model
        assert closed.unitarity_defect == control.unitarity_defect


def test_holonomy_gauge_offset_enters_phases():
    # Abelian loop: offsets shift the per-mode phases exactly as exp(+i offset J)
    base = TorusModel(1, (0,), (0.0,), 3)
    shifted = TorusModel(1, (0,), (0.25,), 3)
    conn = ControlConnection(
        1,
        2,
        {(0, 0): {(0,): ParameterPolynomial(2, {(0, 1): 0.4})}},
    )
    loop = _unit_circle()
    u0 = holonomy(base, conn, loop, 400).operator.matrix
    u1 = holonomy(shifted, conn, loop, 400).operator.matrix
    from torus_holonomy.curves import line_integral

    j = line_integral({0: ParameterPolynomial(2, {(0, 1): 0.4})}, loop)
    assert np.allclose(u1, u0 * np.exp(1j * 0.25 * j), atol=1e-10)


# --- factorization ------------------------------------------------------------------


def test_evolve_full_reduces_to_dynamic_phase():
    model = _demo_model(2)
    conn = ControlConnection.empty(2, 2)
    report = evolve_full(model, _demo_hamiltonian(), conn, _unit_circle(), 40)
    energies = np.diag(hamiltonian_operator(model, _demo_hamiltonian()).matrix).real
    u1 = np.diag(np.exp(-1j * energies * 1.0))
    assert np.allclose(report.operator.matrix, u1, atol=1e-12)
    assert np.allclose(propagation._lift_controlled(model, report.reference), u1, atol=1e-12)


def test_evolve_full_commuting_generators():
    model = _demo_model(4)
    conn = _nonabelian_connection(m=2)
    h_op = hamiltonian_operator(model, _demo_hamiltonian())
    curve = _unit_circle()
    for t in np.linspace(0.0, 1.0, 10):
        delta = delta_generator(model, conn, curve.point(t), curve.velocity(t))
        assert np.max(np.abs(commutator(delta, h_op))) == 0.0


def test_evolve_full_routes_converge():
    model = _demo_model(4)
    conn = _nonabelian_connection(m=2, scale=0.25)
    coarse = evolve_full(model, _demo_hamiltonian(), conn, _unit_circle(), 250)
    fine = evolve_full(model, _demo_hamiltonian(), conn, _unit_circle(), 500)
    assert fine.deviation < coarse.deviation
    assert coarse.factorized_unitarity_defect <= 1e-10
    assert coarse.reference_unitarity_defect <= 1e-10


def test_evolve_full_reference_keeps_second_order_across_a_velocity_jump():
    # a unit circle still moving at its end, then a closed waypoint loop from
    # rest: the step that starts at the joint must average from the second
    # piece's velocity (order 1.1-1.2 when it read the joint's left limit).
    # The derived curves of the 0.9 + 1.1 chain miss their joints by an ulp
    # under T - t, tau and t - t1, which fed that step the left limit too
    from torus_holonomy import concatenate, reparameterize

    def kinked_chain(circle_duration, loop_duration):
        circle = CirclePath.circle((0.0, 0.0), 1.0, circle_duration, phase=0.3)
        start = tuple(circle.point(0.0))
        return concatenate(circle, WaypointPath((start, (0.0, 0.0), start), loop_duration))

    chain, odd = kinked_chain(1.0, 2.0), kinked_chain(0.9, 1.1)
    T = odd.duration
    twice = concatenate(odd, odd)
    warped = reparameterize(odd, lambda t: T * (t / T) ** 2, lambda t: 2.0 * t / T, T)
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
    model = TorusModel(1, (0,), (0.0,), 3)
    ham = ActionPolynomial.zero(1)
    for curve in (chain, chain.reverse()):
        ref = evolve_full(model, ham, conn, curve, 1600).reference
        errors = [
            np.max(np.abs(evolve_full(model, ham, conn, curve, steps).reference - ref))
            for steps in (50, 100, 200, 400)
        ]
        assert min(np.log2(errors[i] / errors[i + 1]) for i in range(3)) >= 1.8
    # the derived curves: three step counts against 4x the finest, about 1 s
    # for the four (a fourth level would cost about 3 s more)
    for curve in (odd.reverse(), warped, twice, twice.reverse()):
        ref = evolve_full(model, ham, conn, curve, 800).reference
        errors = [
            np.max(np.abs(evolve_full(model, ham, conn, curve, steps).reference - ref))
            for steps in (50, 100, 200)
        ]
        assert min(np.log2(errors[i] / errors[i + 1]) for i in range(2)) >= 1.8


def _dense_reference(model, hamiltonian, conn, curve, steps):
    """Endpoint-average ordered product of H_hat + Delta_hat(t) on the full lattice.

    The dense loop ``evolve_full`` used before it stepped per dynamic label,
    with Delta_hat quantized on the full lattice instead of lifted, so the
    oracle shares no code with the lift it checks.  It keeps diag(H) inside
    each step's exponent, so it also checks the factoring of the dynamic
    phase out of the reference's steps.
    """
    energies = hamiltonian_spectrum(model, hamiltonian)
    times = step_intervals(curve, steps)

    def full_delta(t: float) -> np.ndarray:
        obs = conn.as_observable(curve.point(t), curve.velocity(t))
        return quantize_affine(model, obs).matrix

    h_diag = np.diag(energies.astype(complex))
    U = np.eye(model.size, dtype=complex)
    previous = full_delta(float(times[0]))
    for t0, t1 in zip(times[:-1], times[1:]):
        dt = float(t1 - t0)
        current = full_delta(float(t1))
        gen = h_diag + 0.5 * (previous + current)
        U = expm(-1j * dt * gen) @ U
        previous = current
    return U


def _random_dynamic_hamiltonian(rng, model: TorusModel) -> ActionPolynomial:
    """Seeded polynomial of degree <= 2 in the dynamic actions only."""
    terms = {}
    for _ in range(3):
        exps = [0] * model.m
        for _ in range(rng.integers(1, 3)):
            if model.dynamic:
                exps[int(rng.choice(model.dynamic))] += 1
        terms[tuple(exps)] = float(rng.uniform(-0.5, 0.5))
    return ActionPolynomial(model.m, terms)


def test_evolve_full_reference_matches_dense_oracle():
    rng = np.random.default_rng(4401)
    loop = CirclePath.circle((0.1, -0.2), 0.8, 1.0)
    cases = [
        # non-leading controlled axis
        (TorusModel(2, (1,), (0.3, -0.4), 3), ActionPolynomial(2, {(2, 0): 0.4, (1, 0): -0.1})),
        # two dynamic axes, Hamiltonian coupling both dynamic actions
        (TorusModel(3, (1,), (0.1, 0.25, -0.6), 2),
         ActionPolynomial(3, {(2, 0, 0): 0.3, (1, 0, 1): -0.2, (0, 0, 2): 0.15})),
        # callable Hamiltonian of the dynamic actions
        (TorusModel(3, (0, 2), (0.5, -0.2, 0.7), 2), lambda j: float(np.cos(j[0]) + 0.2 * j[0] ** 2)),
        (TorusModel(3, (2,), (0.0, 0.4, -0.3), 3), lambda j: float(0.3 * j[0] * j[1] + np.sin(j[1]))),
        # no dynamic axis at all
        (TorusModel(1, (0,), (0.2,), 3), ActionPolynomial.zero(1)),
    ]
    while len(cases) < 11:
        model = _random_split_model(rng)
        if model.dynamic:
            cases.append((model, _random_dynamic_hamiltonian(rng, model)))
    for model, ham in cases:
        conn = ControlConnection.empty(model.m, 2)
        while not conn.components:
            conn = _random_split_connection(rng, model, 2, int(rng.integers(1, 3)))
        steps = int(rng.integers(3, 9))
        report = evolve_full(model, ham, conn, loop, steps)
        got = propagation._lift_controlled(model, report.reference)
        assert np.max(np.abs(got - _dense_reference(model, ham, conn, loop, steps))) <= 1e-12
        di, _ = sublattice_index(model, model.dynamic)
        assert np.all(got[di[:, None] != di[None, :]] == 0.0)


def test_evolve_full_per_label_matches_dense_route():
    """The per-label stacks against the dense full-lattice route they replace."""
    rng = np.random.default_rng(4402)
    loop = CirclePath.circle((0.1, -0.2), 0.8, 1.0)
    cases = [
        (_demo_model(4), _demo_hamiltonian(), _nonabelian_connection(m=2, scale=0.25)),
        (TorusModel(3, (1,), (0.1, 0.25, -0.6), 2),
         ActionPolynomial(3, {(2, 0, 0): 0.3, (1, 0, 1): -0.2, (0, 0, 2): 0.15}), None),
        (TorusModel(3, (0, 2), (0.5, -0.2, 0.7), 2), lambda j: float(np.cos(j[0]) + 0.2 * j[0] ** 2),
         None),
        (TorusModel(1, (0,), (0.2,), 3), ActionPolynomial.zero(1), None),
    ]
    for model, ham, conn in cases:
        while conn is None or not conn.components:
            conn = _random_split_connection(rng, model, 2, int(rng.integers(1, 3)))
        steps = int(rng.integers(5, 12))
        report = evolve_full(model, ham, conn, loop, steps)

        u2, _ = propagation._control_block_product(model, conn, loop, steps)
        phases = np.exp(-1j * hamiltonian_spectrum(model, ham) * loop.duration)
        dense = np.diag(phases) @ propagation._lift_controlled(model, u2)
        reference = propagation._lift_controlled(model, report.reference)
        eye = np.eye(model.size)
        payload = report.operator.matrix
        assert np.max(np.abs(payload - dense)) <= 1e-15
        dense_defect = np.max(np.abs(dense.conj().T @ dense - eye))
        assert abs(report.factorized_unitarity_defect - dense_defect) <= 1e-15
        reference_defect = np.max(np.abs(reference.conj().T @ reference - eye))
        assert abs(report.reference_unitarity_defect - reference_defect) <= 1e-15
        assert abs(report.deviation - np.max(np.abs(dense - reference))) <= 1e-15

        written = operator_payload(report.operator)
        entries = np.asarray(written["entries"])
        matrix = (entries[:, 0] + 1j * entries[:, 1]).reshape(written["shape"])
        di, _ = sublattice_index(model, model.dynamic)
        off_block = matrix[di[:, None] != di[None, :]]
        assert (np.max(np.abs(off_block)) if off_block.size else 0.0) == 0.0


def test_evolve_full_measures_no_full_lattice_defect(monkeypatch):
    shapes = []
    real_defect = propagation.unitarity_defect

    def recording_defect(matrix):
        shapes.append(matrix.shape)
        return real_defect(matrix)

    monkeypatch.setattr(propagation, "unitarity_defect", recording_defect)
    model = _demo_model(4)
    evolve_full(model, _demo_hamiltonian(), _nonabelian_connection(m=2), _unit_circle(), 5)
    csize = propagation.controlled_submodel(model).size
    assert len(shapes) == 2
    assert all(shape[-2:] == (csize, csize) for shape in shapes)


def test_unitarity_defect_of_a_stack_is_its_worst_matrix():
    rng = np.random.default_rng(9)
    stack = np.stack([expm(1j * (h + h.conj().T)) for h in rng.normal(size=(4, 5, 5))])
    stack[2] *= 1.0 + 1e-9
    each = [propagation.unitarity_defect(u) for u in stack]
    assert propagation.unitarity_defect(stack) == pytest.approx(max(each), abs=1e-15)
    assert max(each) == each[2] > 1e-9


# 1-norms from 1e-8 to 100: five that the [9/9] Padé approximant takes unscaled
# (up to theta_9), then three that it scales
_PADE_NORMS = (1e-8, 1e-3, 0.1, 0.6, 1.5, 4.0, 12.0, 100.0)


def _general(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def _skew_hermitian(rng, n):
    x = _general(rng, n)
    return x - x.conj().T


def _real(rng, n):
    return rng.normal(size=(n, n))


# Real non-normal matrices of order 2 and 3 stay out: at 1-norms of 4 to 100
# scipy misses the exponential by up to 7e-12 there, and this expm by 4e-14
# (both against mpmath at 40 digits).
@pytest.mark.parametrize(
    "kind, n",
    [(kind, n) for kind in (_general, _skew_hermitian) for n in (1, 2, 17, 40)]
    + [(_real, n) for n in (1, 17, 40)],
)
def test_expm_matches_scipy_expm(kind, n):
    # each branch is reached: the approximant unscaled and scaled
    assert set(np.searchsorted([propagation._THETA9], _PADE_NORMS).tolist()) == {0, 1}
    rng = np.random.default_rng(n)
    for norm in _PADE_NORMS:
        a = kind(rng, n)
        a = a * (norm / np.max(np.abs(a).sum(axis=0)))
        got = propagation.expm(a[None])
        assert got.shape == (1, n, n) and got.dtype == a.dtype
        want = expm(a)
        assert np.max(np.abs(got[0] - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("norm", [propagation._THETA9, np.nextafter(propagation._THETA9, np.inf)])
@pytest.mark.parametrize("kind, n", [(_general, 2), (_general, 17), (_real, 17), (_real, 40)])
def test_expm_at_the_scaling_threshold_matches_scipy_expm(kind, n, norm):
    # the approximant unscaled at the largest 1-norm it takes, and scaled
    # just above: the first column holds one real entry of modulus norm and
    # every other column sums to about norm / 2, so the 1-norm is norm exactly
    rng = np.random.default_rng(n)
    a = kind(rng, n)
    a *= 0.5 * norm / np.max(np.abs(a).sum(axis=0))
    a[:, 0] = 0.0
    a[-1, 0] = norm
    assert np.max(np.abs(a).sum(axis=0)) == norm
    got = propagation.expm(a[None])
    want = expm(a)
    assert np.max(np.abs(got[0] - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dtype", [float, complex])
def test_expm_non_finite_input_gives_all_nan(bad, dtype):
    a = np.zeros((4, 4), dtype=dtype)
    a[2, 0] = bad
    got = propagation.expm(a[None])
    assert got.shape == (1, 4, 4) and np.all(np.isnan(got))
    assert not np.all(np.isfinite(expm(a)))


@pytest.mark.parametrize(
    "kind, n", [(kind, n) for kind in (_general, _skew_hermitian) for n in (1, 2, 17)] + [(_real, 17)]
)
def test_stacked_expm_matches_scipy_expm_per_matrix(kind, n):
    # one scaling serves the stack, taken from its largest 1-norm: the small
    # matrices are scaled and squared with the largest one, and must stay
    # as accurate
    rng = np.random.default_rng(100 + n)
    stack = []
    for norm in rng.permutation(_PADE_NORMS):
        a = kind(rng, n)
        stack.append(a * (norm / np.max(np.abs(a).sum(axis=0))))
    stack = np.array(stack)
    got = propagation.expm(stack)
    assert got.shape == stack.shape and got.dtype == stack.dtype
    for a, each in zip(stack, got):
        want = expm(a)
        assert np.max(np.abs(each - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("shape", [(4, 4), (2, 3, 3, 3), (2, 3, 4)])
def test_expm_refuses_anything_but_a_stack_of_square_matrices(shape):
    with pytest.raises(DimensionMismatchError, match="expected an \\(S, n, n\\) stack"):
        propagation.expm(np.zeros(shape))


@pytest.mark.parametrize("norm", _PADE_NORMS)
def test_expm_of_a_one_matrix_stack_is_the_matrix_call(norm):
    # the stack's largest matrix sets its scaling, so that matrix
    # comes out of a stack bit for bit as out of its own one-matrix stack
    rng = np.random.default_rng(7)
    a = _skew_hermitian(rng, 17)
    a *= norm / np.max(np.abs(a).sum(axis=0))
    b = _skew_hermitian(rng, 17)
    b *= 0.5 * norm / np.max(np.abs(b).sum(axis=0))
    stack = np.stack([b, a, 0.25 * a])
    assert np.array_equal(propagation.expm(stack)[1], propagation.expm(a[None])[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_expm_of_a_stack_with_one_non_finite_matrix_is_all_nan(bad):
    stack = np.stack([0.1 * np.eye(3, dtype=complex)] * 4)
    stack[2, 1, 0] = bad
    got = propagation.expm(stack)
    assert got.shape == stack.shape and np.all(np.isnan(got))


@st.composite
def _linear_reference_cases(draw):
    """Split model (m <= 3, l in {1, 2}), connection (degree <= 2 or empty), curve, steps."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 3))
    l = draw(st.integers(1, min(m, 2)))
    controlled = tuple(sorted(int(a) for a in rng.choice(m, size=l, replace=False)))
    truncation = draw(st.integers(1, 3 if l == 1 else 2))
    model = TorusModel(m, controlled, tuple(rng.uniform(-1.0, 1.0, m)), truncation)
    d = draw(st.integers(1, 3))
    if draw(st.integers(0, 3)) == 3:
        conn = ControlConnection.empty(m, d)
    else:
        conn = _random_split_connection(rng, model, d, min(truncation, 2))
    circle = CirclePath(*rng.uniform(-1.0, 1.0, (3, d)), float(rng.uniform(0.3, 1.5)),
                        phase=float(rng.uniform(0.0, 6.0)))
    # a waypoint path from the circle's end: joints with zero velocity, and a
    # velocity jump where it is chained to the circle
    legs = rng.uniform(-1.0, 1.0, (draw(st.integers(1, 3)), d))
    path = WaypointPath([circle.point(circle.duration), *legs], float(rng.uniform(0.3, 1.5)))
    kind = draw(st.sampled_from(["circle", "waypoints", "chain", "reversed chain"]))
    curve = {"circle": circle, "waypoints": path}.get(kind) or concatenate(circle, path)
    if kind == "reversed chain":
        curve = curve.reverse()
    return model, conn, curve, draw(st.integers(len(curve.breakpoints) + 1, 12))


def _per_step_assembly_product(model, conn, curve, steps):
    """Endpoint-average product on the controlled box, each end assembled by as_observable.

    Both ends of a step are read on its midpoint's segment.
    """
    sub_model = propagation.controlled_submodel(model)
    sub_conn = conn.restricted(model.controlled)
    times = step_intervals(curve, steps)
    segments, _ = curve.step_segments(times)
    V = np.eye(sub_model.size, dtype=complex)
    for i, segment in enumerate(segments):
        points, velocities = curve.sample(times[i : i + 2], [segment, segment])
        start, end = (
            quantize_affine(sub_model, sub_conn.as_observable(p, v)).matrix
            for p, v in zip(points, velocities)
        )
        V = expm(-1j * float(times[i + 1] - times[i]) * (0.5 * (start + end))) @ V
    return V


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_linear_reference_cases())
def test_linear_reference_matches_per_step_assembly(case):
    model, conn, curve, steps = case
    report = evolve_full(model, ActionPolynomial.zero(model.m), conn, curve, steps)
    # a zero Hamiltonian leaves every label's reference block equal to V
    V = _per_step_assembly_product(model, conn, curve, steps)
    assert np.max(np.abs(report.reference - V)) <= 1e-13


def test_linear_reference_accepts_mirrors_equal_to_the_connection_tolerance():
    # the connection checks reality relative to a whole polynomial (scale 10
    # here), so a small monomial's mirrors may differ by more than a field of
    # that monomial alone would allow; the connection stores the pair's real
    # part, so the reference quantizes the monomial as it is stored
    c = 1e-3 + 2e-3j
    conn = ControlConnection(2, 2, {(0, 0): {
        (1, 0): ParameterPolynomial(2, {(0, 0): 10.0, (1, 0): c}),
        (-1, 0): ParameterPolynomial(2, {(0, 0): 10.0, (1, 0): np.conj(c) + 5e-12}),
    }})
    model = TorusModel(2, (0,), (0.25, 0.5), 3)
    report = evolve_full(model, ActionPolynomial.zero(2), conn, _unit_circle(), 20)
    V = _per_step_assembly_product(model, conn, _unit_circle(), 20)
    assert np.max(np.abs(report.reference - V)) <= 1e-12


# --- reality where a connection's data enter --------------------------------------


def test_connection_inside_its_tolerance_freezes_real_fields_at_every_sigma():
    # a sigma_1-monomial 10 and a sigma_2-monomial c whose mirror is off by
    # 5e-12: inside the connection's tolerance (1e-12 times the scale 10),
    # but not inside a frozen field's where the sigma_1 term is small, as at
    # (0, 1); the stored pair is an exact mirror, so every field is real
    c = 1e-3 + 2e-3j
    conn = ControlConnection(2, 2, {(0, 0): {
        (1, 0): ParameterPolynomial(2, {(1, 0): 10.0, (0, 1): c}),
        (-1, 0): ParameterPolynomial(2, {(1, 0): 10.0, (0, 1): np.conj(c) + 5e-12}),
    }})
    rng = np.random.default_rng(59)
    for sigma in [(0.0, 1.0), *rng.normal(scale=3.0, size=(200, 2))]:
        fld = conn.field(0, 0, sigma)
        assert np.array_equal(np.conj(fld.array), np.flip(fld.array))
        observable = conn.as_observable(sigma, rng.normal(size=2))
        assert observable.action_coeffs[0].bandwidth == 1
    model = TorusModel(2, (0,), (0.25, 0.5), 3)
    assert holonomy(model, conn, _unit_circle(), 50).unitarity_defect <= 1e-13


@st.composite
def _perturbed_mirror_cases(draw):
    """Split model, connection (d <= 3, sigma-degree <= 2), loop, steps and parameter points.

    Each pair's first monomial is scaled by 1 or 10, and its mirror is
    then moved off the exact conjugate by up to 0.4 times the connection's
    tolerance (1e-12 times the pair's largest coefficient, at least 1e-12);
    a zero shift gets an imaginary part of up to 0.2 times it.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = _random_split_model(rng)
    d = draw(st.integers(1, 3))
    exact = _random_split_connection(rng, model, d, min(model.truncation, 2))
    comps = {}
    for key, fourier in exact.components.items():
        entry = {}
        for shift, poly in fourier.items():
            mirror = tuple(-x for x in shift)
            if shift < mirror:
                continue
            coeffs = dict(poly.coefficients)
            first = next(iter(coeffs))
            coeffs[first] *= float(rng.choice([1.0, 10.0]))
            tol = 1e-12 * max(1.0, max(abs(v) for v in coeffs.values()))
            if shift == mirror:
                entry[shift] = {e: v + 0.2j * tol * rng.uniform(-1, 1) for e, v in coeffs.items()}
            else:
                entry[shift] = coeffs
                entry[mirror] = {
                    e: v.conjugate() + 0.4 * tol * complex(*rng.uniform(-1, 1, 2)) / np.sqrt(2)
                    for e, v in coeffs.items()
                }
        comps[key] = {c: ParameterPolynomial(d, v) for c, v in entry.items()}
    conn = ControlConnection(model.m, d, comps)
    loop = CirclePath(*rng.uniform(-1.0, 1.0, (3, d)), float(rng.uniform(0.3, 1.5)))
    sigmas = rng.normal(scale=2.0, size=(5, d))
    return model, conn, loop, draw(st.integers(4, 12)), sigmas


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_perturbed_mirror_cases())
def test_connections_inside_the_reality_tolerance_run_everywhere(case):
    model, conn, loop, steps, sigmas = case
    points = [loop.point(t) for t in np.linspace(0.0, loop.duration, 5)]
    for sigma in [*points, *sigmas]:
        for axis, beta in conn.components:
            conn.field(axis, beta, sigma)
        conn.as_observable(sigma, loop.velocity(0.3 * loop.duration))
    assert holonomy(model, conn, loop, steps).unitarity_defect <= 1e-13
    report = evolve_full(model, ActionPolynomial.zero(model.m), conn, loop, steps)
    assert report.reference_unitarity_defect <= 1e-13


def test_evolve_full_exponentiates_only_controlled_blocks(monkeypatch):
    shapes = []
    real_expm = propagation.expm

    def recording_expm(a):
        shapes.append(a.shape)
        return real_expm(a)

    monkeypatch.setattr(propagation, "expm", recording_expm)
    stacked = []
    real_exp_stack = propagation.exp_stack

    def recording_exp_stack(a, *args):
        stacked.append(a.shape[-1])
        return real_exp_stack(a, *args)

    monkeypatch.setattr(propagation, "exp_stack", recording_exp_stack)
    # more steps than one chunk holds for each of the three box sizes
    steps = 400
    models = (
        _demo_model(4),
        TorusModel(3, (1,), (0.1, 0.25, -0.6), 2),
        # no dynamic axis: the one label is the whole box
        TorusModel(1, (0,), (0.2,), 3),
    )
    for model in models:
        conn = _random_split_connection(np.random.default_rng(5), model, 2, 2)
        report = evolve_full(model, ActionPolynomial.zero(model.m), conn, _unit_circle(), steps)
        csize = propagation.controlled_submodel(model).size
        # stacks of (csize, csize) steps, at most one chunk each, never a
        # full-lattice matrix or a stack of dynamic labels
        assert report.steps == steps
        assert all(len(shape) == 3 and shape[1:] == (csize, csize) for shape in shapes)
        counts = [shape[0] for shape in shapes]
        assert sum(counts) == steps
        assert max(counts) <= propagation.step_chunks(steps, csize)[0].stop < steps
        assert (csize < model.size) == bool(model.dynamic)
        shapes.clear()
        assert stacked and max(stacked) <= csize
        stacked.clear()


def test_evolve_full_refuses_a_spectrum_that_varies_within_a_dynamic_label(monkeypatch):
    # the reference factors exp(-i dt E_j) out of each label's block, which
    # holds only if every mode of label j carries the energy E_j
    real_spectrum = propagation.hamiltonian_spectrum

    def one_mode_off(model, hamiltonian):
        energies = real_spectrum(model, hamiltonian).copy()
        energies[7] += 1e-3
        return energies

    monkeypatch.setattr(propagation, "hamiltonian_spectrum", one_mode_off)
    with pytest.raises(SplitViolationError):
        evolve_full(_demo_model(4), _demo_hamiltonian(), _nonabelian_connection(m=2), _unit_circle(), 5)


def _constant_generator_connection() -> ControlConnection:
    # sigma_0 v_1 - sigma_1 v_0 is constant on the unit circle, so every step
    # exponentiates the same non-Abelian generator and the midpoint and
    # endpoint-average routes agree to rounding
    coefficient = 0.3 + 0.2j
    return ControlConnection.from_half_spectrum(2, 2, {
        (0, 1): {(1, 0): ParameterPolynomial(2, {(1, 0): coefficient})},
        (0, 0): {(1, 0): ParameterPolynomial(2, {(0, 1): -coefficient})},
    })


def test_route_deviation_cross_checks_the_stacked_exponentials(monkeypatch):
    # the reference route exponentiates with its Padé expm, not with exp_stack:
    # a perturbed kernel moves the deviation but leaves the reference untouched
    model = _demo_model(4)
    conn = _constant_generator_connection()
    ham = _demo_hamiltonian()
    clean = evolve_full(model, ham, conn, _unit_circle(), 40)
    assert clean.deviation <= 1e-12
    real_exp_stack = propagation.exp_stack
    monkeypatch.setattr(propagation, "exp_stack", lambda *args: real_exp_stack(*args) + 1e-9)
    perturbed = evolve_full(model, ham, conn, _unit_circle(), 40)
    assert perturbed.deviation > 1e-10
    assert np.array_equal(perturbed.reference, clean.reference)


def test_route_deviation_cross_checks_the_reference_exponentials(monkeypatch):
    # the converse: the factorized route never calls expm, so a perturbed
    # reference exponential moves the deviation and leaves the payload untouched
    model = _demo_model(4)
    conn = _constant_generator_connection()
    ham = _demo_hamiltonian()
    clean = evolve_full(model, ham, conn, _unit_circle(), 40)
    assert clean.deviation <= 1e-12
    real_expm = propagation.expm
    monkeypatch.setattr(propagation, "expm", lambda a: real_expm(a) + 1e-9)
    perturbed = evolve_full(model, ham, conn, _unit_circle(), 40)
    assert perturbed.deviation > 1e-10
    assert np.array_equal(perturbed.operator.matrix, clean.operator.matrix)


# --- group laws and path invariance ---------------------------------------------------


def test_control_concatenation_matches_product():
    from torus_holonomy import concatenate

    model = TorusModel(1, (0,), (0.3,), 6)
    conn = _nonabelian_connection(m=1)
    a = CirclePath.circle((0.0, 0.0), 1.0, 1.0, turns=0.5)
    b = CirclePath.circle((0.0, 0.0), 1.0, 1.0, turns=0.5, phase=np.pi)
    whole = evolve_control(model, conn, concatenate(a, b), 400).operator.matrix
    ua = evolve_control(model, conn, a, 200).operator.matrix
    ub = evolve_control(model, conn, b, 200).operator.matrix
    assert np.max(np.abs(whole - ub @ ua)) <= 1e-8


def test_control_reversal_inverts():
    model = TorusModel(1, (0,), (0.3,), 6)
    conn = _nonabelian_connection(m=1)
    curve = CirclePath.circle((0.1, -0.2), 0.7, 1.0, turns=0.5)
    u = evolve_control(model, conn, curve, 300).operator.matrix
    ur = evolve_control(model, conn, curve.reverse(), 300).operator.matrix
    assert np.max(np.abs(ur @ u - np.eye(u.shape[0]))) <= 1e-8


def _clock_deviation(model, conn, curve, clock, steps):
    """Largest deviation between the control blocks of ``curve`` and of its clock map."""
    a = evolve_control(model, conn, curve, steps).operator.matrix
    b = evolve_control(model, conn, reparameterize(curve, *clock), steps).operator.matrix
    return float(np.max(np.abs(a - b)))


def test_path_invariance_identity_tau_zero():
    model = TorusModel(1, (0,), (0.3,), 4)
    conn = _nonabelian_connection(m=1)
    curve = _unit_circle()
    dev = _clock_deviation(model, conn, curve, (lambda t: t, lambda t: 1.0, 1.0), 200)
    assert dev == 0.0


def test_path_invariance_quadratic_tau():
    model = TorusModel(1, (0,), (0.3,), 8)
    conn = _nonabelian_connection(m=1)
    curve = _unit_circle()
    T = curve.duration
    dev = _clock_deviation(
        model, conn, curve, (lambda t: T * (t / T) ** 2, lambda t: 2.0 * t / T, T), 4000
    )
    assert dev <= 1e-6


def test_path_invariance_abelian_all_match_closed_form():
    # clocks below are smooth circle maps (tau(t+T) = tau(t) + T), so the
    # midpoint sums stay spectrally accurate and hit the closed form hard;
    # polynomial clocks trade that for plain second-order accuracy and are
    # exercised in test_path_invariance_quadratic_tau.
    model = _demo_model(6)
    conn = _abelian_connection()
    loop = _unit_circle()
    T = loop.duration
    two_pi = 2 * np.pi
    taus = [
        (
            lambda t: t - 0.15 / two_pi * np.sin(two_pi * t / T) * T,
            lambda t: 1.0 - 0.15 * np.cos(two_pi * t / T),
            T,
        ),
        (
            lambda t: t + 0.05 / two_pi * np.sin(2 * two_pi * t / T) * T,
            lambda t: 1.0 + 0.1 * np.cos(2 * two_pi * t / T),
            T,
        ),
        (
            lambda t: t - np.sin(two_pi * t / T) * T / two_pi,
            lambda t: 1.0 - np.cos(two_pi * t / T),
            T,
        ),
    ]
    expected = np.diag(abelian_control_phases(model, conn, loop))
    worst = 0.0
    for tau, tau_dot, duration in taus:
        curve = reparameterize(loop, tau, tau_dot, duration)
        block = holonomy(model, conn, curve, 1500).operator.matrix
        worst = max(worst, float(np.max(np.abs(block - expected))))
    assert worst <= 1e-8


def test_path_only_double_duration_identical():
    model = _demo_model(4)
    conn = _abelian_connection()
    fast = holonomy(model, conn, _unit_circle(duration=1.0), 500).operator.matrix
    slow = holonomy(model, conn, CirclePath.circle((0.0, 0.0), 1.0, 2.0), 500).operator.matrix
    assert np.max(np.abs(fast - slow)) <= 1e-8


def test_u2_commutes_with_hamiltonian_and_blocks():
    model = _demo_model(4)
    conn = _nonabelian_connection(m=2)
    # the shipped full-lattice operator, exp(-i H T) lifted U2
    u = evolve_full(model, _demo_hamiltonian(), conn, _unit_circle(), 200).operator.matrix
    h_op = hamiltonian_operator(model, _demo_hamiltonian()).matrix
    assert np.max(np.abs(u @ h_op - h_op @ u)) <= 1e-10
    di, _ = sublattice_index(model, model.dynamic)
    off = u[di[:, None] != di[None, :]]
    assert np.max(np.abs(off)) <= 1e-12
