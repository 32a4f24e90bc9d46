import itertools
from unittest import mock

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from torus_holonomy import (
    ActionPolynomial,
    AffineObservable,
    BandwidthError,
    SplitViolationError,
    TorusFourierField,
    TorusModel,
    WaveFunction,
    action_operator,
    dirac_residual,
    halfform_equivalence,
    hamiltonian_operator,
    lambda_shift_equivalence,
    mode_iter,
    poisson_bracket,
    quantize_affine,
)
from torus_holonomy.lattice import interior_mask, mode_array, sublattice_index
from torus_holonomy.operators import (
    _THETA8,
    _THETA16,
    _TAYLOR8,
    ShiftBasis,
    _shift_scatter,
    commutator,
    exp_stack,
    exp_workspace,
    hamiltonian_spectrum,
)
from torus_holonomy.verify import quadrature_matrix_element, random_affine, random_real_field


# --- action operators ----------------------------------------------------------


def test_action_operator_eigenvalue_with_offset():
    model = TorusModel(1, (0,), (0.25,), 3)
    op = action_operator(model, 0)
    idx = mode_iter(model).index((2,))
    assert op.matrix[idx, idx] == 1.75
    assert op.offdiagonal_mass() == 0.0


def test_action_operator_integer_diagonal():
    model = TorusModel(2, (0,), (0.0, 0.0), 2)
    op = action_operator(model, 1)
    diag = np.diag(op.matrix)
    assert np.array_equal(diag.real, [m[1] for m in mode_iter(model)])


def test_action_operators_commute():
    model = TorusModel(2, (0,), (0.1, 0.7), 3)
    a = action_operator(model, 0)
    b = action_operator(model, 1)
    assert np.max(np.abs(commutator(a, b))) == 0.0


def test_action_eigenvector_property_exact():
    model = TorusModel(2, (0,), (0.25, 0.5), 2)
    for axis in range(2):
        op = action_operator(model, axis)
        for mode in mode_iter(model):
            psi = WaveFunction.basis(model, mode)
            out = op.matrix @ psi.values
            assert np.array_equal(out, (mode[axis] - model.offsets[axis]) * psi.values)


# --- Hamiltonian operators -------------------------------------------------------


def test_hamiltonian_diagonal_values():
    # H = I_2^2 / 2 with zero offset: eigenvalue 4.5 at n_2 = 3 for every n_1
    model = TorusModel(2, (0,), (0.0, 0.0), 3)
    ham = ActionPolynomial(2, {(0, 2): 0.5})
    op = hamiltonian_operator(model, ham)
    for n1 in (-3, 0, 2):
        idx = mode_iter(model).index((n1, 3))
        assert op.matrix[idx, idx] == 4.5
    assert op.offdiagonal_mass() == 0.0


def test_hamiltonian_zero():
    model = TorusModel(2, (0,), (0.3, 0.8), 2)
    op = hamiltonian_operator(model, ActionPolynomial.zero(2))
    assert np.max(np.abs(op.matrix)) == 0.0


def test_hamiltonian_label_degeneracy():
    # for a generic H every dynamic label carries (2N+1)^l equal eigenvalues
    model = TorusModel(2, (0,), (0.25, 0.37), 4)
    ham = ActionPolynomial(2, {(0, 1): 1.0})
    values = hamiltonian_spectrum(model, ham)
    unique, counts = np.unique(values, return_counts=True)
    assert len(unique) == model.axis_size
    assert np.all(counts == model.axis_size)


def test_hamiltonian_split_violation():
    model = TorusModel(2, (0,), (0.0, 0.0), 2)
    with pytest.raises(SplitViolationError):
        hamiltonian_operator(model, ActionPolynomial(2, {(1, 0): 1.0}))


def test_hamiltonian_analytic_hook():
    # callable receives the dynamic components of n - offsets only
    model = TorusModel(2, (0,), (0.0, 0.25), 2)
    ham = ActionPolynomial(2, {(0, 2): 0.5})
    poly_op = hamiltonian_operator(model, ham)
    hook_op = hamiltonian_operator(model, lambda dyn: 0.5 * float(dyn[0]) ** 2)
    assert np.array_equal(poly_op.matrix, hook_op.matrix)


# --- quantize_affine --------------------------------------------------------------


def test_quantize_action_matches_action_operator():
    model = TorusModel(2, (0,), (0.25, 0.5), 3)
    obs = AffineObservable.action(2, 0)
    assert np.array_equal(quantize_affine(model, obs).matrix, action_operator(model, 0).matrix)


def test_quantize_constant_is_scalar_identity():
    model = TorusModel(1, (0,), (0.4,), 2)
    obs = AffineObservable.constant(1, 2.5)
    assert np.array_equal(quantize_affine(model, obs).matrix, 2.5 * np.eye(model.size))


def test_quantize_cosine_action_frozen_elements():
    # f = cos(phi) I at zero offset: <n+-1|f|n> = (n +- 1/2)/2, zero elsewhere
    model = TorusModel(1, (0,), (0.0,), 3)
    obs = AffineObservable.from_parts(1, {0: TorusFourierField.cosine(1, 0)})
    op = quantize_affine(model, obs).matrix
    modes = mode_iter(model)
    for i, p in enumerate(modes):
        for j, q in enumerate(modes):
            n = q[0]
            if p[0] == n + 1:
                assert op[i, j] == pytest.approx(0.5 * (n + 0.5))
            elif p[0] == n - 1:
                assert op[i, j] == pytest.approx(0.5 * (n - 0.5))
            else:
                assert op[i, j] == 0.0


@pytest.mark.parametrize("m,n_max,bandwidth", [(1, 3, 2), (2, 2, 1)])
def test_quantize_locked_by_quadrature_oracle(m, n_max, bandwidth):
    # the anti-hallucination gate: every matrix element of the closed-form
    # build must match the independent torus-quadrature of the first-order
    # operator applied to basis modes.
    rng = np.random.default_rng(41 + m)
    offsets = tuple(rng.uniform(0, 1, size=m))
    model = TorusModel(m, (0,), offsets, n_max)
    obs = random_affine(rng, m, bandwidth, scale=0.6)
    op = quantize_affine(model, obs).matrix
    modes = mode_iter(model)
    worst = 0.0
    for i, p in enumerate(modes):
        for j, q in enumerate(modes):
            worst = max(worst, abs(op[i, j] - quadrature_matrix_element(model, obs, p, q)))
    assert worst < 1e-12


def test_quantize_hermitian_exactly():
    rng = np.random.default_rng(43)
    model = TorusModel(2, (0,), (0.25, 0.5), 4)
    for _ in range(5):
        op = quantize_affine(model, random_affine(rng, 2, 2))
        assert op.hermiticity_defect() == 0.0


def test_quantize_bandwidth_rejected():
    model = TorusModel(1, (0,), (0.0,), 2)
    wide = TorusFourierField.from_half_spectrum(1, {(3,): 1.0})
    with pytest.raises(BandwidthError):
        quantize_affine(model, AffineObservable.from_parts(1, scalar=wide))


def _single_shift_scatter(model, c):
    """(rows, cols, ok) of one shift: ``ok`` masks the modes n with n + c in the box."""
    N = model.truncation
    target = mode_array(model) + np.asarray(c, dtype=np.int64)
    ok = np.all(np.abs(target) <= N, axis=1)
    rows = np.ravel_multi_index((target[ok] + N).T, (model.axis_size,) * model.m)
    return rows, np.flatnonzero(ok), ok


def _quantize_per_shift(model, observable):
    """quantize_affine with one scatter per shift, skipping zero coefficients."""
    C = observable.bandwidth
    modes = mode_array(model)
    offsets = np.asarray(model.offsets)
    matrix = np.zeros((model.size, model.size), dtype=complex)
    parts = np.zeros((model.m + 1,) + (2 * C + 1,) * model.m, dtype=complex)
    for part, fld in zip(parts, (*observable.action_coeffs, observable.scalar)):
        part[(slice(C - fld.bandwidth, C + fld.bandwidth + 1),) * model.m] = fld.array
    for idx in np.argwhere(parts.any(axis=0)):
        c = idx - C
        rows, cols, ok = _single_shift_scatter(model, c)
        *actions, B = parts[(slice(None), *idx)]
        values = np.zeros(model.size, dtype=complex)
        for k, A in enumerate(actions):
            if A:
                values += A * (modes[:, k] + 0.5 * c[k] - offsets[k])
        if B:
            values += B
        matrix[rows, cols] += values[ok]
    return matrix


@st.composite
def _scatter_case(draw):
    m = draw(st.integers(1, 3))
    N = draw(st.sampled_from([1, 2, 3]))
    offsets = tuple(draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m)))
    # -1 leaves a component out; a bandwidth of N puts shifts on the box edge
    widths = draw(st.lists(st.integers(-1, N), min_size=m + 1, max_size=m + 1))
    shift = tuple(draw(st.lists(st.integers(-2 * N - 1, 2 * N + 1), min_size=m, max_size=m)))
    return TorusModel(m, (0,), offsets, N), widths, shift, draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_scatter_case())
def test_stacked_scatter_matches_per_shift_scatter(case):
    model, widths, shift, seed = case
    rng = np.random.default_rng(seed)
    fields = [None if w < 0 else random_real_field(rng, model.m, w) for w in widths]
    obs = AffineObservable.from_parts(
        model.m, {k: f for k, f in enumerate(fields[:-1]) if f is not None}, fields[-1]
    )
    assert np.array_equal(quantize_affine(model, obs).matrix, _quantize_per_shift(model, obs))

    which, rows, cols = _shift_scatter(model, [shift])
    want_rows, want_cols, ok = _single_shift_scatter(model, shift)
    assert not which.any()
    assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)

    def ham(dynamic):
        return float(np.sum(np.cos(dynamic) + 0.5 * dynamic**2))

    if not ok.any():
        with pytest.raises(ValueError, match=rf"exceeds 2N={2 * model.truncation}"):
            lambda_shift_equivalence(model, ham, shift)
        return
    moved_model = TorusModel(
        model.m, model.controlled, tuple(np.asarray(model.offsets) + shift), model.truncation
    )
    base = hamiltonian_spectrum(model, ham)
    moved = hamiltonian_spectrum(moved_model, ham)
    dev = lambda_shift_equivalence(model, ham, shift)
    assert dev == float(np.max(np.abs(base[cols] - moved[rows])))


# --- multiplication operators ------------------------------------------------------


def _scalar_operator(model, field):
    return quantize_affine(model, AffineObservable.from_parts(model.m, scalar=field)).matrix


def _multiplication(model, c):
    """Multiplication by exp(i c.phi), c != 0, as Q(cos c.phi) + i Q(sin c.phi).

    exp(i c.phi) is not a real field, but its real and imaginary parts are,
    and quantization is linear in the scalar part.
    """
    minus = tuple(-x for x in c)
    cos = TorusFourierField(model.m, {tuple(c): 0.5, minus: 0.5})
    sin = TorusFourierField(model.m, {tuple(c): -0.5j, minus: 0.5j})
    return _scalar_operator(model, cos) + 1j * _scalar_operator(model, sin)


def test_multiplication_identity():
    model = TorusModel(2, (0,), (0.0, 0.0), 2)
    one = TorusFourierField(2, {(0, 0): 1.0})
    assert np.array_equal(_scalar_operator(model, one), np.eye(model.size))


def test_multiplication_updown_is_interior_identity():
    model = TorusModel(1, (0,), (0.0,), 3)
    up = _multiplication(model, (1,))
    down = _multiplication(model, (-1,))
    prod = down @ up
    modes = mode_iter(model)
    for i, n in enumerate(modes):
        expected = 0.0 if n[0] == 3 else 1.0  # the top mode is shifted out and lost
        assert prod[i, i] == expected
    assert np.max(np.abs(prod - np.diag(np.diag(prod)))) == 0.0


def test_multiplication_composition_law_on_interior():
    model = TorusModel(2, (0,), (0.0, 0.0), 4)
    c1, c2 = (1, -1), (2, 0)
    lhs = _multiplication(model, c1) @ _multiplication(model, c2)
    rhs = _multiplication(model, (3, -1))
    guard = max(abs(x) for x in c1) + max(abs(x) for x in c2)
    keep = interior_mask(model, guard)
    assert np.array_equal(lhs[np.ix_(keep, keep)], rhs[np.ix_(keep, keep)])


def test_multiplication_shift_cap():
    model = TorusModel(1, (0,), (0.0,), 2)
    with pytest.raises(BandwidthError):
        _multiplication(model, (5,))


# --- Dirac condition ---------------------------------------------------------------


def test_dirac_actions_commute():
    model = TorusModel(2, (0,), (0.25, 0.5), 4)
    assert dirac_residual(model, AffineObservable.action(2, 0), AffineObservable.action(2, 1)) == 0.0


def test_dirac_action_cosine():
    model = TorusModel(1, (0,), (0.3,), 8)
    f = AffineObservable.action(1, 0)
    g = AffineObservable.from_parts(1, scalar=TorusFourierField.cosine(1, 0))
    assert dirac_residual(model, f, g) <= 1e-12


def test_dirac_random_pairs():
    rng = np.random.default_rng(47)
    model = TorusModel(2, (0,), (0.25, 0.5), 8)
    worst = 0.0
    for _ in range(25):
        f = random_affine(rng, 2, int(rng.integers(1, 3)), scale=0.3)
        g = random_affine(rng, 2, int(rng.integers(1, 3)), scale=0.3)
        worst = max(worst, dirac_residual(model, f, g))
    assert worst <= 1e-10


def _dense_dirac_residual(model, f, g) -> float:
    """The interior residual from dense ``quantize_affine`` matrices and dense products."""
    fm = quantize_affine(model, f).matrix
    gm = quantize_affine(model, g).matrix
    bm = quantize_affine(model, poisson_bracket(f, g)).matrix
    keep = interior_mask(model, min(f.bandwidth + g.bandwidth, model.truncation))
    residual = fm[keep] @ gm[:, keep] - gm[keep] @ fm[:, keep] + 1j * bm[np.ix_(keep, keep)]
    return float(np.max(np.abs(residual)))


@pytest.mark.parametrize(
    "m, truncation, bandwidths",
    [
        (1, 6, (1, 2)),
        (2, 5, (2, 1)),
        (2, 4, (1, 1)),
        (3, 3, (1, 2)),
        # the guard C_f + C_g equals the truncation: one interior mode per axis
        (2, 3, (1, 2)),
        (3, 2, (1, 1)),
    ],
)
def test_dirac_residual_matches_dense_route(m, truncation, bandwidths):
    rng = np.random.default_rng(100 * m + truncation)
    offsets = tuple(float(x) for x in rng.uniform(-0.5, 0.5, size=m))
    model = TorusModel(m, (0,), offsets, truncation)
    for _ in range(3):
        f = random_affine(rng, m, bandwidths[0], scale=0.5)
        g = random_affine(rng, m, bandwidths[1], scale=0.5)
        sparse = dirac_residual(model, f, g)
        assert sparse <= 1e-10
        assert abs(sparse - _dense_dirac_residual(model, f, g)) <= 1e-12


def _box_affine(rng, m: int, widths, scale: float) -> AffineObservable:
    """Seeded real affine observable with |c_k| <= widths[k] in every part."""
    zero = (0,) * m

    def field():
        half = {}
        for c in itertools.product(*(range(-w, w + 1) for w in widths)):
            if c >= zero:
                half[c] = scale * complex(rng.normal(), rng.normal() if c > zero else 0.0)
        return TorusFourierField.from_half_spectrum(m, half)

    return AffineObservable(tuple(field() for _ in range(m)), field())


@st.composite
def _dirac_case(draw):
    # the shapes come from a seeded generator: hypothesis would shrink them
    # towards m = 1, N = 1 and zero bandwidths
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = int(rng.integers(1, 4))
    N = int(rng.integers(1, 4 if m == 3 else 6))
    offsets = tuple(draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m)))

    def observable():
        # zero one time in eight; else bandwidths up to N on a random set of
        # axes, so C_f + C_g may pass N with a bracket that still fits the box
        if rng.random() < 0.125:
            return AffineObservable.zero(m)
        widths = [int(rng.integers(0, N + 1)) if rng.random() < 0.6 else 0 for _ in range(m)]
        return _box_affine(rng, m, widths, 0.3)

    return TorusModel(m, (0,), offsets, N), observable(), observable()


# 200 examples, all compared: 83 with C_f + C_g > N, 47 of them with a
# bracket wider than the box, and 51 with a zero observable, in about 2.5 s
@settings(derandomize=True, max_examples=200, deadline=None)
@given(_dirac_case())
def test_dirac_residual_matches_dense_products(case):
    # the oracle: full quantize_affine products, sliced to the interior
    from torus_holonomy import operators

    model, f, g = case
    bracket = poisson_bracket(f, g)
    inner = interior_mask(model, min(f.bandwidth + g.bandwidth, model.truncation))
    keep = np.ix_(inner, inner)
    if bracket.bandwidth <= model.truncation:
        bm = quantize_affine(model, bracket).matrix[keep]
    else:
        # quantize_affine refuses a bracket wider than the box: its interior
        # entries come from the torus quadrature, which shares no code with
        # the element formula
        modes = mode_array(model)[inner]
        bm = np.array([[quadrature_matrix_element(model, bracket, r, c) for c in modes] for r in modes])
    fm, gm = quantize_affine(model, f).matrix, quantize_affine(model, g).matrix
    fg_minus_gf = (fm @ gm - gm @ fm)[keep]
    assert abs(dirac_residual(model, f, g) - np.max(np.abs(fg_minus_gf + 1j * bm))) <= 1e-12
    # with the bracket taken out the residual is the commutator itself, which
    # is not small: this compares the products, not two roundings of zero
    with mock.patch.object(operators, "poisson_bracket", lambda f, g: AffineObservable.zero(f.m)):
        alone = dirac_residual(model, f, g)
    assert abs(alone - np.max(np.abs(fg_minus_gf))) <= 1e-12 * max(1.0, alone)


def test_dirac_residual_refuses_factors_wider_than_the_box():
    # only the bracket may pass the box; f and g are quantized on it
    rng = np.random.default_rng(6)
    model = TorusModel(2, (0,), (0.25, 0.5), 2)
    narrow, wide = random_affine(rng, 2, 1), random_affine(rng, 2, 3)
    for f, g in ((wide, narrow), (narrow, wide)):
        with pytest.raises(BandwidthError, match="bandwidth 3 exceeds truncation 2"):
            dirac_residual(model, f, g)


def test_dirac_residual_builds_no_dense_operator(monkeypatch):
    from torus_holonomy import operators

    def refuse(*args, **kwargs):
        raise AssertionError("dirac_residual built a dense operator")

    monkeypatch.setattr(operators, "quantize_affine", refuse)
    monkeypatch.setattr(operators.OperatorMatrix, "__post_init__", refuse)
    rng = np.random.default_rng(5)
    model = TorusModel(2, (0,), (0.25, 0.5), 6)
    assert dirac_residual(model, random_affine(rng, 2, 2), random_affine(rng, 2, 1)) <= 1e-10


# --- gauge equivalences ---------------------------------------------------------------


def test_lambda_shift_zero():
    model = TorusModel(2, (0,), (0.25, 0.5), 4)
    assert lambda_shift_equivalence(model, ActionPolynomial(2, {(0, 2): 0.5}), (0.0, 0.0)) == 0.0


def test_lambda_shift_integer():
    model = TorusModel(2, (0,), (0.25, 0.5), 8)
    ham = ActionPolynomial(2, {(0, 2): 0.5})
    assert lambda_shift_equivalence(model, ham, (0.0, 1.0)) <= 1e-12


def test_lambda_shift_refuses_a_shift_without_overlap():
    # at 2N + 1 the shifted box misses the box: nothing would be compared
    model = TorusModel(2, (0,), (0.25, 0.5), 8)
    ham = ActionPolynomial(2, {(0, 2): 0.5})
    assert lambda_shift_equivalence(model, ham, (0.0, 16.0)) <= 1e-12
    with pytest.raises(ValueError, match=r"integer shift \(0\.0, 17\.0\) exceeds 2N=16"):
        lambda_shift_equivalence(model, ham, (0.0, 17.0))


def test_lambda_shift_non_integer_detected():
    model = TorusModel(2, (0,), (0.0, 0.0), 4)
    ham = ActionPolynomial(2, {(0, 1): 1.0})
    assert lambda_shift_equivalence(model, ham, (0.0, 0.3)) > 0.01


def test_halfform_empty_is_identity():
    model = TorusModel(2, (0,), (0.25, 0.5), 3)
    assert halfform_equivalence(model, ()) == 0.0


def test_halfform_half_integer_spectrum():
    # antiperiodic axis at zero offset: spectrum {n + 1/2} equals the
    # periodic representation at offset -1/2
    model = TorusModel(1, (0,), (0.0,), 8)
    assert halfform_equivalence(model, (0,)) <= 1e-12


def test_halfform_with_hamiltonian():
    model = TorusModel(2, (0,), (0.25, 0.3), 6)
    ham = ActionPolynomial(2, {(0, 2): 0.5})
    assert halfform_equivalence(model, (1,), ham) <= 1e-12


def test_halfform_twice_is_integer_shift():
    # two half twists on one axis shift the offset by 1: gauge-equivalent
    model = TorusModel(1, (), (0.2,), 6)
    ham = ActionPolynomial(1, {(1,): 1.0})
    once = TorusModel(1, (), (model.offsets[0] - 0.5,), 6)
    twice = TorusModel(1, (), (model.offsets[0] - 1.0,), 6)
    anti_twice = hamiltonian_spectrum(once, ham) + 0.5
    periodic = hamiltonian_spectrum(twice, ham)
    assert np.max(np.abs(anti_twice - periodic)) <= 1e-12
    assert lambda_shift_equivalence(model, ham, (-1.0,)) <= 1e-12


# --- block structure --------------------------------------------------------------


def test_controlled_field_operator_factorizes():
    model = TorusModel(2, (0,), (0.25, 0.5), 3)
    obs = AffineObservable.from_parts(
        2, {0: TorusFourierField.cosine(2, 0, 0.7)}, TorusFourierField.constant(2, 0.2)
    )
    full = quantize_affine(model, obs).matrix
    ci, csize = sublattice_index(model, model.controlled)
    di, _ = sublattice_index(model, model.dynamic)
    # off-block entries vanish identically
    off = full[di[:, None] != di[None, :]]
    assert np.max(np.abs(off)) == 0.0
    # all dynamic blocks equal the controlled-sublattice matrix
    sub_model = TorusModel(1, (0,), (0.25,), 3)
    sub_obs = AffineObservable.from_parts(
        1, {0: TorusFourierField.cosine(1, 0, 0.7)}, TorusFourierField.constant(1, 0.2)
    )
    block = quantize_affine(sub_model, sub_obs).matrix
    for label in range(model.axis_size):
        keep = np.flatnonzero(di == label)
        assert np.array_equal(full[np.ix_(keep, keep)], block)


# --- stacked exponentials --------------------------------------------------------

# theta_m of the degree-m truncated Taylor series, m = 1..18 (Al-Mohy and Higham
# 2011, Table 3.1), as data: one largest 1-norm inside each interval
# (theta_{m-1}, theta_m], then three that need scaling and squaring
_THETA_TABLE = np.array([
    2.29e-16, 2.58e-8, 1.39e-5, 3.40e-4, 2.40e-3, 9.07e-3, 2.38e-2, 5.00e-2, 8.96e-2,
    1.44e-1, 2.14e-1, 3.00e-1, 4.00e-1, 5.14e-1, 6.41e-1, 7.81e-1, 9.31e-1, 1.09,
])
_DEGREE_NORMS = (1e-16, *np.sqrt(_THETA_TABLE[:-1] * _THETA_TABLE[1:]))
_SCALED_NORMS = (3.0, 12.0, 50.0)


def _skew_hermitian(rng, count, n):
    x = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    return x - x.conj().transpose(0, 2, 1)


def _imaginary_diagonal(rng, count, n):
    return np.stack([np.diag(1j * rng.normal(size=n)) for _ in range(count)])


def _real_normal(rng, count, n):
    return rng.normal(size=(count, n, n))


@pytest.mark.parametrize(
    "kind, n, norms",
    [
        (_skew_hermitian, 17, _DEGREE_NORMS + _SCALED_NORMS),
        (_skew_hermitian, 29, _DEGREE_NORMS + _SCALED_NORMS),
        # real non-normal, as the action transport's -dt * coupling
        (_real_normal, 2, _DEGREE_NORMS + (3.0,)),
        (_real_normal, 3, _DEGREE_NORMS + (3.0,)),
        # the Abelian loop's generators are diagonal
        (_imaginary_diagonal, 17, _DEGREE_NORMS + _SCALED_NORMS),
        (_skew_hermitian, 1, _DEGREE_NORMS + _SCALED_NORMS),
        (_real_normal, 1, _DEGREE_NORMS + _SCALED_NORMS),
    ],
)
def test_exp_stack_matches_scipy_expm(kind, n, norms):
    # each branch is reached: the three-product T8 (up to theta_8), and
    # Paterson-Stockmeyer at degree 16 unscaled (up to theta_16) and scaled
    assert set(np.searchsorted([_THETA8, _THETA16], norms).tolist()) == {0, 1, 2}
    rng = np.random.default_rng(n)
    # one workspace for every norm, longer than the stacks as a chunk workspace can be:
    # reusing it changes no bit of the result
    work = exp_workspace(5, n, np.result_type(kind(np.random.default_rng(0), 1, n), float))
    for norm in norms:
        stack = kind(rng, 4, n)
        stack = stack * (norm / np.max(np.abs(stack).sum(axis=1)))
        got = exp_stack(stack, np.max(np.abs(stack).sum(axis=1)))
        assert got.shape == stack.shape and got.dtype == np.result_type(stack, float)
        assert np.array_equal(exp_stack(stack, np.max(np.abs(stack).sum(axis=1)), work), got)
        want = np.stack([expm(a) for a in stack])
        # measured worst cases: 1.7e-14 (real 2x2 at norm 3), 7.7e-15 for the rest
        assert np.max(np.abs(got - want)) <= 5e-14 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "bound", [_THETA8, np.nextafter(_THETA8, np.inf), _THETA16, np.nextafter(_THETA16, np.inf)]
)
@pytest.mark.parametrize(
    "kind, n",
    [(_skew_hermitian, 17), (_skew_hermitian, 1), (_real_normal, 2), (_real_normal, 3),
     (_imaginary_diagonal, 17)],
)
def test_exp_stack_at_the_thresholds_matches_scipy_expm(kind, n, bound):
    # T8 and unscaled Paterson-Stockmeyer at the largest bound each takes,
    # and the branch just above: the stack's largest 1-norm is the bound to
    # rounding, and the bound alone picks the method
    rng = np.random.default_rng(n)
    stack = kind(rng, 4, n)
    stack = stack * (bound / np.max(np.abs(stack).sum(axis=1)))
    got = exp_stack(stack, bound)
    want = np.stack([expm(a) for a in stack])
    assert np.max(np.abs(got - want)) <= 5e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dtype", [float, complex])
def test_exp_stack_non_finite_input_gives_non_finite_result(bad, dtype):
    stack = np.zeros((3, 4, 4), dtype=dtype)
    stack[1, 2, 0] = bad
    # the dense norm is non-finite; a finite bound reaches each branch with the bad entry
    for bound in (np.max(np.abs(stack).sum(axis=1)), 0.01, 1.0, 50.0):
        with np.errstate(invalid="ignore", over="ignore"):
            got = exp_stack(stack, bound)
        assert got.shape == stack.shape and not np.all(np.isfinite(got))


def test_taylor8_constants_expand_to_the_degree_8_taylor_polynomial():
    # Bader, Blanes and Casas (2019), with sqrt(177) kept symbolic: the three
    # products expand to sum_{k <= 8} x^k / k! exactly, and each float of
    # _TAYLOR8 is within one ulp of its exact value
    r, x3 = sp.sqrt(177), sp.Rational(2, 3)
    exact = (
        x3 * (1 + r) / 88, x3 * (1 + r) / 352, x3, (29 * r - 271) / (315 * x3),
        11 * (r - 1) / (1260 * x3), 11 * (r - 9) / (5040 * x3), (89 - r) / (5040 * x3**2),
        (857 - 58 * r) / 630,
    )
    x1, x2, x3, x4, x5, x6, x7, y2 = exact
    x = sp.Symbol("x")
    p2 = x**2
    p4 = p2 * (x1 * x + x2 * p2)
    p8 = (x3 * p2 + p4) * (x4 + x5 * x + x6 * p2 + x7 * p4)
    taylor = sum(x**k / sp.factorial(k) for k in range(9))
    assert sp.expand(1 + x + y2 * p2 + p8 - taylor) == 0
    assert len(_TAYLOR8) == len(exact)
    for value, want in zip(_TAYLOR8, exact):
        assert abs(sp.Float(value, 50) - sp.N(want, 50)) <= np.spacing(value)


@pytest.mark.parametrize("n", [0, 1, 17])
def test_exp_stack_empty_stack(n):
    for dtype in (float, complex):
        got = exp_stack(np.zeros((0, n, n), dtype=dtype), 0.0)
        assert got.shape == (0, n, n) and got.dtype == dtype


def test_shift_basis_generators_stack_rows_equal_generator():
    rng = np.random.default_rng(4)
    support = np.sort(rng.choice(17 * 17, size=120, replace=False))
    basis = ShiftBasis(17, support, rng.normal(size=(5, 120)))
    for count in (1, 2, 7, 28):
        weights = rng.normal(size=(count, 5)) + 1j * rng.normal(size=(count, 5))
        stack = basis.generators(weights)
        assert stack.shape == (count, 17, 17)
        for k in range(count):
            assert np.array_equal(stack[k], basis.generators(weights[k][None])[0])
