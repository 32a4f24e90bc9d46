from itertools import product

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_holonomy import (
    ActionPolynomial,
    AffineObservable,
    ControlConnection,
    DimensionMismatchError,
    ParameterPolynomial,
    TorusFourierField,
    poisson_bracket,
)
from torus_holonomy.verify import random_affine, random_real_field


def test_eval_constant():
    f = TorusFourierField.constant(2, 1.0)
    assert f.evaluate([0.7, -1.3]) == 1.0


def test_eval_cosine():
    f = TorusFourierField.cosine(1, 0)
    assert f.evaluate([0.0]) == pytest.approx(1.0)
    # frozen oracle value: direct evaluation of the two-term series at pi/3
    assert f.evaluate([np.pi / 3]) == pytest.approx(0.5)


def test_eval_matches_pointwise_sum():
    rng = np.random.default_rng(11)
    f = random_real_field(rng, 2, 2)
    phi = np.array([0.31, -2.2])
    manual = sum(v * np.exp(1j * np.dot(c, phi)) for c, v in f.coefficients.items())
    assert isinstance(f.evaluate(phi), float)
    assert f.evaluate(phi) == pytest.approx(manual.real)
    assert abs(manual.imag) < 1e-12


def test_reality_validation():
    # every field is real: a coefficient dict that is not its own mirror is refused
    with pytest.raises(ValueError, match="not real"):
        TorusFourierField(1, {(1,): 1.0})
    with pytest.raises(ValueError, match="not real"):
        TorusFourierField(1, {(1,): 1.0, (-1,): 1.0 + 1e-9j})
    with pytest.raises(ValueError, match="not real"):
        TorusFourierField.from_half_spectrum(1, {(0,): 1.0 + 0.5j})
    TorusFourierField(1, {(1,): 1.0 + 2.0j, (-1,): 1.0 - 2.0j})


def test_derivative_of_cosine_is_minus_sine():
    cos = TorusFourierField.cosine(1, 0)
    sin = TorusFourierField.sine(1, 0)
    diff = cos.derivative(0) + sin
    assert diff.is_zero


def test_product_is_convolution():
    rng = np.random.default_rng(5)
    f = random_real_field(rng, 1, 2)
    g = random_real_field(rng, 1, 1)
    prod = f * g
    assert prod.bandwidth <= f.bandwidth + g.bandwidth
    for phi in ([0.2], [1.9], [-0.7]):
        assert prod.evaluate(phi) == pytest.approx(f.evaluate(phi) * g.evaluate(phi))


def test_bandwidth():
    f = TorusFourierField(2, {(2, -1): 1.0, (-2, 1): 1.0})
    assert f.bandwidth == 2
    assert TorusFourierField.zero(3).bandwidth == 0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "build",
    [
        lambda x: TorusFourierField(1, {(1,): x, (-1,): x}),
        lambda x: ParameterPolynomial(1, {(0,): x}),
        lambda x: ActionPolynomial(1, {(1,): x}),
    ],
    ids=["field", "parameter_polynomial", "action_polynomial"],
)
def test_non_finite_coefficients_rejected(build, bad):
    with pytest.raises(ValueError, match="finite"):
        build(bad)


@pytest.mark.parametrize(
    "build", [ParameterPolynomial, ActionPolynomial], ids=["parameter_polynomial", "action_polynomial"]
)
def test_exponent_length_message_states_found_and_expected(build):
    with pytest.raises(DimensionMismatchError) as info:
        build(2, {(1,): 1.0})
    assert str(info.value) == "exponent tuple (1,) has length 1, expected length 2"


# --- array algebra against the dict algebra ------------------------------------
#
# Reference copies of the coefficient-dict arithmetic the array form replaced:
# fields as {shift: value} with exact zeros pruned.


def _pruned(coeffs):
    return {c: v for c, v in coeffs.items() if v != 0}


def _dict_add(a, b):
    out = dict(a)
    for c, v in b.items():
        out[c] = out.get(c, 0.0) + v
    return _pruned(out)


def _dict_scaled(a, s):
    return _pruned({c: s * v for c, v in a.items()})


def _dict_mul(a, b):
    out = {}
    for c1, v1 in a.items():
        for c2, v2 in b.items():
            c = tuple(x + y for x, y in zip(c1, c2))
            out[c] = out.get(c, 0.0) + v1 * v2
    return _pruned(out)


def _dict_derivative(a, axis):
    return _pruned({c: v * 1j * c[axis] for c, v in a.items() if c[axis] != 0})


def _assert_matches(fld, reference, rel=0.0, atol=0.0):
    got = fld.coefficients
    tol = atol + rel * max((abs(v) for v in reference.values()), default=0.0)
    for c in set(got) | set(reference):
        assert abs(got.get(c, 0.0) - reference.get(c, 0.0)) <= tol, c
    assert fld.bandwidth == max((abs(x) for c in reference for x in c), default=0)
    assert fld.is_zero == (not reference)


def _check_against_dicts(m, a, b, s, rel=0.0, product_atol=0.0):
    f = TorusFourierField(m, a)
    g = TorusFourierField(m, b)
    _assert_matches(f, _pruned(a))
    _assert_matches(f + g, _dict_add(a, b), rel)
    _assert_matches(f - g, _dict_add(a, _dict_scaled(b, -1.0)), rel)
    _assert_matches(f * g, _dict_mul(a, b), rel, product_atol)
    _assert_matches(f.scaled(s), _dict_scaled(a, s), rel)
    for k in range(m):
        _assert_matches(f.derivative(k), _dict_derivative(a, k), rel)


def _real_completion(half):
    """Mirror every entry so F(-c) = conj(F(c)); self-mirrored shifts keep their real part."""
    full = {}
    for c, v in half.items():
        mirror = tuple(-x for x in c)
        full[c] = complex(v.real) if c == mirror else v
        full[mirror] = full[c].conjugate()
    return full


# Quarter-integer parts keep every sum and product exact, so the two
# algebras must agree bit for bit, cancellations and trimming included.
_DYADIC = st.integers(-8, 8).map(lambda k: k / 4)


@st.composite
def _dyadic_field(draw, m):
    bandwidth = draw(st.integers(0, 2))
    shift = st.tuples(*[st.integers(-bandwidth, bandwidth)] * m)
    value = st.builds(complex, _DYADIC, _DYADIC)
    return _real_completion(draw(st.dictionaries(shift, value, max_size=6)))


@st.composite
def _dyadic_pair(draw):
    m = draw(st.integers(1, 3))
    return m, draw(_dyadic_field(m)), draw(_dyadic_field(m)), draw(_DYADIC)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_dyadic_pair())
def test_array_algebra_matches_dict_algebra_exactly(case):
    _check_against_dicts(*case)


def test_array_algebra_matches_dict_algebra_on_random_floats():
    rng = np.random.default_rng(41)
    for _ in range(200):
        m = int(rng.integers(1, 4))
        pair = []
        for _ in range(2):
            bandwidth = int(rng.integers(0, 3))
            shifts = [c for c in product(range(-bandwidth, bandwidth + 1), repeat=m) if rng.random() < 0.7]
            pair.append(_real_completion({c: complex(rng.normal(), rng.normal()) for c in shifts}))
        s = float(rng.normal())
        # A product coefficient sums up to len(a) terms in another order than
        # the dict loop did, so its rounding bound grows with that count.
        a, b = pair
        size = _dict_mul({c: abs(v) for c, v in a.items()}, {c: abs(v) for c, v in b.items()})
        atol = 2 * len(a) * np.finfo(float).eps * max(size.values(), default=0.0)
        _check_against_dicts(m, a, b, s, rel=1e-15, product_atol=atol)


def test_cancellation_trims_bandwidth():
    f = random_real_field(np.random.default_rng(43), 2, 2)
    assert (f - f).is_zero
    assert (f - f).array.shape == (1, 1)
    # f * g and f * h share their outer ring, which cancels to -0.75 f.
    f = TorusFourierField.cosine(2, 0) + TorusFourierField.sine(2, 1, 0.5)
    g = TorusFourierField.cosine(2, 0) * TorusFourierField.cosine(2, 1, 2.0)
    h = g + TorusFourierField.constant(2, 0.75)
    assert (f * g).bandwidth == 2
    diff = f * g - f * h
    assert diff.array.shape == (3, 3)
    _assert_matches(diff, _dict_scaled(f.coefficients, -0.75))


# --- Poisson bracket ---------------------------------------------------------


def test_bracket_actions_commute():
    f = AffineObservable.action(2, 0)
    g = AffineObservable.action(2, 1)
    assert poisson_bracket(f, g).is_zero


def test_bracket_action_with_cosine():
    # {I_1, cos phi^1} = -sin phi^1, a pure scalar part
    f = AffineObservable.action(2, 0)
    g = AffineObservable.from_parts(2, scalar=TorusFourierField.cosine(2, 0))
    result = poisson_bracket(f, g)
    assert all(a.is_zero for a in result.action_coeffs)
    expected = TorusFourierField.sine(2, 0).scaled(-1.0)
    assert (result.scalar - expected).is_zero


def test_bracket_golden_value():
    # {cos(phi) I, sin(phi) I} = I (cos^2 + sin^2): frozen from the symbolic
    # derivative d^I f d_phi g - d_phi f d^I g computed by hand.
    f = AffineObservable.from_parts(1, {0: TorusFourierField.cosine(1, 0)})
    g = AffineObservable.from_parts(1, {0: TorusFourierField.sine(1, 0)})
    result = poisson_bracket(f, g)
    assert result.scalar.is_zero
    assert (result.action_coeffs[0] - TorusFourierField.constant(1, 1.0)).is_zero


def _sympy_bracket_value(f: AffineObservable, g: AffineObservable, actions, angles):
    """Independent oracle: symbolic bracket evaluated at a sample point."""
    m = f.m
    I = sp.symbols(f"I0:{m}", real=True)
    phi = sp.symbols(f"p0:{m}", real=True)

    def expr(obs):
        total = sp.sympify(0)
        for c, v in obs.scalar.coefficients.items():
            total += sp.re(v) * sp.cos(sum(ci * phi[i] for i, ci in enumerate(c))) - sp.im(
                v
            ) * sp.sin(sum(ci * phi[i] for i, ci in enumerate(c)))
        for k in range(m):
            for c, v in obs.action_coeffs[k].coefficients.items():
                angle = sum(ci * phi[i] for i, ci in enumerate(c))
                total += I[k] * (sp.re(v) * sp.cos(angle) - sp.im(v) * sp.sin(angle))
        return total

    fe, ge = expr(f), expr(g)
    bracket = sum(
        sp.diff(fe, I[k]) * sp.diff(ge, phi[k]) - sp.diff(fe, phi[k]) * sp.diff(ge, I[k])
        for k in range(m)
    )
    subs = {I[k]: actions[k] for k in range(m)} | {phi[k]: angles[k] for k in range(m)}
    return float(bracket.subs(subs).evalf())


def _field_algebra_bracket(f: AffineObservable, g: AffineObservable) -> AffineObservable:
    """The bracket part by part through the field algebra: ``+``, ``-``, ``*`` and ``derivative``."""
    parts = []
    for fr, gr in zip((*f.action_coeffs, f.scalar), (*g.action_coeffs, g.scalar)):
        total = TorusFourierField.zero(f.m)
        for k in range(f.m):
            total = total + f.action_coeffs[k] * gr.derivative(k)
            total = total - g.action_coeffs[k] * fr.derivative(k)
        parts.append(total)
    return AffineObservable(tuple(parts[:-1]), parts[-1])


def _sparse_affine(rng, m: int, bandwidth: int, terms: int = 3) -> AffineObservable:
    """Affine observable whose parts each hold a few +/-c pairs, one of them at ``bandwidth``.

    Few terms keep the symbolic oracle fast at m = 3.
    """

    def part():
        widest = np.zeros(m, dtype=int)
        widest[rng.integers(m)] = bandwidth
        shifts = [widest] + [rng.integers(-bandwidth, bandwidth + 1, size=m) for _ in range(terms - 1)]
        half = {}
        for c in shifts:
            c = tuple(int(x) for x in c)
            if c not in half and tuple(-x for x in c) not in half:
                half[c] = complex(rng.normal(), rng.normal()) if any(c) else complex(rng.normal())
        return TorusFourierField.from_half_spectrum(m, half)

    return AffineObservable(tuple(part() for _ in range(m)), part())


def test_bracket_against_symbolic_oracle():
    rng = np.random.default_rng(17)
    for _ in range(4):
        f = random_affine(rng, 1, 1, scale=0.8)
        g = random_affine(rng, 1, 1, scale=0.8)
        result = poisson_bracket(f, g)
        actions = rng.normal(size=1)
        angles = rng.uniform(0, 2 * np.pi, size=1)
        expected = _sympy_bracket_value(f, g, actions, angles)
        assert result.evaluate(actions, angles) == pytest.approx(expected, abs=1e-10)


# (m, bandwidth of f, bandwidth of g): unequal bandwidths are padded to a common one
@pytest.mark.parametrize(
    "m, cf, cg, dense",
    [(2, 1, 2, True), (2, 2, 0, True), (3, 2, 1, False), (3, 1, 2, False)],
)
def test_bracket_against_symbolic_oracle_unequal_bandwidths(m, cf, cg, dense):
    rng = np.random.default_rng(17 + 10 * m + cf + 3 * cg)
    for _ in range(2):
        if dense:
            f = random_affine(rng, m, cf, scale=0.8)
            g = random_affine(rng, m, cg, scale=0.8)
        else:
            f = _sparse_affine(rng, m, cf)
            g = _sparse_affine(rng, m, cg)
        assert (f.bandwidth, g.bandwidth) == (cf, cg)
        result = poisson_bracket(f, g)
        actions = rng.normal(size=m)
        angles = rng.uniform(0, 2 * np.pi, size=m)
        expected = _sympy_bracket_value(f, g, actions, angles)
        assert result.evaluate(actions, angles) == pytest.approx(expected, abs=1e-10)
        # the stacked convolutions give the field algebra's coefficients and bandwidths
        algebra = _field_algebra_bracket(f, g)
        assert result.bandwidth == algebra.bandwidth
        for got, want in zip((*result.action_coeffs, result.scalar),
                             (*algebra.action_coeffs, algebra.scalar)):
            assert got.bandwidth == want.bandwidth
            assert np.array_equal(got.array, want.array)


@st.composite
def _bracket_case(draw):
    # the observables come from a seeded generator: hypothesis would shrink
    # them towards m = 1 and zero bandwidths
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = int(rng.integers(1, 4))

    def observable():
        # zero one time in eight; else a few +/-c pairs per part at its own
        # bandwidth, with some parts left out
        if rng.random() < 0.125:
            return AffineObservable.zero(m)
        sparse = _sparse_affine(rng, m, int(rng.integers(0, 4 if m < 3 else 3)), int(rng.integers(1, 5)))
        parts = [p if rng.random() < 0.7 else TorusFourierField.zero(m)
                 for p in (*sparse.action_coeffs, sparse.scalar)]
        return AffineObservable(tuple(parts[:m]), parts[m])

    return observable(), observable()


# 100 examples (30, 34 and 36 at m = 1, 2, 3), 74 with unequal bandwidths and
# 30 with a zero observable, in about 0.5 s.  Reversing the loop's position
# order, which moves only roundings, fails within the first 30.
@settings(derandomize=True, max_examples=100, deadline=None)
@given(_bracket_case())
def test_batched_bracket_equals_the_field_algebra(case):
    f, g = case
    result, algebra = poisson_bracket(f, g), _field_algebra_bracket(f, g)
    for got, want in zip((*result.action_coeffs, result.scalar), (*algebra.action_coeffs, algebra.scalar)):
        assert got.bandwidth == want.bandwidth
        assert np.array_equal(got.array, want.array)


def test_bracket_antisymmetry_and_jacobi():
    rng = np.random.default_rng(23)
    for _ in range(3):
        f = random_affine(rng, 2, 1, scale=0.5)
        g = random_affine(rng, 2, 1, scale=0.5)
        h = random_affine(rng, 2, 1, scale=0.5)
        actions = rng.normal(size=2)
        angles = rng.uniform(0, 2 * np.pi, size=2)
        fg = poisson_bracket(f, g)
        gf = poisson_bracket(g, f)
        assert fg.evaluate(actions, angles) == pytest.approx(
            -gf.evaluate(actions, angles), abs=1e-12
        )
        jacobi = (
            poisson_bracket(f, poisson_bracket(g, h)).evaluate(actions, angles)
            + poisson_bracket(g, poisson_bracket(h, f)).evaluate(actions, angles)
            + poisson_bracket(h, poisson_bracket(f, g)).evaluate(actions, angles)
        )
        assert jacobi == pytest.approx(0.0, abs=1e-10)


def test_bracket_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        poisson_bracket(AffineObservable.action(1, 0), AffineObservable.action(2, 0))


# --- control connections -----------------------------------------------------


def _kappa_connection(kappa: float) -> ControlConnection:
    return ControlConnection(1, 1, {(0, 0): {(0,): ParameterPolynomial(1, {(0,): kappa})}})


def test_connection_zero_velocity():
    conn = _kappa_connection(0.8)
    obs = conn.as_observable([0.0], [0.0])
    assert obs.is_zero


def test_connection_constant_component():
    conn = _kappa_connection(0.8)
    obs = conn.as_observable([0.3], [2.0])
    assert (obs.action_coeffs[0] - TorusFourierField.constant(1, 1.6)).is_zero
    assert obs.scalar.is_zero


def test_connection_cosine_component():
    # component cos(phi^1) on a 2-torus: observable coefficients +-e_1 -> v/2
    conn = ControlConnection.from_half_spectrum(
        2, 1, {(0, 0): {(0, 1): ParameterPolynomial(1, {(0,): 0.5})}}
    )
    obs = conn.as_observable([0.0], [3.0])
    coeffs = obs.action_coeffs[0].coefficients
    assert coeffs[(0, 1)] == pytest.approx(1.5)
    assert coeffs[(0, -1)] == pytest.approx(1.5)
    phi = np.array([0.4, 1.1])
    assert obs.action_coeffs[0].evaluate(phi) == pytest.approx(3.0 * np.cos(phi[1]))


def test_connection_linear_in_velocity():
    rng = np.random.default_rng(31)
    conn = ControlConnection.from_half_spectrum(
        1,
        2,
        {
            (0, 0): {(1,): ParameterPolynomial(2, {(0, 0): 0.2, (1, 0): 0.1})},
            (0, 1): {(0,): ParameterPolynomial(2, {(0, 1): 0.3})},
        },
    )
    sigma = rng.normal(size=2)
    v1, v2 = rng.normal(size=2), rng.normal(size=2)
    alpha = 0.7
    left = conn.as_observable(sigma, v1 + alpha * v2)
    right_a = conn.as_observable(sigma, v1)
    right_b = conn.as_observable(sigma, v2)
    actions, angles = rng.normal(size=1), rng.uniform(0, 2 * np.pi, size=1)
    assert left.evaluate(actions, angles) == pytest.approx(
        right_a.evaluate(actions, angles) + alpha * right_b.evaluate(actions, angles)
    )


def test_connection_reality_enforced():
    with pytest.raises(ValueError):
        ControlConnection(1, 1, {(0, 0): {(1,): ParameterPolynomial(1, {(0,): 1.0})}})


_TINY = 5e-324  # the smallest subnormal
_HUGE = np.finfo(float).max


def _coefficient_bits(components):
    """Every stored coefficient's (real, imag) bit patterns, keyed by its place."""
    return {
        (key, c, e): np.array([v], dtype=complex).view(np.uint64).tolist()
        for key, fourier in components.items()
        for c, poly in fourier.items()
        for e, v in poly.coefficients.items()
    }


# (value at shift +1, real value at shift 0); shift -1 gets the conjugate
@pytest.mark.parametrize(
    "value, zero_shift",
    [
        (complex(-0.0, 1.5), complex(2.0, -0.0)),
        (complex(0.25, -0.0), complex(-0.5, 0.0)),
        (complex(_TINY, -_TINY), complex(-_TINY, -0.0)),
        (complex(_HUGE, -1.0), complex(-_HUGE, -0.0)),
        (complex(-0.3, 0.7), complex(0.1, 0.0)),
    ],
    ids=["signed-zero-real", "signed-zero-imag", "subnormal", "near-maximum", "plain"],
)
def test_connection_stores_exact_mirrors_bit_for_bit(value, zero_shift):
    # the projection onto each pair's real part is the identity on exact
    # mirrors; 0.5 * p + 0.5 * conj(q) would flush the subnormal to zero and
    # (p + conj q) / 2 would overflow near the maximum
    given = {(0, 0): {
        (1,): ParameterPolynomial(2, {(0, 0): value, (1, 1): 0.5 * value}),
        (-1,): ParameterPolynomial(2, {(0, 0): value.conjugate(), (1, 1): (0.5 * value).conjugate()}),
        (0,): ParameterPolynomial(2, {(0, 1): zero_shift}),
    }}
    conn = ControlConnection(1, 2, given)
    assert _coefficient_bits(conn.components) == _coefficient_bits(given)


def test_connection_projects_pairs_inside_the_tolerance_onto_their_real_part():
    near = _HUGE * (1.0 - 1e-13)
    conn = ControlConnection(1, 1, {(0, 0): {
        (2,): ParameterPolynomial(1, {(0,): complex(_HUGE, 1.0)}),
        (-2,): ParameterPolynomial(1, {(0,): complex(near, -1.0)}),
        (0,): ParameterPolynomial(1, {(0,): complex(0.5, 1e-13)}),
    }})
    fourier = conn.components[(0, 0)]
    plus, minus = fourier[(2,)].coefficients[(0,)], fourier[(-2,)].coefficients[(0,)]
    assert minus == plus.conjugate()
    assert plus == pytest.approx(complex(0.5 * _HUGE + 0.5 * near, 1.0), rel=1e-16)
    assert fourier[(0,)].coefficients[(0,)] == 0.5
    # a pair that cancels to zero is dropped, with its component
    cancel = {(0, 0): {(1,): ParameterPolynomial(1, {(0,): _TINY}),
                       (-1,): ParameterPolynomial(1, {(0,): -_TINY})}}
    assert ControlConnection(1, 1, cancel).components == {}


def test_connection_restrict_rejects_stray_support():
    from torus_holonomy import SplitViolationError

    conn = ControlConnection.from_half_spectrum(
        2, 1, {(1, 0): {(0, 0): ParameterPolynomial(1, {(0,): 1.0})}}
    )
    with pytest.raises(SplitViolationError):
        conn.restricted((0,))


# --- action polynomials ------------------------------------------------------


def test_action_polynomial_eval_and_gradient():
    # H = 0.5 I_1^2 + 2 I_0 I_1
    ham = ActionPolynomial(2, {(0, 2): 0.5, (1, 1): 2.0})
    actions = np.array([1.5, -2.0])
    assert ham.evaluate(actions) == pytest.approx(0.5 * 4.0 + 2.0 * 1.5 * -2.0)
    grad = ham.gradient(actions)
    assert grad[0] == pytest.approx(2.0 * -2.0)
    assert grad[1] == pytest.approx(-2.0 + 2.0 * 1.5)
    assert ham.action_axes() == {0, 1}


def test_polynomials_iterate_in_sorted_exponent_order():
    # evaluation sums in exponent order; the constructors sort once, so an
    # unsorted input dict gives the same terms and the same rounding (the
    # large terms make this sum differ in insertion order)
    unsorted = {(2, 0): 0.1, (0, 3): 1e16, (1, 1): -1e16, (0, 0): 0.3, (0, 1): 0.7}
    ham = ActionPolynomial(2, unsorted)
    assert list(ham.terms) == sorted(unsorted)
    poly = ParameterPolynomial(2, {e: v * (1 - 0.5j) for e, v in unsorted.items()})
    assert list(poly.coefficients) == sorted(unsorted)
    point = np.array([1.25, -0.75])
    total = 0.0
    for e, v in sorted(unsorted.items()):
        term = v
        for x, p in zip(point, e):
            if p:
                term = term * x**p
        total += term
    assert ham.evaluate(point) == total


def _looped_gradient(ham, actions):
    """The per-term, per-axis loop the derivative table replaced."""
    actions = np.asarray(actions, dtype=float)
    grad = np.zeros(ham.m)
    for e, v in ham.terms.items():
        for k, p in enumerate(e):
            if p == 0:
                continue
            term = v * p * actions[k] ** (p - 1)
            for j, q in enumerate(e):
                if j != k and q:
                    term *= actions[j] ** q
            grad[k] += term
    return grad


@st.composite
def _polynomials_and_points(draw):
    m = draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 4)] * m)
    coefficient = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    terms = draw(st.dictionaries(exponents, coefficient, max_size=6))
    point = draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=m, max_size=m))
    return ActionPolynomial(m, terms), np.array(point)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_polynomials_and_points())
def test_gradient_matches_term_loop(case):
    # same products in the same order as the loop, so equal bit for bit
    # (tighter than a relative bound)
    ham, point = case
    assert np.array_equal(ham.gradient(point), _looped_gradient(ham, point))


def test_action_polynomial_zero():
    ham = ActionPolynomial.zero(3)
    assert ham.evaluate([1.0, 2.0, 3.0]) == 0.0
    assert np.all(ham.gradient([1.0, 2.0, 3.0]) == 0.0)
