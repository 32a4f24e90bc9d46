import numpy as np
import pytest

from torus_holonomy import (
    DimensionMismatchError,
    TorusModel,
    WaveFunction,
    inner_product,
    mode_iter,
)
from torus_holonomy.lattice import interior_mask, mode_array, mode_position


def _from_modes(model, amplitudes):
    """Wavefunction with the given amplitudes on listed modes, zero elsewhere."""
    values = np.zeros(model.size, dtype=complex)
    for mode, amplitude in amplitudes.items():
        values[mode_position(model, mode)] = amplitude
    return WaveFunction(model, values)


def test_mode_iter_m1():
    model = TorusModel(1, (0,), (0.0,), 1)
    assert mode_iter(model) == [(-1,), (0,), (1,)]


def test_mode_iter_m2_order_and_count():
    model = TorusModel(2, (0,), (0.0, 0.0), 1)
    modes = mode_iter(model)
    assert len(modes) == 9
    assert modes[0] == (-1, -1)
    assert modes[-1] == (1, 1)
    assert modes == sorted(modes)


def test_mode_iter_box_size_n8():
    model = TorusModel(2, (0,), (0.0, 0.0), 8)
    assert len(mode_iter(model)) == 289


def test_mode_iter_stable_and_bijective():
    model = TorusModel(2, (1,), (0.1, 0.2), 3)
    first = mode_iter(model)
    second = mode_iter(model)
    assert first == second
    assert len(set(first)) == len(first)
    for i, mode in enumerate(first):
        assert mode_position(model, mode) == i


def test_interior_modes_counts():
    model = TorusModel(2, (0,), (0.0, 0.0), 8)
    assert interior_mask(model, 0).sum() == 289
    assert mode_array(model)[interior_mask(model, 8)].tolist() == [[0, 0]]
    line = TorusModel(1, (0,), (0.0,), 8)
    assert interior_mask(line, 2).sum() == 13


def test_interior_modes_guard_too_large():
    model = TorusModel(1, (0,), (0.0,), 4)
    with pytest.raises(ValueError):
        interior_mask(model, 5)
    with pytest.raises(ValueError):
        interior_mask(model, -1)


def test_model_validation():
    with pytest.raises(ValueError):
        TorusModel(0, (), (), 4)
    with pytest.raises(ValueError):
        TorusModel(2, (0,), (0.0, 0.0), 0)
    with pytest.raises(ValueError):
        TorusModel(2, (0, 2), (0.0, 0.0), 4)
    with pytest.raises(ValueError):
        TorusModel(2, (0,), (0.0,), 4)


def test_offsets_length_is_checked_before_the_box_size():
    # the size test would compute 3**(10**6) first and report the truncation
    with pytest.raises(ValueError, match=r"^offsets have length 1, expected m=1000000$"):
        TorusModel(10**6, (), (0.0,), 1)


def test_dynamic_complement():
    model = TorusModel(3, (1,), (0.0, 0.0, 0.0), 2)
    assert model.dynamic == (0, 2)
    assert model.size == 125


def test_basis_orthonormality():
    model = TorusModel(2, (0,), (0.25, 0.5), 2)
    modes = mode_iter(model)
    for n in modes[:5] + modes[-3:]:
        for k in modes[:5]:
            val = inner_product(WaveFunction.basis(model, n), WaveFunction.basis(model, k))
            assert val == (1.0 if n == k else 0.0)


def test_inner_product_conjugate_first_slot():
    # <2 psi_0 + i psi_1 | psi_1> = -i under the documented convention
    model = TorusModel(1, (0,), (0.0,), 2)
    s = _from_modes(model, {(0,): 2.0, (1,): 1j})
    t = WaveFunction.basis(model, (1,))
    assert inner_product(s, t) == -1j
    assert inner_product(t, s) == 1j


def test_inner_product_conjugate_symmetry():
    rng = np.random.default_rng(3)
    model = TorusModel(1, (0,), (0.3,), 3)
    a = WaveFunction(model, rng.normal(size=7) + 1j * rng.normal(size=7))
    b = WaveFunction(model, rng.normal(size=7) + 1j * rng.normal(size=7))
    assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))
    assert inner_product(a, a).real == pytest.approx(a.norm() ** 2)


def test_inner_product_model_mismatch():
    a = WaveFunction.zero(TorusModel(1, (0,), (0.0,), 2))
    b = WaveFunction.zero(TorusModel(1, (0,), (0.0,), 3))
    with pytest.raises(DimensionMismatchError):
        inner_product(a, b)


def test_wavefunction_lookup_and_immutability():
    model = TorusModel(2, (0,), (0.0, 0.0), 1)
    psi = _from_modes(model, {(1, -1): 0.5j})
    assert psi[(1, -1)] == 0.5j
    assert psi[(0, 0)] == 0.0
    with pytest.raises(ValueError):
        psi.values[0] = 1.0

