import numpy as np
import pytest

from torus_holonomy import TorusModel
from torus_holonomy.lattice import interior_mask, mode_array


def test_mode_array_m1():
    model = TorusModel(1, (0,), (0.0,), 1)
    assert mode_array(model).tolist() == [[-1], [0], [1]]


def test_mode_array_m2_order_and_count():
    model = TorusModel(2, (0,), (0.0, 0.0), 1)
    modes = mode_array(model).tolist()
    assert len(modes) == 9
    assert modes[0] == [-1, -1]
    assert modes[-1] == [1, 1]
    assert modes == sorted(modes)


def test_mode_array_box_size_n8():
    model = TorusModel(2, (0,), (0.0, 0.0), 8)
    assert mode_array(model).shape == (289, 2)


def test_mode_array_stable_and_linear_in_the_mode():
    # the layout contract of _shift_scatter and sublattice_index: mode n sits
    # at position (n + N) . strides, so every mode has one position
    model = TorusModel(3, (1,), (0.1, 0.2, 0.3), 2)
    modes = mode_array(model)
    assert np.array_equal(mode_array(model), modes)
    strides = model.axis_size ** np.arange(model.m - 1, -1, -1)
    assert np.array_equal((modes + model.truncation) @ strides, np.arange(model.size))


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
