"""Mode lattice and classical states on the m-torus.

Everything finite-dimensional in this package lives on the truncated mode
box ``{n in Z^m : |n_k| <= N}``.  Modes are enumerated lexicographically
(first axis slowest), as the rows of ``mode_array``; that order fixes the
layout of every coefficient vector and operator matrix.  Mode n sits at
position ``(n + N) . strides`` with strides ``(2N+1)^(m-1), ..., 1``, and
its basis vector is that column of the identity.  Amplitudes outside the
box are implicitly zero, so operators that shift modes across the
boundary drop those contributions; exact-identity checks therefore
restrict themselves to the modes of ``interior_mask``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import DimensionMismatchError, SplitViolationError

@dataclass(frozen=True)
class TorusModel:
    """Torus dimension, controlled/dynamic axis split, offsets, truncation.

    Axes are 0-based.  ``controlled`` lists the axes driven by the external
    parameters; the complement is ``dynamic``.  ``offsets[k]`` labels the
    quantization: the k-th action operator has spectrum ``n_k - offsets[k]``.
    Offsets are stored as given; integer differences are gauge-equivalent
    (see ``operators.lambda_shift_equivalence``).  ``truncation`` is the
    per-axis mode cap N, so the lattice has ``(2 N + 1) ** m`` points.
    """

    m: int
    controlled: tuple[int, ...]
    offsets: tuple[float, ...]
    truncation: int

    def __post_init__(self):
        object.__setattr__(self, "controlled", tuple(sorted(int(a) for a in self.controlled)))
        object.__setattr__(self, "offsets", tuple(float(x) for x in self.offsets))
        if self.m < 1:
            raise ValueError("torus dimension m must be >= 1")
        if self.truncation < 1:
            raise ValueError("truncation N must be >= 1")
        if len(self.offsets) != self.m:
            raise ValueError(f"offsets have length {len(self.offsets)}, expected m={self.m}")
        if self.size > np.iinfo(np.intp).max:
            raise ValueError("truncation N too large: the box of (2N+1)^m modes cannot be indexed")
        if len(set(self.controlled)) != len(self.controlled):
            raise ValueError("duplicate controlled axis")
        for a in self.controlled:
            if not 0 <= a < self.m:
                raise ValueError(f"controlled axis {a} out of range for m={self.m}")

    @property
    def dynamic(self) -> tuple[int, ...]:
        return tuple(k for k in range(self.m) if k not in self.controlled)

    @property
    def axis_size(self) -> int:
        return 2 * self.truncation + 1

    @property
    def size(self) -> int:
        return self.axis_size**self.m


def controlled_submodel(model: TorusModel) -> TorusModel:
    """The controlled-axes sub-box as a standalone model (all axes controlled)."""
    l = len(model.controlled)
    if l == 0:
        raise SplitViolationError("model has no controlled axes")
    return TorusModel(
        l,
        tuple(range(l)),
        tuple(model.offsets[a] for a in model.controlled),
        model.truncation,
    )


@lru_cache(maxsize=None)
def _mode_array(m: int, truncation: int) -> np.ndarray:
    arr = np.array(list(product(range(-truncation, truncation + 1), repeat=m)), dtype=np.int64)
    arr.flags.writeable = False
    return arr


def mode_array(model: TorusModel) -> np.ndarray:
    """All box modes as an (size, m) int array in lexicographic order."""
    return _mode_array(model.m, model.truncation)


def interior_mask(model: TorusModel, guard: int) -> np.ndarray:
    """Boolean mask over the layout selecting modes with |n_k| <= N - guard."""
    if guard < 0:
        raise ValueError("guard bandwidth must be nonnegative")
    if guard > model.truncation:
        raise ValueError(f"guard {guard} exceeds truncation {model.truncation}: interior set is empty")
    return np.all(np.abs(mode_array(model)) <= model.truncation - guard, axis=1)


def sublattice_index(model: TorusModel, axes: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """Ravel each full mode to its index in the sub-box over ``axes``.

    Returns ``(index, sub_size)`` where ``index[p]`` is the lexicographic
    position of mode p's components on ``axes`` within the
    ``(2N+1)**len(axes)`` sub-box.  Used to lift controlled-sublattice
    operators to the full lattice and to slice eigenspace blocks.
    """
    modes = mode_array(model)
    if not axes:
        return np.zeros(modes.shape[0], dtype=np.int64), 1
    cols = (modes[:, list(axes)] + model.truncation).T
    shape = (model.axis_size,) * len(axes)
    return np.ravel_multi_index(tuple(cols), shape), model.axis_size ** len(axes)


@dataclass(frozen=True)
class ClassicalState:
    """Action-angle point; angles are stored unwrapped (compare mod 2*pi)."""

    actions: np.ndarray
    angles: np.ndarray

    def __post_init__(self):
        I = np.asarray(self.actions, dtype=float).copy()
        phi = np.asarray(self.angles, dtype=float).copy()
        if I.ndim != 1 or phi.shape != I.shape:
            raise DimensionMismatchError("actions and angles must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(I)) and np.all(np.isfinite(phi))):
            raise ValueError("non-finite classical state")
        I.flags.writeable = False
        phi.flags.writeable = False
        object.__setattr__(self, "actions", I)
        object.__setattr__(self, "angles", phi)

    @property
    def m(self) -> int:
        return self.actions.shape[0]
