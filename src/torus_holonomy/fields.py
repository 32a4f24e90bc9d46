"""Angle-dependent Fourier fields, affine observables and control connections.

Angle dependence enters exclusively through finite Fourier series, each
held as one dense, centred coefficient array, so sums, products and angle
derivatives are exact whole-array operations and matrix elements downstream
are exact.  Every field is a real function, ``F_{-c} = conj(F_c)``, so its
quantization is Hermitian.  An affine observable is
``f = sum_k a_k(phi) I_k + b(phi)``; the Poisson bracket of two affine
observables is again affine and is computed in closed form here.

A control connection couples parameter velocities to angle drift.  Its
components carry a Fourier shift over the torus angles and a polynomial
dependence on the parameter point sigma, so sigma-derivatives and line
integrals are exact as well.  The connection is where the reality rule
is checked against data from outside: its mirrored pairs are stored as
exact mirrors, so every field frozen from it is real to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, SplitViolationError

_REALITY_TOL = 1e-12


def _as_shift(c: Iterable[int], m: int) -> tuple[int, ...]:
    shift = tuple(int(v) for v in c)
    if len(shift) != m:
        raise DimensionMismatchError(f"shift {shift} has length {len(shift)}, expected {m}")
    return shift


def _centred(m: int, coeffs: Mapping[tuple[int, ...], complex]) -> np.ndarray:
    """Centred coefficient array with ``coeffs[c]`` at ``c + C``, C the widest shift."""
    C = max((abs(x) for c in coeffs for x in c), default=0)
    array = np.zeros((2 * C + 1,) * m, dtype=complex)
    for c, v in coeffs.items():
        array[tuple(x + C for x in c)] = v
    return array


def _mirrored(m: int, half: Mapping[tuple[int, ...], object], conjugate: Callable) -> dict:
    """Complete one entry per +/-c pair: each listed c also gets conjugate(value) at -c."""
    full: dict = {}
    for c, v in half.items():
        shift = _as_shift(c, m)
        mirror = tuple(-x for x in shift)
        if mirror in full and shift != mirror:
            raise ValueError(f"both {shift} and {mirror} listed; give one per pair")
        full[shift] = v
        if shift != mirror:
            full[mirror] = conjugate(v)
    return full


@dataclass(frozen=True, init=False)
class TorusFourierField:
    """Finite Fourier series ``F(phi) = sum_c F_c exp(i c . phi)`` on the m-torus.

    The coefficients are one read-only, centred complex array of shape
    ``(2C+1,)*m`` whose entry ``c + C`` holds ``F_c``.  Zero borders are
    trimmed, so C is the bandwidth and equal fields have equal arrays.
    The field is a real function: the symmetry ``F_{-c} = conj(F_c)`` is
    checked at construction, relative to the largest coefficient, and so
    is finiteness.
    """

    array: np.ndarray

    def __init__(self, m: int, coefficients: Mapping[tuple[int, ...], complex] | None = None):
        coeffs = {_as_shift(c, m): complex(v) for c, v in (coefficients or {}).items()}
        self._store(_centred(m, coeffs))

    @classmethod
    def _from_array(cls, array: np.ndarray) -> "TorusFourierField":
        """Field of a centred coefficient array that no one else holds."""
        fld = cls.__new__(cls)
        fld._store(array)
        return fld

    def _store(self, array: np.ndarray) -> None:
        scale = np.abs(array).max()
        if not np.isfinite(scale):
            raise NonFiniteError("field coefficients must be finite; one is inf or nan, or overflowed")
        C = array.shape[0] // 2
        keep = int(np.abs(np.argwhere(array) - C).max(initial=0))
        array = array[(slice(C - keep, C + keep + 1),) * array.ndim]
        array.flags.writeable = False
        defect = np.abs(np.conj(array) - np.flip(array)).max()
        if defect > _REALITY_TOL * max(1.0, scale):
            raise ValueError(f"field is not real: F(-c) = conj(F(c)) fails by {defect:.3g}")
        object.__setattr__(self, "array", array)

    def __eq__(self, other) -> bool:
        return isinstance(other, TorusFourierField) and np.array_equal(self.array, other.array)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> "TorusFourierField":
        return cls(m, {})

    @classmethod
    def constant(cls, m: int, value: float) -> "TorusFourierField":
        return cls(m, {(0,) * m: complex(value)})

    @classmethod
    def cosine(cls, m: int, axis: int, amplitude: float = 1.0) -> "TorusFourierField":
        plus = tuple(1 if k == axis else 0 for k in range(m))
        return cls.from_half_spectrum(m, {plus: amplitude / 2.0})

    @classmethod
    def sine(cls, m: int, axis: int, amplitude: float = 1.0) -> "TorusFourierField":
        plus = tuple(1 if k == axis else 0 for k in range(m))
        return cls.from_half_spectrum(m, {plus: -0.5j * amplitude})

    @classmethod
    def from_half_spectrum(cls, m: int, half: Mapping[tuple[int, ...], complex]) -> "TorusFourierField":
        """Build a real field from one coefficient per +/-c pair.

        Each listed shift c also contributes conj(value) at -c.  The zero
        shift must be real, as the reality check at construction enforces.
        Listing both members of a pair is rejected to avoid double counting.
        """
        return cls(m, _mirrored(m, half, np.conj))

    # -- queries -----------------------------------------------------------

    @property
    def m(self) -> int:
        return self.array.ndim

    @property
    def coefficients(self) -> dict[tuple[int, ...], complex]:
        """The nonzero coefficients as ``{shift: value}``, in shift order."""
        shifts = np.argwhere(self.array) - self.bandwidth
        return dict(zip(map(tuple, shifts.tolist()), self.array[self.array != 0].tolist()))

    @property
    def bandwidth(self) -> int:
        """Smallest C with |c_k| <= C for every supported shift."""
        return self.array.shape[0] // 2

    @property
    def is_zero(self) -> bool:
        return not self.array.any()

    def evaluate(self, phi: Sequence[float]) -> float:
        phi = np.asarray(phi, dtype=float)
        if phi.shape != (self.m,):
            raise DimensionMismatchError(f"angle vector shape {phi.shape}, expected ({self.m},)")
        shifts = np.argwhere(self.array) - self.bandwidth
        return float((self.array[self.array != 0] @ np.exp(1j * (shifts @ phi))).real)

    # -- exact algebra -----------------------------------------------------

    def derivative(self, axis: int) -> "TorusFourierField":
        """Angle derivative along one axis; the derivative of a real field is real."""
        C = self.bandwidth
        shift = np.moveaxis(np.arange(-C, C + 1).reshape([-1] + [1] * (self.m - 1)), 0, axis)
        return TorusFourierField._from_array(self.array * 1j * shift)

    def __add__(self, other: "TorusFourierField") -> "TorusFourierField":
        if self.m != other.m:
            raise DimensionMismatchError("field dimensions differ")
        C = max(self.bandwidth, other.bandwidth)
        array = np.zeros((2 * C + 1,) * self.m, dtype=complex)
        for fld in (self, other):
            array[(slice(C - fld.bandwidth, C + fld.bandwidth + 1),) * self.m] += fld.array
        return TorusFourierField._from_array(array)

    def __sub__(self, other: "TorusFourierField") -> "TorusFourierField":
        return self + other.scaled(-1.0)

    def __mul__(self, other: "TorusFourierField") -> "TorusFourierField":
        """Pointwise product via coefficient convolution (exact)."""
        if self.m != other.m:
            raise DimensionMismatchError("field dimensions differ")
        width = other.array.shape[0]
        array = np.zeros((self.array.shape[0] + width - 1,) * self.m, dtype=complex)
        for idx in np.argwhere(self.array):
            array[tuple(slice(i, i + width) for i in idx)] += self.array[tuple(idx)] * other.array
        return TorusFourierField._from_array(array)

    def scaled(self, s: float) -> "TorusFourierField":
        return TorusFourierField._from_array(float(s) * self.array)


@dataclass(frozen=True)
class AffineObservable:
    """Observable affine in the actions: ``f = sum_k a_k(phi) I_k + b(phi)``."""

    action_coeffs: tuple[TorusFourierField, ...]
    scalar: TorusFourierField

    def __post_init__(self):
        object.__setattr__(self, "action_coeffs", tuple(self.action_coeffs))
        m = self.scalar.m
        if len(self.action_coeffs) != m:
            raise DimensionMismatchError("need one action coefficient field per axis")
        for f in self.action_coeffs:
            if f.m != m:
                raise DimensionMismatchError("component field dimension differs")

    @property
    def m(self) -> int:
        return self.scalar.m

    @property
    def bandwidth(self) -> int:
        return max([self.scalar.bandwidth] + [f.bandwidth for f in self.action_coeffs])

    @classmethod
    def zero(cls, m: int) -> "AffineObservable":
        return cls.from_parts(m)

    @classmethod
    def constant(cls, m: int, value: float) -> "AffineObservable":
        return cls((TorusFourierField.zero(m),) * m, TorusFourierField.constant(m, value))

    @classmethod
    def action(cls, m: int, axis: int) -> "AffineObservable":
        """The bare action observable I_axis."""
        return cls.from_parts(m, {axis: TorusFourierField.constant(m, 1.0)})

    @classmethod
    def from_parts(
        cls,
        m: int,
        action_coeffs: Mapping[int, TorusFourierField] | None = None,
        scalar: TorusFourierField | None = None,
    ) -> "AffineObservable":
        coeffs = dict(action_coeffs or {})
        fields = tuple(coeffs.get(k, TorusFourierField.zero(m)) for k in range(m))
        return cls(fields, scalar if scalar is not None else TorusFourierField.zero(m))

    def evaluate(self, actions: Sequence[float], phi: Sequence[float]) -> float:
        actions = np.asarray(actions, dtype=float)
        total = self.scalar.evaluate(phi)
        for k in range(self.m):
            if not self.action_coeffs[k].is_zero:
                total += self.action_coeffs[k].evaluate(phi) * actions[k]
        return float(total)

    @property
    def is_zero(self) -> bool:
        return self.scalar.is_zero and all(f.is_zero for f in self.action_coeffs)

    def stacked(self, bandwidth: int) -> np.ndarray:
        """The arrays of a_0 .. a_{m-1} and b padded to ``bandwidth``, shape (m+1, 2C+1, ..., 2C+1)."""
        C = bandwidth
        parts = np.zeros((self.m + 1,) + (2 * C + 1,) * self.m, dtype=complex)
        for part, fld in zip(parts, (*self.action_coeffs, self.scalar)):
            part[(slice(C - fld.bandwidth, C + fld.bandwidth + 1),) * self.m] = fld.array
        return parts


def poisson_bracket(f: AffineObservable, g: AffineObservable) -> AffineObservable:
    """Closed-form bracket ``{f, g} = d^k f d_k g - d_k f d^k g`` (I-derivative up).

    The bracket of two affine observables is again affine:

        a_r(result) = sum_k ( a_k(f) d_k a_r(g) - a_k(g) d_k a_r(f) )
        b(result)   = sum_k ( a_k(f) d_k b(g)   - a_k(g) d_k b(f) )

    Coefficient arithmetic is exact; nothing is truncated.

    The m+1 parts of each observable are padded to one bandwidth C and
    stacked.  The 2m products ``a_k(f) d_k parts(g)`` and ``a_k(g) d_k
    parts(f)`` are convolutions of the same shape, so they run as one
    stack of shape ``(m, 2, m+1) + (4C+1,)*m`` in a single loop over the
    positions where any a_k(f) or a_k(g) is nonzero.  A position where one factor is zero
    adds a signed zero to that convolution, which changes no bit, so each
    convolution still sums its terms from zero in position order.  The
    results are summed in the order of the field algebra's ``total +
    a_k(f) * d_k part(g) - a_k(g) * d_k part(f)``, so every coefficient is
    the one that algebra gives.
    """
    if f.m != g.m:
        raise DimensionMismatchError("observables have different torus dimensions")
    m = f.m
    C = max(f.bandwidth, g.bandwidth)
    width = 2 * C + 1
    fp, gp = f.stacked(C), g.stacked(C)
    # factors[k] = (a_k(f), a_k(g)) and derivatives[k] = (d_k parts(g), d_k parts(f))
    factors = np.stack([fp[:m], gp[:m]], axis=1)
    along = np.indices((width,) * m) - C  # along[k]: each position's shift component k
    derivatives = (np.stack([gp, fp]) * 1j)[None] * along[:, None, None]
    products = np.zeros((m, 2, m + 1) + (2 * width - 1,) * m, dtype=complex)
    for idx in np.argwhere(factors.any(axis=(0, 1))):
        coefficient = factors[(..., *idx)].reshape((m, 2) + (1,) * (m + 1))
        products[(..., *(slice(i, i + width) for i in idx))] += coefficient * derivatives
    total = np.zeros((m + 1,) + (2 * width - 1,) * m, dtype=complex)
    for plus, minus in products:
        total += plus
        total -= minus
    parts = [TorusFourierField._from_array(part) for part in total]
    return AffineObservable(tuple(parts[:m]), parts[m])


def _polynomial_terms(terms: Mapping[tuple[int, ...], complex], n: int, kind: type) -> dict:
    """Validated ``{exponent tuple: kind(value)}`` in n variables, zeros dropped.

    The dict iterates in sorted exponent order, the summation order of
    ``_polynomial_value`` and ``ActionPolynomial.gradient``.
    """
    out = {}
    for e, v in terms.items():
        exps = tuple(int(x) for x in e)
        if len(exps) != n:
            raise DimensionMismatchError(
                f"exponent tuple {exps} has length {len(exps)}, expected length {n}"
            )
        if any(x < 0 for x in exps):
            raise ValueError("negative exponent")
        val = kind(v)
        if not np.isfinite(val):
            raise ValueError(f"coefficient at {exps} is not finite")
        if val != 0:
            out[exps] = val
    return dict(sorted(out.items()))


def _polynomial_value(terms: Mapping[tuple[int, ...], complex], point: np.ndarray, total):
    """``total`` plus every term ``v * prod_k point_k**e_k``, in exponent order."""
    for e, v in terms.items():
        term = v
        for x, p in zip(point, e):
            if p:
                term = term * x**p
        total += term
    return total


@dataclass(frozen=True)
class ParameterPolynomial:
    """Polynomial on the parameter space R^d, exponent tuple -> coefficient."""

    dim: int
    coefficients: Mapping[tuple[int, ...], complex] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _polynomial_terms(self.coefficients, self.dim, complex))

    @property
    def degree(self) -> int:
        if not self.coefficients:
            return 0
        return max(sum(e) for e in self.coefficients)

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def evaluate(self, sigma: Sequence[float]) -> complex:
        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != (self.dim,):
            raise DimensionMismatchError(f"parameter point shape {sigma.shape}, expected ({self.dim},)")
        return _polynomial_value(self.coefficients, sigma, 0.0 + 0.0j)

    def conjugate(self) -> "ParameterPolynomial":
        return ParameterPolynomial(self.dim, {e: np.conj(v) for e, v in self.coefficients.items()})


def _real_pairs(fourier: Mapping[tuple[int, ...], ParameterPolynomial]) -> dict:
    """Each mirrored pair stored as its real part; a pair that cancels is dropped.

    ``p_c <- (p_c + conj p_-c) / 2`` for the member with ``c >= -c`` and
    ``p_-c <- conj p_c`` for the other.  The mean is written
    ``p - (p - conj q) / 2``: where ``q = conj p`` that returns p bit for
    bit (signed zeros and subnormals included), and it cannot overflow,
    since the reality check has bounded ``p - conj q``.
    """
    out = {}
    for shift, poly in fourier.items():
        mirror = tuple(-x for x in shift)
        if shift < mirror:
            continue
        p, q = poly.coefficients, fourier[mirror].coefficients
        mean = {}
        for e in {**p, **q}:
            v = p.get(e, 0j)
            mean[e] = v - 0.5 * (v - q.get(e, 0j).conjugate())
        real = ParameterPolynomial(poly.dim, mean)
        if not real.is_zero:
            out[shift] = real
            if shift != mirror:
                out[mirror] = real.conjugate()
    return out


@dataclass(frozen=True)
class ControlConnection:
    """Coupling of parameter velocities to angle drift on selected torus axes.

    ``components[(axis, beta)]`` maps a Fourier shift over the torus angles
    to a sigma-polynomial coefficient; the represented field is

        L_axis_beta(sigma, phi) = sum_c poly_c(sigma) exp(i c . phi).

    Reality for real sigma requires ``poly_{-c} = conj(poly_c)``.  It is
    checked here, relative to each whole polynomial, and each mirrored pair
    is then stored as its real part (``_real_pairs``), so every field the
    connection freezes is an exact mirror.  Whether the support respects a
    model's controlled/dynamic split is *not* enforced at construction:
    ``restricted`` refuses a violation, ``split_residual`` counts them.
    """

    m: int
    parameter_dim: int
    components: Mapping[tuple[int, int], Mapping[tuple[int, ...], ParameterPolynomial]] = field(
        default_factory=dict
    )

    def __post_init__(self):
        comps: dict[tuple[int, int], dict[tuple[int, ...], ParameterPolynomial]] = {}
        for (axis, beta), fourier in self.components.items():
            axis, beta = int(axis), int(beta)
            if not 0 <= axis < self.m:
                raise DimensionMismatchError(f"torus axis {axis} out of range for m={self.m}")
            if not 0 <= beta < self.parameter_dim:
                raise DimensionMismatchError(
                    f"parameter axis {beta} out of range for d={self.parameter_dim}"
                )
            entry: dict[tuple[int, ...], ParameterPolynomial] = {}
            for c, poly in fourier.items():
                shift = _as_shift(c, self.m)
                if poly.dim != self.parameter_dim:
                    raise DimensionMismatchError("sigma-polynomial dimension differs from d")
                if not poly.is_zero:
                    entry[shift] = poly
            for shift, poly in entry.items():
                mirror = entry.get(tuple(-x for x in shift))
                if mirror is None:
                    raise ValueError(f"component ({axis},{beta}) misses the mirror of shift {shift}")
                conj = poly.conjugate()
                scale = max((abs(v) for v in poly.coefficients.values()), default=1.0)
                for e, v in conj.coefficients.items():
                    if abs(v - mirror.coefficients.get(e, 0.0)) > _REALITY_TOL * max(1.0, scale):
                        raise ValueError(
                            f"component ({axis},{beta}) breaks reality at shift {shift}"
                        )
            entry = _real_pairs(entry)
            if entry:
                comps[(axis, beta)] = entry
        object.__setattr__(self, "components", comps)

    @classmethod
    def empty(cls, m: int, parameter_dim: int) -> "ControlConnection":
        return cls(m, parameter_dim, {})

    @classmethod
    def from_half_spectrum(
        cls,
        m: int,
        parameter_dim: int,
        half: Mapping[tuple[int, int], Mapping[tuple[int, ...], ParameterPolynomial]],
    ) -> "ControlConnection":
        """Build from one Fourier entry per +/-c pair, mirroring conjugates."""
        comps = {key: _mirrored(m, f, ParameterPolynomial.conjugate) for key, f in half.items()}
        return cls(m, parameter_dim, comps)

    # -- queries -----------------------------------------------------------

    def angle_axes(self) -> frozenset[int]:
        axes: set[int] = set()
        for fourier in self.components.values():
            for c in fourier:
                axes.update(k for k, x in enumerate(c) if x != 0)
        return frozenset(axes)

    @property
    def bandwidth(self) -> int:
        b = 0
        for fourier in self.components.values():
            for c in fourier:
                b = max(b, max((abs(x) for x in c), default=0))
        return b

    def is_angle_independent(self) -> bool:
        return not self.angle_axes()

    def field(self, axis: int, beta: int, sigma: Sequence[float]) -> TorusFourierField:
        """The (axis, beta) component frozen at a parameter point."""
        fourier = self.components.get((axis, beta), {})
        coeffs = {c: poly.evaluate(sigma) for c, poly in fourier.items()}
        return TorusFourierField._from_array(_centred(self.m, coeffs))

    def as_observable(self, sigma: Sequence[float], velocity: Sequence[float]) -> AffineObservable:
        """Velocity pairing: affine observable with a_axis = sum_beta L_axis_beta(sigma) v_beta.

        Linear in the velocity; the scalar part is zero.
        """
        velocity = np.asarray(velocity, dtype=float)
        if velocity.shape != (self.parameter_dim,):
            raise DimensionMismatchError(
                f"velocity shape {velocity.shape}, expected ({self.parameter_dim},)"
            )
        parts: dict[int, TorusFourierField] = {}
        for (axis, beta), _ in sorted(self.components.items()):
            v = velocity[beta]
            if v == 0.0:
                continue
            fld = self.field(axis, beta, sigma).scaled(float(v))
            parts[axis] = parts[axis] + fld if axis in parts else fld
        return AffineObservable.from_parts(self.m, parts)

    def restricted(self, axes: tuple[int, ...]) -> "ControlConnection":
        """Project onto a sub-torus spanned by ``axes`` (order preserved).

        Requires every component axis and every Fourier shift to live on
        ``axes``; anything else would be silently dropped and is rejected.
        """
        axes = tuple(axes)
        pos = {a: i for i, a in enumerate(axes)}
        comps: dict[tuple[int, int], dict[tuple[int, ...], ParameterPolynomial]] = {}
        for (axis, beta), fourier in self.components.items():
            if axis not in pos:
                raise SplitViolationError(f"component on axis {axis} outside {axes}")
            entry = {}
            for c, poly in fourier.items():
                if any(x != 0 for k, x in enumerate(c) if k not in pos):
                    raise SplitViolationError(f"Fourier shift {c} touches axes outside {axes}")
                entry[tuple(c[a] for a in axes)] = poly
            comps[(pos[axis], beta)] = entry
        return ControlConnection(len(axes), self.parameter_dim, comps)


@dataclass(frozen=True)
class ActionPolynomial:
    """Real polynomial in the m action variables, exponent tuple -> coefficient.

    Used as the dynamic Hamiltonian.  Which axes it may touch is a property
    of the model's split and is checked at the point of use, so violating
    instances can be constructed for the structural diagnostics.

    The gradient reads a table of derivative terms built once at
    construction: ``(k, v * p, factors)`` for each term ``v I^e`` and axis k
    with ``p = e_k > 0``, where ``factors`` lists the nonzero ``(axis,
    power)`` pairs of ``I^e / I_k``, axis k first.
    """

    m: int
    terms: Mapping[tuple[int, ...], float] = field(default_factory=dict)
    _derivative: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        terms = _polynomial_terms(self.terms, self.m, float)
        derivative = []
        for e, v in terms.items():
            for k, p in enumerate(e):
                if p:
                    factors = [(k, p - 1)] if p > 1 else []
                    factors += [(j, q) for j, q in enumerate(e) if j != k and q]
                    derivative.append((k, v * p, tuple(factors)))
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_derivative", tuple(derivative))

    @classmethod
    def zero(cls, m: int) -> "ActionPolynomial":
        return cls(m, {})

    def action_axes(self) -> frozenset[int]:
        axes: set[int] = set()
        for e in self.terms:
            axes.update(k for k, x in enumerate(e) if x > 0)
        return frozenset(axes)

    def evaluate(self, actions: Sequence[float]) -> float:
        actions = np.asarray(actions, dtype=float)
        if actions.shape != (self.m,):
            raise DimensionMismatchError(f"action vector shape {actions.shape}, expected ({self.m},)")
        return _polynomial_value(self.terms, actions, 0.0)

    def gradient(self, actions: Sequence[float]) -> np.ndarray:
        return np.array(self.gradient_list(np.asarray(actions, dtype=float).tolist()))

    def gradient_list(self, actions: Sequence[float]) -> list[float]:
        """The gradient at a sequence of Python floats, as a list.

        Scalar products over the prebuilt table: at the few terms of a
        Hamiltonian, numpy's per-call overhead makes an array expression
        slower than this loop.  A power that overflows raises
        ``NonFiniteError``; Python's float ``**`` raises where ``*`` gives inf.
        """
        grad = [0.0] * self.m
        try:
            for k, term, factors in self._derivative:
                for j, q in factors:
                    term *= actions[j] ** q
                grad[k] += term
        except OverflowError:
            raise NonFiniteError("a power of an action overflowed; the flow did not stay bounded") from None
        return grad
