"""Operator matrices on the truncated mode basis.

Quantization of an affine observable ``f = sum_k a_k(phi) I_k + b(phi)`` is
the first-order operator

    f_hat = -i a_k d_k - (i/2) (d_k a_k) - a_k offset_k + b.

Applying it to a basis mode exp(i n . phi) and collecting the Fourier shift
c of each coefficient gives the closed-form matrix element

    <n + c | f_hat | n> = sum_k A_k[c] (n_k + c_k / 2 - offset_k) + B[c],

where A_k, B are the coefficient tables of a_k, b.  The half-shift makes
the element manifestly Hermitian for real fields, and the formula is locked
against an independent torus-quadrature oracle in the test suite.  All
nonzero shifts of an observable are placed by one scatter over the stack
of shifts, which yields (shift, target, source) for every in-box entry,
and ``_affine_entries`` turns them into one (rows, cols, values) list.
``quantize_affine`` fills a dense matrix from that list for its callers;
``dirac_residual`` stores it by diagonals and multiplies only the interior
rows and columns, so the check forms no dense matrix of the full box.
Shifts that leave the box are dropped; identities involving shift
operators are therefore asserted on interior modes only.

A control connection's velocity pairing is linear in the velocity and
polynomial in sigma: one term per (axis, Fourier shift) weighted by
``v_beta sigma^e``.  ``compile_connection`` builds that table and the
term-to-axis map once; per-step code on the quantum and classical sides
reads only them, and ``along`` reads the path with one ``curve.sample``.
``shift_basis`` places its distinct shifts on a mode box through the same
one scatter as ``quantize_affine``, which stays independent as the
reference.

The ordered products exponentiate their step generators in stacks, so a
chunk of steps costs a few batched matrix products instead of one matrix
exponential call per step.  ``exp_stack`` takes its method from a bound
on the stack's largest 1-norm that the caller reads from its term
weights (``ShiftBasis.term_norms``), never from a dense norm: up to the
backward-error bound theta_8 of Al-Mohy and Higham, the degree-8 Taylor
polynomial in three products (Bader, Blanes and Casas); above, scaling
and squaring with the degree-16 Taylor polynomial by Paterson-Stockmeyer.
``step_chunks`` cuts the steps into chunks of at most ``STACK_BYTES`` of
generators, and one ``exp_workspace`` serves every chunk of a call.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import BandwidthError, DimensionMismatchError, SplitViolationError
from .fields import ActionPolynomial, AffineObservable, ControlConnection, poisson_bracket
from .lattice import TorusModel, interior_mask, mode_array


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex matrix in the lexicographic mode layout."""

    model: TorusModel
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.complex128)
        size = self.model.size
        if mat.shape != (size, size):
            raise DimensionMismatchError(f"matrix shape {mat.shape}, expected ({size}, {size})")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    def dagger(self) -> np.ndarray:
        return self.matrix.conj().T

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.dagger())))

    def offdiagonal_mass(self) -> float:
        off = self.matrix - np.diag(np.diag(self.matrix))
        return float(np.max(np.abs(off)))


def action_operator(model: TorusModel, axis: int) -> OperatorMatrix:
    """Diagonal action operator with entries ``n_axis - offset_axis``."""
    if not 0 <= axis < model.m:
        raise DimensionMismatchError(f"axis {axis} out of range for m={model.m}")
    diag = mode_array(model)[:, axis] - model.offsets[axis]
    return OperatorMatrix(model, np.diag(diag.astype(complex)))


def hamiltonian_spectrum(
    model: TorusModel, hamiltonian: ActionPolynomial | Callable[[np.ndarray], float]
) -> np.ndarray:
    """Diagonal values H(n - offsets), one per mode in layout order.

    A polynomial Hamiltonian must not touch controlled actions.  A plain
    callable is the hook for analytic Hamiltonians: it receives only the
    dynamic components of ``n - offsets`` (ordered by dynamic axis), which
    enforces the split structurally.
    """
    return _spectrum(model, hamiltonian, mode_array(model) - np.asarray(model.offsets))


def _spectrum(
    model: TorusModel,
    hamiltonian: ActionPolynomial | Callable[[np.ndarray], float],
    actions: np.ndarray,
) -> np.ndarray:
    """H at each row of an (S, m) array of action values, by ``hamiltonian_spectrum``'s rule."""
    if isinstance(hamiltonian, ActionPolynomial):
        if hamiltonian.m != model.m:
            raise DimensionMismatchError("Hamiltonian dimension differs from model")
        bad = hamiltonian.action_axes() & set(model.controlled)
        if bad:
            raise SplitViolationError(f"Hamiltonian depends on controlled action axes {sorted(bad)}")
        return np.array([hamiltonian.evaluate(row) for row in actions])
    dyn = list(model.dynamic)
    return np.array([float(hamiltonian(row[dyn])) for row in actions])


def hamiltonian_operator(
    model: TorusModel, hamiltonian: ActionPolynomial | Callable[[np.ndarray], float]
) -> OperatorMatrix:
    """Diagonal Hamiltonian; entries are independent of controlled indices."""
    return OperatorMatrix(model, np.diag(hamiltonian_spectrum(model, hamiltonian).astype(complex)))


def _shift_scatter(
    model: TorusModel, shifts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each mode shift ``n -> n + c_s`` of an (S, m) stack lands in the box.

    Returns ``(which, rows, cols)`` over the in-box entries, ordered by
    shift and then by mode: the shift index s, and the layout positions of
    n + c_s and of n.  The layout is linear in n, so n + c_s lies
    ``c_s . strides`` positions after n.
    """
    N = model.truncation
    shifts = np.asarray(shifts, dtype=np.int64).reshape(-1, model.m)
    inside = np.all(np.abs(mode_array(model) + shifts[:, None, :]) <= N, axis=2)
    which, cols = np.nonzero(inside)
    strides = model.axis_size ** np.arange(model.m - 1, -1, -1)
    return which, cols + (shifts @ strides)[which], cols


def _affine_entries(
    model: TorusModel, observable: AffineObservable
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, values)`` of the quantized observable, one per in-box element.

    The element formula above, placed by one ``_shift_scatter`` over the
    nonzero shifts; each (row, col) pair occurs at most once.
    """
    if observable.m != model.m:
        raise DimensionMismatchError("observable dimension differs from model")
    C = observable.bandwidth
    modes = mode_array(model)
    offsets = np.asarray(model.offsets)
    parts = observable.stacked(C)
    nonzero = np.argwhere(parts.any(axis=0))
    shifts = nonzero - C
    which, rows, cols = _shift_scatter(model, shifts)
    *actions, B = parts[(slice(None), *nonzero.T)][:, which]
    # axes in turn, then B: the summation order of a per-shift build, so the
    # elements stay bit-identical to it
    values = np.zeros(rows.size, dtype=complex)
    for k, A in enumerate(actions):
        values += A * (modes[cols, k] + 0.5 * shifts[which, k] - offsets[k])
    values += B
    return rows, cols, values


def _require_fits(model: TorusModel, *observables: AffineObservable) -> None:
    if (C := max(observable.bandwidth for observable in observables)) > model.truncation:
        raise BandwidthError(f"field bandwidth {C} exceeds truncation {model.truncation}")


def quantize_affine(model: TorusModel, observable: AffineObservable) -> OperatorMatrix:
    """Matrix of the quantized affine observable via the element formula above."""
    _require_fits(model, observable)
    rows, cols, values = _affine_entries(model, observable)
    matrix = np.zeros((model.size, model.size), dtype=complex)
    matrix[rows, cols] = values
    return OperatorMatrix(model, matrix)


@dataclass(frozen=True)
class CompiledConnection:
    """A connection as one term K per (axis k, Fourier shift c).

    Term K has the weight

        w_K(sigma, v) = sum_{beta, e} table[K, beta, e] v_beta sigma^e,

    with ``sigma^e`` the monomial of ``exponents[e]``, so that
    ``L_k(sigma, phi) . v = sum_{K: axes[K] = k} w_K exp(i c_K . phi)``.
    No model or controlled/dynamic split is assumed.

    ``drift`` and ``flow`` evaluate one weight row for the RK4 stages: plain
    loops over ``terms``, which holds each term's axis and the nonzero
    ``(axis, c_K[axis])`` components of its shift as Python numbers.  On the
    few terms of a connection numpy's per-call overhead would cost more than
    the arithmetic.  ``coupling`` takes whole stacks of rows and stays an
    array expression; ``by_axis`` is stored as float so that its ``@`` does
    not cast it per call.
    """

    axes: np.ndarray  # (K,) torus axis of each term
    shifts: np.ndarray  # (K, m) Fourier shift of each term
    table: np.ndarray  # (K, d, E) sigma-polynomial coefficients
    exponents: np.ndarray  # (E, d) monomial exponents
    by_axis: np.ndarray  # (K, m) float one-hot of each term's axis
    terms: tuple  # (axis, ((axis, shift component), ...)) of each term, Python numbers

    def weights(self, sigmas: np.ndarray, velocities: np.ndarray) -> np.ndarray:
        """Term weights at S parameter points, shape (S, K).

        ``sigmas`` and ``velocities`` are (S, d) arrays of points and
        velocities.
        """
        sigmas = np.asarray(sigmas, dtype=float)
        velocities = np.asarray(velocities, dtype=float)
        d = self.table.shape[1]
        if sigmas.ndim != 2 or sigmas.shape[1] != d or velocities.shape != sigmas.shape:
            raise DimensionMismatchError(
                f"parameter points {sigmas.shape} and velocities {velocities.shape}, "
                f"expected (S, {d}) each"
            )
        monomials = np.prod(sigmas[:, None, :] ** self.exponents[None, :, :], axis=2)
        return np.einsum("kbe,sb,se->sk", self.table, velocities, monomials)

    def along(self, curve, times, segment=None) -> np.ndarray:
        """Term weights at the given times of ``curve`` (on ``segment``), shape (len(times), K)."""
        return self.weights(*curve.sample(times, segment))

    def drift(self, weights: Sequence[complex], phi: Sequence[float]) -> list[float]:
        """``L_k(sigma, phi) . v`` for every axis k, at one weight row."""
        drift = [0.0] * len(phi)
        for w, (axis, components) in zip(weights, self.terms):
            angle = 0.0
            for a, c in components:
                angle += phi[a] * c
            drift[axis] += (w * cmath.exp(1j * angle)).real
        return drift

    def coupling(self, weights: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """``G[a, k] = d_a L_k(sigma, phi) . v``, (m, m) at one weight row and angle.

        An (S, K) weight stack with (S, m) angles gives the (S, m, m) stack.
        """
        waves = 1j * (weights * np.exp(1j * (phi @ self.shifts.T)))
        return np.swapaxes((waves[..., None] * self.shifts).real, -1, -2) @ self.by_axis

    def flow(
        self, weights: Sequence[complex], phi: Sequence[float], actions: Sequence[float]
    ) -> tuple[list[float], list[float]]:
        """The action rate ``-G @ actions`` and the drift, from one wave per term.

        ``Re(i z) = -Im z``, so ``-G[a, k] I_k`` sums ``Im(wave_K) c_K[a] I_k``
        over the terms K of axis k.
        """
        rate = [0.0] * len(phi)
        drift = [0.0] * len(phi)
        for w, (axis, components) in zip(weights, self.terms):
            angle = 0.0
            for a, c in components:
                angle += phi[a] * c
            wave = w * cmath.exp(1j * angle)
            drift[axis] += wave.real
            pull = wave.imag * actions[axis]
            for a, c in components:
                rate[a] += c * pull
        return rate, drift


def compile_connection(connection: ControlConnection) -> CompiledConnection:
    """Compile ``connection`` into terms and a coefficient table."""
    components = connection.components
    terms = sorted({(c, axis) for (axis, _), fourier in components.items() for c in fourier})
    exponents = sorted({e for f in components.values() for p in f.values() for e in p.coefficients})
    d = connection.parameter_dim
    table = np.zeros((len(terms), d, len(exponents)), dtype=complex)
    for (axis, beta), fourier in components.items():
        for c, poly in fourier.items():
            for e, coef in poly.coefficients.items():
                table[terms.index((c, axis)), beta, exponents.index(e)] = coef
    axes = np.array([axis for _, axis in terms], dtype=np.int64)
    return CompiledConnection(
        axes,
        np.array([c for c, _ in terms], dtype=np.int64).reshape(len(terms), connection.m),
        table,
        np.array(exponents, dtype=np.int64).reshape(len(exponents), d),
        (axes[:, None] == np.arange(connection.m)).astype(float),
        tuple((axis, tuple((a, float(x)) for a, x in enumerate(c) if x)) for c, axis in terms),
    )


@dataclass(frozen=True)
class ShiftBasis:
    """One shift block per compiled term on a mode box, in-box entries only.

    ``support`` holds their flat positions in the (size, size) matrix and
    ``basis[K]`` the values of term K; terms share positions only if they
    share a shift.
    """

    size: int
    support: np.ndarray  # (P,) flat matrix positions
    basis: np.ndarray  # (K, P) element values

    def generators(self, weights: np.ndarray) -> np.ndarray:
        """Dense generators for an (S, K) stack of term weights, shape (S, size, size)."""
        weights = np.asarray(weights)
        values = np.zeros((len(weights), self.basis.shape[1]), dtype=complex)
        # one term at a time, so each row is summed in the same order
        # whatever the stack size (a BLAS product rounds by row count)
        for w, block in zip(weights.T, self.basis):
            values += w[:, None] * block
        flat = np.zeros((len(weights), self.size * self.size), dtype=complex)
        flat[:, self.support] = values
        return flat.reshape(-1, self.size, self.size)

    def term_norms(self) -> np.ndarray:
        """The 1-norm of each term's block, shape (K,).

        A block places one shift, so it has at most one entry per row and
        per column: its 1-norm, and that of its transpose, is its largest
        entry.
        """
        return np.max(np.abs(self.basis), axis=1, initial=0.0)


def shift_basis(
    model: TorusModel,
    compiled: CompiledConnection,
    element: Callable[[np.ndarray, int, np.ndarray], np.ndarray],
) -> ShiftBasis:
    """Block K holds ``element(n, axes[K], shifts[K])`` at ``(n + c_K, n)``.

    ``n`` lists, as rows, the modes whose target ``n + c_K`` is in the box.
    """
    if compiled.shifts.shape[1] != model.m:
        raise DimensionMismatchError("connection dimension differs from model")
    unique = list(dict.fromkeys(map(tuple, compiled.shifts)))
    which, rows, cols = _shift_scatter(model, unique)
    modes = mode_array(model)
    basis = np.zeros((len(compiled.axes), rows.size))
    for K, (axis, c) in enumerate(zip(compiled.axes, compiled.shifts)):
        block = which == unique.index(tuple(c))
        basis[K, block] = element(modes[cols[block]], int(axis), c)
    return ShiftBasis(model.size, rows * model.size + cols, basis)


def quantized_basis(model: TorusModel, compiled: CompiledConnection) -> ShiftBasis:
    """Shift basis of the quantized velocity pairing on ``model``.

    Block K holds ``n_k + c_k/2 - offset_k`` at ``(n + c, n)``, so at any
    (sigma, v) a row of ``generators(weights)`` equals
    ``quantize_affine(model, connection.as_observable(sigma, v))`` up to
    rounding.  The connection must live on the model's own torus, as a
    restricted connection on the controlled submodel does.
    """
    N = model.truncation
    bandwidth = int(np.max(np.abs(compiled.shifts), initial=0))
    if bandwidth > N:
        raise BandwidthError(f"connection bandwidth {bandwidth} exceeds truncation {N}")
    offsets = np.asarray(model.offsets)
    return shift_basis(model, compiled, lambda n, k, c: n[:, k] + 0.5 * c[k] - offsets[k])


# theta_8 and theta_16: at 1-norm <= theta_m the backward error of the degree-m
# truncated Taylor series is below the unit roundoff in double precision
# (Al-Mohy and Higham, "Computing the action of the matrix exponential", SIAM
# J. Sci. Comput. 33 (2011), Table 3.1).
_THETA8 = 5.00e-2
_THETA16 = 7.81e-1

# x1 .. x7 and y2 of the degree-8 Taylor polynomial in three products (Bader,
# Blanes and Casas, "Computing the matrix exponential with an optimized Taylor
# polynomial approximation", Mathematics 7 (2019) 1174):
#   A4 = A2 (x1 A + x2 A2),  A8 = (x3 A2 + A4) (x4 I + x5 A + x6 A2 + x7 A4),
#   T8 = I + A + y2 A2 + A8 = sum_{k <= 8} A^k / k!,
# with r = sqrt(177), x3 = 2/3, x1 = x3 (1 + r) / 88, x2 = x3 (1 + r) / 352,
# x4 = (29 r - 271) / (315 x3), x5 = 11 (r - 1) / (1260 x3),
# x6 = 11 (r - 9) / (5040 x3), x7 = (89 - r) / (5040 x3^2), y2 = (857 - 58 r) / 630,
# each rounded once from the exact value.
_TAYLOR8 = (
    0.1083646567852278, 0.02709116419630695, 0.6666666666666666, 0.5467614579707241,
    0.16112557339541758, 0.014090917158378208, 0.033792797010870505, 0.13549236135285064,
)

# 1 / k! for k = 0 .. 16, the coefficients of the degree-16 Taylor series.
_TAYLOR16 = 1.0 / np.cumprod([1.0, *range(1, 17)])

# Bytes of generators per exp_stack call in the ordered products: small enough
# that memory does not grow with the step count, large enough that the batched
# matrix products pay their Python overhead once per chunk, not once per step.
STACK_BYTES = 1 << 17


def step_chunks(steps: int, n: int, itemsize: int = 16) -> list[slice]:
    """Consecutive slices of ``range(steps)``, each of at most STACK_BYTES of n x n matrices."""
    size = max(1, STACK_BYTES // max(1, itemsize * n * n))
    return [slice(lo, min(lo + size, steps)) for lo in range(0, steps, size)]


def exp_workspace(count: int, n: int, dtype=complex) -> np.ndarray:
    """Scratch of ``exp_stack`` for stacks of at most ``count`` n x n matrices of ``dtype``."""
    return np.empty((5, count, n, n), dtype=dtype)


def exp_stack(a: np.ndarray, bound: float, work: np.ndarray | None = None) -> np.ndarray:
    """Matrix exponential of each matrix of an (S, n, n) stack.

    ``bound`` is an upper bound on the largest 1-norm in the stack, and it
    alone picks the method; the callers read it from their term weights.
    Up to theta_8 the degree-8 Taylor polynomial is evaluated in three
    batched products (``_TAYLOR8``), its linear combinations of A, A^2 and
    A^4 as one real matrix product over the stacked powers.  Above, it is
    scaling and squaring: the stack is scaled by 2**-s until the bound is at
    most theta_16, the degree-16 series is evaluated by Paterson-Stockmeyer
    with batched products, and the result is squared s times.  One method
    serves the whole stack.  A non-finite bound gives an all-NaN result.

    ``work`` is an ``exp_workspace`` of the result's dtype for at least S
    matrices.  Callers that exponentiate chunk after chunk pass one for all
    of them, so that no chunk allocates its powers.  The result may then be
    ``work[0, :S]``, valid until the next call, and ``work[1:]`` is free
    scratch until then.
    """
    a = np.asarray(a)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise DimensionMismatchError(f"expected an (S, n, n) stack, got shape {a.shape}")
    dtype = np.result_type(a, float)
    if not a.size:
        return np.array(a, dtype=dtype)
    if not np.isfinite(bound):
        return np.full(a.shape, np.nan, dtype=dtype)
    if work is None:
        work = exp_workspace(*a.shape[:2], dtype)
    if bound > _THETA8:
        return _paterson_stockmeyer(a.astype(dtype, copy=False), bound, work[:, : len(a)])
    return _taylor8(a, work[:, : len(a)])


def _taylor8(a: np.ndarray, work: np.ndarray) -> np.ndarray:
    """T8(A) by ``_TAYLOR8`` into ``work[0]``, with ``work`` shaped (5, S, n, n)."""
    x1, x2, x3, x4, x5, x6, x7, y2 = _TAYLOR8
    # work[2:] holds A, A^2 and A^4, then A^8 in the place of A^4; the
    # combinations of the three go to work[0] and work[1]
    powers = work[2:]
    A, A2, A4 = powers
    A[...] = a
    np.matmul(A, A, out=A2)
    np.matmul([[x1, x2]], _real_rows(powers[:2]), out=_real_rows(work[:1]))
    np.matmul(A2, work[0], out=A4)
    np.matmul([[0.0, x3, 1.0], [x5, x6, x7]], _real_rows(powers), out=_real_rows(work[:2]))
    _add_identity(work[1], x4)
    np.matmul(work[0], work[1], out=A4)
    np.matmul([[1.0, y2, 1.0]], _real_rows(powers), out=_real_rows(work[:1]))
    _add_identity(work[0], 1.0)
    return work[0]


def _real_rows(stacks: np.ndarray) -> np.ndarray:
    """A (k, S, n, n) array of stacks as k rows of real numbers, a view of the same memory.

    The stacks are leading slices of a workspace's slabs, each contiguous,
    so the reshape is a view.
    """
    return stacks.reshape(len(stacks), -1).view(np.float64)


def _paterson_stockmeyer(a: np.ndarray, bound: float, work: np.ndarray) -> np.ndarray:
    """Scaling and squaring at degree 16, for ``exp_stack`` above theta_8.

    The scaled stack and the powers A^2 .. A^4 go to ``work``, so that only
    the Horner sums allocate.
    """
    s = 0
    if bound > _THETA16:
        s = int(np.ceil(np.log2(bound / _THETA16)))
        s += bound * 2.0**-s > _THETA16  # in case log2 rounded down
        a = np.multiply(a, 2.0**-s, out=work[4])
    # Paterson-Stockmeyer: p(A) = sum_{j<4} B_j (A^4)^j + c_16 (A^4)^4 with
    # B_j = sum_{i<4} c_{4j+i} A^i, by Horner in A^4: P_4 = c_16 I, then
    # P_j = P_{j+1} A^4 + B_j down to P_0 = p(A).  powers[i - 1] holds A^i.
    powers = [a]
    for i in range(3):
        powers.append(np.matmul(powers[-1], a, out=work[i]))
    result = _TAYLOR16[16] * powers[-1]
    for j in range(3, -1, -1):
        for i in range(1, 4):
            result += _TAYLOR16[4 * j + i] * powers[i - 1]
        _add_identity(result, _TAYLOR16[4 * j])
        if j:
            result = result @ powers[-1]
    for _ in range(s):
        result = result @ result
    return result


def _add_identity(stack: np.ndarray, c: float) -> None:
    """Add c to the diagonal of every matrix of the stack, in place."""
    diagonal = np.einsum("sii->si", stack)
    diagonal += c


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> np.ndarray:
    if a.model != b.model:
        raise DimensionMismatchError("operators built over different models")
    return a.matrix @ b.matrix - b.matrix @ a.matrix


def dirac_residual(model: TorusModel, f: AffineObservable, g: AffineObservable) -> float:
    """Max-norm of [f_hat, g_hat] + i (bracket quantized) on interior modes.

    The commutator of operators with bandwidths C_f, C_g is exact on modes
    deeper than C_f + C_g from the boundary, so rows and columns are
    restricted there (capped at the truncation).  The three operators are
    stored by diagonals, straight from their entries (``_diagonals``), and
    only the interior rows of the left factors and interior columns of the
    right factors are multiplied.  A diagonal a of A and a diagonal b of B
    give A B the entries ``A[c + off_b + off_a, c + off_b] B[c + off_b, c]``
    at ``(c + off_a + off_b, c)``: one elementwise product over the
    interior columns c per pair, summed per result diagonal.  An interior
    column lies C_f + C_g deep, or N deep, and both bound C_f and C_g, so
    ``c + off_b`` stays in the box.  f and g must fit the box; their bracket need not.
    """
    _require_fits(model, f, g)
    (f_off, f_diag), (g_off, g_diag) = _diagonals(model, f), _diagonals(model, g)
    b_off, b_diag = _diagonals(model, poisson_bracket(f, g))
    keep = interior_mask(model, min(f.bandwidth + g.bandwidth, model.truncation))
    inner = np.flatnonzero(keep)
    # the result diagonals: each off_f + off_g, and the bracket's
    offsets = np.unique(np.concatenate([(f_off[:, None] + g_off).ravel(), b_off]))
    residual = np.zeros((offsets.size, inner.size), dtype=complex)
    # one diagonal t of g at a time: F G and G F both put its pairs with every
    # diagonal of f on the diagonals off_f + off_t, which are distinct
    targets = np.searchsorted(offsets, g_off[:, None] + f_off)
    f_inner, f_columns = f_diag[:, inner], inner + f_off[:, None]
    for t, off_t in enumerate(g_off.tolist()):
        residual[targets[t]] += f_diag[:, inner + off_t] * g_diag[t, inner] - g_diag[t, f_columns] * f_inner
    residual[np.searchsorted(offsets, b_off)] += 1j * b_diag[:, inner]
    rows = offsets[:, None] + inner
    inside = (rows >= 0) & (rows < model.size)
    inside[inside] = keep[rows[inside]]
    return float(np.max(np.abs(residual[inside]), initial=0.0))


def _diagonals(model: TorusModel, observable: AffineObservable) -> tuple[np.ndarray, np.ndarray]:
    """The quantized observable by diagonals: ``(offsets, table)``.

    ``table[s, j]`` is the entry at ``(j + offsets[s], j)``, zero where that
    row leaves the box.  A (row, col) pair fixes the diagonal, so each entry
    of ``_affine_entries`` has one place.
    """
    rows, cols, values = _affine_entries(model, observable)
    offsets, which = np.unique(rows - cols, return_inverse=True)
    table = np.zeros((offsets.size, model.size), dtype=complex)
    table[which, cols] = values
    return offsets, table


def lambda_shift_equivalence(
    model: TorusModel,
    hamiltonian: ActionPolynomial | Callable[[np.ndarray], float],
    shift: Sequence[float],
) -> float:
    """Largest deviation between Hamiltonian spectra for offsets and offsets + shift.

    For an integer shift the representations are gauge-equivalent: the
    spectra match mode-for-mode after re-indexing ``n -> n + shift`` on the
    overlap of the two boxes, and a shift beyond 2N, which leaves no
    overlap, is refused.  For a non-integer shift no re-indexing exists;
    the sorted spectra over the full boxes are compared instead and
    genuinely differ.
    """
    shift = np.asarray(shift, dtype=float)
    if shift.shape != (model.m,):
        raise DimensionMismatchError(f"shift shape {shift.shape}, expected ({model.m},)")
    integer = bool(np.all(shift == np.round(shift)))
    if integer and np.any(np.abs(shift) > 2 * model.truncation):
        raise ValueError(
            f"integer shift {tuple(shift.tolist())} exceeds 2N={2 * model.truncation}: "
            "the shifted box does not overlap the box"
        )
    shifted_model = TorusModel(
        model.m,
        model.controlled,
        tuple(np.asarray(model.offsets) + shift),
        model.truncation,
    )
    base = hamiltonian_spectrum(model, hamiltonian)
    moved = hamiltonian_spectrum(shifted_model, hamiltonian)
    if integer:
        _, rows, cols = _shift_scatter(model, [shift.astype(int)])
        return float(np.max(np.abs(base[cols] - moved[rows])))
    return float(np.max(np.abs(np.sort(base) - np.sort(moved))))


def halfform_equivalence(
    model: TorusModel,
    antiperiodic_axes: Iterable[int],
    hamiltonian: ActionPolynomial | Callable[[np.ndarray], float] | None = None,
) -> float:
    """Antiperiodic boundary behavior versus a half-integer offset shift.

    On each antiperiodic axis j the action spectrum is ``n_j - offset_j +
    1/2`` (half-integer mode labels); that must coincide mode-for-mode with
    the periodic representation at ``offset_j - 1/2``.  If a Hamiltonian is
    given its spectra are compared the same way.  Returns the largest
    deviation.
    """
    axes = sorted(set(int(a) for a in antiperiodic_axes))
    for a in axes:
        if not 0 <= a < model.m:
            raise DimensionMismatchError(f"axis {a} out of range")
    half = np.array([0.5 if k in axes else 0.0 for k in range(model.m)])
    shifted_model = TorusModel(
        model.m,
        model.controlled,
        tuple(np.asarray(model.offsets) - half),
        model.truncation,
    )
    modes = mode_array(model)
    dev = 0.0
    for k in range(model.m):
        anti = modes[:, k] - model.offsets[k] + (0.5 if k in axes else 0.0)
        periodic = modes[:, k] - shifted_model.offsets[k]
        dev = max(dev, float(np.max(np.abs(anti - periodic))))
    if hamiltonian is not None:
        anti_vals = _spectrum(model, hamiltonian, modes - np.asarray(model.offsets) + half)
        periodic_vals = hamiltonian_spectrum(shifted_model, hamiltonian)
        dev = max(dev, float(np.max(np.abs(anti_vals - periodic_vals))))
    return dev
