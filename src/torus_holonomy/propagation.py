"""Propagators of the controlled quantum system.

Under the controlled/dynamic split the full evolution factorizes: a
diagonal dynamic phase (applied exactly, no time stepping) times a control
propagator

    U2 = Texp[ -i int Delta_hat(t) dt ],

built as an ordered product of per-step exponentials of the midpoint
generator.  Delta_hat is the quantization of the connection's velocity
pairing; it acts on the controlled mode factor only, so U2 is computed
natively on the controlled sublattice (size (2N+1)^l) and lifted to the
full lattice by a tensor identity when asked for.  That makes commutation
with the dynamic Hamiltonian and preservation of its eigenspace blocks
exact by construction.  Unitarity defects are measured and reported, never
repaired.

The ordered product compiles the connection once per call into a table
of sigma-polynomial coefficients (``operators.compile_connection``) and
one shift-basis matrix per (axis, Fourier shift) on the controlled box
(``operators.quantized_basis``).  The weights of all midpoints are
evaluated as one small array and scaled by -i dt there.  The steps are
then walked in chunks of at most ``operators.STACK_BYTES`` of generators,
so memory does not grow with the step count: each chunk's generators are
contracted from its weight rows as one stack (``ShiftBasis.generators``)
and exponentiated by one ``operators.exp_stack`` call, whose method
follows a 1-norm bound read from the weights.  The chunk's exponentials
are multiplied pairwise, later steps on the left, in ceil(log2 S) batched
products (``_pairwise_product``), and the chunk's product is
left-multiplied onto the product once.  All chunks of a call share one
``operators.exp_workspace``.
``delta_generator`` stays on the independent
``quantize_affine(as_observable(...))`` assembly.  The reference route of
``evolve_full`` uses that the pairing is linear in the velocity and
polynomial in sigma: it quantizes one field per (component, sigma-monomial)
with ``quantize_affine`` once per call, sums them with the step weights
``v_beta sigma^e``, and exponentiates each chunk of steps with one call of
``expm``, the diagonal [9/9] Padé approximant with scaling and squaring
(Higham 2005) in numpy.  It reads neither the compiled table nor its
shift basis, so the reported route deviation also cross-checks the
compiled kernel, the Taylor series of the stacked exponentials and the
pairwise product.

``evolve_full`` computes both of its routes per dynamic label, as
(2N+1)^(m-l) blocks of size (2N+1)^l.  The factorized block of label j is
``exp(-i E_j T) U2``.  The reference steps the full generator
H_hat + Delta_hat(t), but it never forms that generator on the full
lattice: no entry of it couples two different dynamic labels, and on label
j it is ``E_j I + D(t)`` with the same controlled block D(t) for every j.
So each reference step is exactly ``exp(-i dt E_j) exp(-i dt D)``: one
(2N+1)^l exponential per step, shared by all labels and computed in the
chunk's stack, and a phase angle ``E_j * (sum of dt)`` per label, applied
once at the end.  That the dynamic phase may leave the exponent is checked
apart from this route: by ``verify``'s ``perturbation_commutes`` and by the
tests' dense oracle, which exponentiates ``diag(H) + Delta_hat`` on the
full lattice.  The unitarity defects and the route deviation are measured on the
(dsize, csize, csize) stacks (``unitarity_defect`` takes one matrix or a
stack), and the report keeps both stacks: only the factorized one is
lifted to the full lattice, for the ``evolution.json`` payload.  No
exponential and no defect in this module sees a matrix larger than (2N+1)^l.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import ParameterCurve, reparameterize, step_intervals
from .errors import DimensionMismatchError, OpenCurveError, SplitViolationError
from .fields import AffineObservable, ControlConnection, TorusFourierField
from .classical import compile_controlled, controlled_connection
from .lattice import TorusModel, controlled_submodel, sublattice_index
from .operators import (
    OperatorMatrix,
    _add_identity,
    exp_stack,
    exp_workspace,
    hamiltonian_spectrum,
    quantize_affine,
    quantized_basis,
    step_chunks,
)


@dataclass(frozen=True)
class PropagatorReport:
    """An ordered-product propagator with its step count and unitarity defect."""

    operator: OperatorMatrix
    steps: int
    unitarity_defect: float


# Coefficients b_0 .. b_9 of the diagonal [9/9] Padé approximant
# p_9(x) / p_9(-x) to exp(x), p_9(x) = sum_j b_j x^j, and theta_9, the largest
# 1-norm at which its backward error stays below the unit roundoff (Higham,
# "The scaling and squaring method for the matrix exponential revisited",
# SIAM J. Matrix Anal. Appl. 26 (2005), Table 2.3).
_THETA9 = 2.097847961257068
_PADE9 = (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0, 2162160.0,
          110880.0, 3960.0, 90.0, 1.0)


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of each matrix of an (S, n, n) stack.

    Scaling and squaring with the diagonal [9/9] Padé approximant (Higham
    2005): above theta_9 the stack is scaled by 2**-s until its largest
    1-norm is at most theta_9, and the result is squared s times.  One s
    serves the whole stack, as in ``exp_stack``, so a chunk of steps costs
    a few batched products and one batched LU solve.  With U and V the odd
    and even parts of the numerator, the approximant ``(V - U)^-1 (V + U)``
    is formed as ``I + 2 (V - U)^-1 U``: with the identity kept out of the
    solve, a step near I stays unitary to rounding (2e-16 per 17x17 step of
    the bench evolve config, against 7e-16 for the plain quotient).  A
    rational function, so it shares no algorithm with the Taylor series of
    ``exp_stack``.  A non-finite entry anywhere gives an all-NaN result of
    the stack's shape.
    """
    stack = np.asarray(a)
    if stack.ndim != 3 or stack.shape[-1] != stack.shape[-2]:
        raise DimensionMismatchError(f"expected an (S, n, n) stack, got shape {stack.shape}")
    stack = np.asarray(stack, dtype=np.result_type(stack, float))
    if not stack.size:
        return stack.copy()
    norm = float(np.max(np.abs(stack).sum(axis=1)))
    if not np.isfinite(norm):
        return np.full_like(stack, np.nan)
    s = 0
    if norm > _THETA9:
        s = int(np.ceil(np.log2(norm / _THETA9)))
        s += norm * 2.0**-s > _THETA9  # in case log2 rounded down
        stack = stack * 2.0**-s

    def series(coefficients, powers):
        """``c_0 I + c_1 A^2 + c_2 A^4 + ...`` from the even powers."""
        out = coefficients[1] * powers[0]
        for c, power in zip(coefficients[2:], powers[1:]):
            out += c * power
        _add_identity(out, coefficients[0])
        return out

    # U = A * (odd coefficients over I, A^2, .., A^8), V = even coefficients over them
    powers = [stack @ stack]
    for _ in range(3):
        powers.append(powers[-1] @ powers[0])
    u = stack @ series(_PADE9[1::2], powers)
    result = 2.0 * np.linalg.solve(series(_PADE9[0::2], powers) - u, u)
    _add_identity(result, 1.0)
    for _ in range(s):
        result = result @ result
    return result


def unitarity_defect(matrix: np.ndarray) -> float:
    """Largest entry of ``U^dagger U - I`` over one (n, n) matrix or an (S, n, n) stack."""
    gram = np.swapaxes(matrix, -1, -2).conj() @ matrix
    return float(np.max(np.abs(gram - np.eye(matrix.shape[-1]))))


def delta_generator(
    model: TorusModel,
    connection: ControlConnection,
    sigma: Sequence[float],
    velocity: Sequence[float],
) -> OperatorMatrix:
    """Full-lattice generator of the control term at one parameter point.

    Equal to the quantization of the connection's velocity pairing:
    Hermitian, and the identity on the dynamic mode factor.  It passes the
    split's gate (``controlled_connection``) but quantizes on the full
    lattice, as the independent reference of ``perturbation_commutes``.
    """
    controlled_connection(model, connection)
    return quantize_affine(model, connection.as_observable(sigma, velocity))


def _lift_controlled(model: TorusModel, block: np.ndarray) -> np.ndarray:
    """Place controlled-sublattice matrices on the full lattice, one per dynamic label.

    ``block`` is either one (csize, csize) matrix, used at every dynamic
    label (a tensor product with the dynamic identity), or a
    (dsize, csize, csize) stack holding the matrix of each dynamic label.
    Entries that couple two different dynamic labels are zero.
    """
    ci, csize = sublattice_index(model, model.controlled)
    di, dsize = sublattice_index(model, model.dynamic)
    if block.shape not in ((csize, csize), (dsize, csize, csize)):
        raise DimensionMismatchError("block size does not match the controlled sublattice")
    # where[j, c]: the full-lattice position of controlled index c at dynamic label j
    where = np.empty((dsize, csize), dtype=np.int64)
    where[di, ci] = np.arange(model.size)
    lifted = np.zeros((model.size, model.size), dtype=block.dtype)
    # + 0.0 turns the blocks' signed zeros into 0.0: the lift holds no -0.0
    lifted[where[:, :, None], where[:, None, :]] = block + 0.0
    return lifted


def _control_block_product(
    model: TorusModel, connection: ControlConnection, curve: ParameterCurve, steps: int
) -> tuple[np.ndarray, TorusModel]:
    """Ordered product of midpoint-generator exponentials on the controlled box.

    The step scale -i dt multiplies the term weights, not the dense
    generators.  A step's 1-norm is at most ``sum_K |w_K| ||B_K||_1`` over
    its scaled weights w and the shift blocks B_K (triangle inequality), so
    each chunk's ``exp_stack`` call takes its method from the largest such
    bound and no dense norm is formed.  A chunk's exponentials are
    multiplied pairwise (``_pairwise_product``) and then once onto the
    product; all chunks share one ``exp_workspace``.
    """
    sub_model = controlled_submodel(model)
    compiled = compile_controlled(model, connection)
    basis = quantized_basis(sub_model, compiled)
    n = sub_model.size
    times = step_intervals(curve, steps)
    weights = compiled.along(curve, 0.5 * (times[:-1] + times[1:]))
    weights *= -1j * np.diff(times)[:, None]
    bounds = np.abs(weights) @ basis.term_norms()
    chunks = step_chunks(steps, n)
    work = exp_workspace(chunks[0].stop, n)
    U = np.eye(n, dtype=complex)
    for chunk in chunks:
        stack = exp_stack(basis.generators(weights[chunk]), np.max(bounds[chunk]), work)
        U = _pairwise_product(stack, work[1:3]) @ U
    return U, sub_model


def _pairwise_product(stack: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``stack[-1] @ ... @ stack[1] @ stack[0]`` in ceil(log2 S) batched products.

    Each round multiplies neighbours, the later one on the left, and carries
    an odd last matrix, the latest, to the end of the next round.  Rounds
    alternate between the two (>= ceil(S / 2), n, n) stacks of ``scratch``,
    which must not overlap ``stack``.
    """
    for depth in itertools.count():
        count = len(stack)
        if count == 1:
            return stack[0]
        pairs = count // 2
        out = scratch[depth % 2, : count - pairs]
        np.matmul(stack[1 : 2 * pairs : 2], stack[0 : 2 * pairs : 2], out=out[:pairs])
        if count % 2:
            out[pairs] = stack[-1]
        stack = out


def evolve_control(
    model: TorusModel, connection: ControlConnection, curve: ParameterCurve, steps: int
) -> PropagatorReport:
    """Control propagator U2 on the full lattice (computed on the block, lifted).

    The lift copies the block onto every dynamic label and puts zeros
    between labels, so the block's unitarity defect is the lifted one.
    """
    block, _ = _control_block_product(model, connection, curve, steps)
    op = OperatorMatrix(model, _lift_controlled(model, block))
    return PropagatorReport(op, steps, unitarity_defect(block))


def holonomy(
    model: TorusModel, connection: ControlConnection, loop: ParameterCurve, steps: int
) -> PropagatorReport:
    """Control propagator of a closed loop, restricted to one eigenspace block.

    Because U2 tensor-factorizes, its action on the eigenspace spanned by
    the controlled modes at any fixed dynamic index is one and the same
    (2N+1)^l unitary; that block is returned on the controlled submodel.
    """
    if not loop.is_closed:
        raise OpenCurveError("holonomy requires a closed parameter loop")
    block, sub_model = _control_block_product(model, connection, loop, steps)
    op = OperatorMatrix(sub_model, block)
    return PropagatorReport(op, steps, unitarity_defect(block))


def _pairing_terms(
    model: TorusModel, connection: ControlConnection
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The quantized velocity pairing by linearity: ``sum_K v_beta sigma^e Q_K``.

    One term K per component (axis, beta) of ``connection`` and exponent e of
    its sigma-polynomials; Q_K is ``quantize_affine`` on ``model`` of the
    observable whose only part, on ``axis``, is the field of the component's
    e-th monomial coefficients.  Returns the Q_K as (K, n*n) rows, each
    term's parameter axis beta, shape (K,), and the (K, d) exponents.
    The connection stores exact mirrors, so each monomial's field is real
    as stored.
    """
    rows, betas, exponents = [], [], []
    for (axis, beta), fourier in sorted(connection.components.items()):
        for e in sorted({e for poly in fourier.values() for e in poly.coefficients}):
            monomial = {c: poly.coefficients.get(e, 0.0) for c, poly in fourier.items()}
            part = TorusFourierField(connection.m, monomial)
            observable = AffineObservable.from_parts(connection.m, {axis: part})
            rows.append(quantize_affine(model, observable).matrix.reshape(-1))
            betas.append(beta)
            exponents.append(e)
    K, d = len(rows), connection.parameter_dim
    return (
        np.array(rows, dtype=complex).reshape(K, model.size**2),
        np.array(betas, dtype=np.int64),
        np.array(exponents, dtype=np.int64).reshape(K, d),
    )


@dataclass(frozen=True)
class FactorizationReport:
    """Factorized route versus an independent reference, as (dsize, csize, csize) stacks."""

    model: TorusModel
    factorized: np.ndarray
    reference: np.ndarray
    steps: int
    factorized_unitarity_defect: float
    reference_unitarity_defect: float
    deviation: float

    @property
    def operator(self) -> OperatorMatrix:
        """The factorized route lifted to the full lattice (one lift per access)."""
        return OperatorMatrix(self.model, _lift_controlled(self.model, self.factorized))


def evolve_full(
    model: TorusModel,
    hamiltonian,
    connection: ControlConnection,
    curve: ParameterCurve,
    steps: int,
) -> FactorizationReport:
    """Full propagator two ways: exact-diagonal x ordered U2, and a reference.

    The reference is an ordered product of the *full* generator
    H_hat + Delta_hat(t) sampled as the endpoint average on each step: a
    deliberately different discretization, so the reported deviation is a
    genuine cross-check that shrinks under refinement (the generators
    commute under the split, so the routes agree in the limit).  A step
    reads both ends on its midpoint's segment (``step_segments``).  The
    generator is linear in the pairing's terms (``_pairing_terms``), so the
    endpoint average is taken on the term weights, and a chunk of steps
    (``step_chunks``) is one product of its weight rows with the quantized
    terms, exponentiated by one stacked ``expm`` call.

    Under the split no entry of either route couples two different dynamic
    labels: H_hat is diagonal and equal to E_j on every mode of label j,
    and Delta_hat is the controlled block D(t) tensored with the dynamic
    identity.  Both routes are therefore computed as (dsize, csize, csize)
    stacks, one (2N+1)^l block per dynamic label j.  The factorized block
    is ``exp(-i E_j T) U2`` with U2 from ``_control_block_product``.  On
    label j the reference's step generator is ``E_j I + D_avg``, whose
    exponential is exactly ``exp(-i dt E_j) exp(-i dt D_avg)``; so each
    step takes one exponential of the controlled block D_avg, shared by
    every label, into the product V, one step at a time in step order, and
    the reference block of label j is ``exp(-i E_j elapsed) V``.  The split
    is refused where each object's rule lives: the connection by
    ``controlled_connection``, a polynomial Hamiltonian on a controlled
    action by ``hamiltonian_spectrum``; a spectrum that is not constant on a
    dynamic label raises ``SplitViolationError`` here.  The unitarity defects and the route
    deviation are taken over the stacks; the off-label entries they leave
    out are exact zeros in both routes.
    Only the report's ``operator`` lifts, and only the factorized stack.
    """
    sub_conn = controlled_connection(model, connection)
    energies = hamiltonian_spectrum(model, hamiltonian)
    di, dsize = sublattice_index(model, model.dynamic)
    label_energy = np.empty(dsize)
    label_energy[di] = energies
    if not np.array_equal(label_energy[di], energies):
        raise SplitViolationError("the Hamiltonian is not constant on each dynamic label")

    u2, sub_model = _control_block_product(model, connection, curve, steps)
    factorized = np.exp(-1j * label_energy * curve.duration)[:, None, None] * u2

    n = sub_model.size
    basis, betas, exponents = _pairing_terms(sub_model, sub_conn)

    def weights(points: np.ndarray, velocities: np.ndarray) -> np.ndarray:
        """``v_beta sigma^e`` of every term at S samples, shape (S, K)."""
        return velocities[:, betas] * np.prod(points[:, None, :] ** exponents, axis=2)

    times = step_intervals(curve, steps)
    segments, starts = curve.step_segments(times)
    ends = weights(*curve.sample(times[1:], segments))
    begins = np.empty_like(ends)
    begins[1:] = ends[:-1]
    begins[starts] = weights(*curve.sample(times[starts], segments[starts]))
    dt = np.diff(times)
    scaled = (-1j * dt)[:, None] * (0.5 * (begins + ends))
    V = np.eye(n, dtype=complex)
    for chunk in step_chunks(len(dt), n):
        for step in expm((scaled[chunk] @ basis).reshape(-1, n, n)):
            V = step @ V
    # label j's phase angle is E_j times the summed steps: a product of
    # per-step phases lets the modulus drift, and a per-step sum of dt * E_j
    # rounds at the scale of the whole angle on every step
    elapsed = sum(dt.tolist())
    reference = np.exp(-1j * (label_energy * elapsed))[:, None, None] * V
    deviation = float(np.max(np.abs(factorized - reference)))
    return FactorizationReport(model, factorized, reference, steps, unitarity_defect(factorized),
                               unitarity_defect(reference), deviation)


def path_invariance_report(
    model: TorusModel,
    connection: ControlConnection,
    curve: ParameterCurve,
    reparameterizations,
    steps: int,
) -> float:
    """Max pairwise deviation of U2 across clock maps of the same path.

    ``reparameterizations`` holds ``(tau, tau_dot, duration)`` triples
    applied to ``curve``; each must be smooth, monotone and
    endpoint-preserving (validated on construction).  The base curve itself
    is always included.
    """
    variants = [curve] + [reparameterize(curve, *clock) for clock in reparameterizations]
    blocks = [_control_block_product(model, connection, c, steps)[0] for c in variants]
    worst = 0.0
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            worst = max(worst, float(np.max(np.abs(blocks[i] - blocks[j]))))
    return worst
