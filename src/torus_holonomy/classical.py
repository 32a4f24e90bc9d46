"""Classical dynamics: free flow, perturbed flow, and path-ordered transport.

The free system conserves actions and winds angles linearly; it is solved in
closed form.  The perturbed system couples actions and angles through the
control connection and the parameter velocity:

    dI_k/dt   = - sum_b d_k L_b_beta(sigma, phi) I_b  dsigma^beta/dt
    dphi^k/dt =   grad_k H(I) + L_k_beta(sigma, phi)  dsigma^beta/dt

and is integrated with fixed-step classical RK4 (deterministic, clean
convergence order).  Under the controlled/dynamic split the controlled
block decouples; its angle equation is equivalent to a countable linear
system for the mode values exp(i n . phi), solved here both directly and as
an ordered product of midpoint exponentials so the two routes can be
cross-checked.

All of these read the connection through ``operators.compile_connection``
and sample the path once per call (``CompiledConnection.along``): RK4 at
every grid time and stage midpoint, each step on the curve segment of its
midpoint; the mode transport's product reads its midpoints from that
table, and the action transport samples its own.  Each RK4 stage of
the perturbed flow evaluates the connection's waves once
(``CompiledConnection.flow``) for both the action rate and the drift, one
wave per mirror pair of the real connection's ``terms``; the
controlled-angle history reads the drift alone.  The RK4 steps work on lists
of Python floats: their states hold a few numbers, where numpy's per-call
overhead would cost more than the arithmetic.  The two ordered products walk
their steps in chunks of at most ``operators.STACK_BYTES`` of generators,
build a chunk's generators as one stack (the action transport's couplings
from one ``CompiledConnection.coupling`` call over the chunk's rows),
exponentiate it with one ``operators.exp_stack`` call, then apply the
exponentials one step at a time, in step order.  Both scale the weights
by the step, not the generators, and pass ``exp_stack`` a 1-norm bound
read from the weights.  The frozen component fields
(``ControlConnection.field``) stay independent as the tests' reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import ParameterCurve, step_intervals
from .errors import DimensionMismatchError
from .fields import ActionPolynomial, ControlConnection
from .lattice import ClassicalState, TorusModel, controlled_submodel, interior_mask, mode_array
from .operators import (
    CompiledConnection,
    ShiftBasis,
    compile_connection,
    exp_stack,
    exp_workspace,
    shift_basis,
    step_chunks,
)


@dataclass(frozen=True)
class Trajectory:
    """Sampled classical evolution; times are strictly increasing."""

    times: np.ndarray
    actions: np.ndarray
    angles: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        actions = np.asarray(self.actions, dtype=float)
        angles = np.asarray(self.angles, dtype=float)
        if np.any(np.diff(times) <= 0):
            raise ValueError("trajectory times must be strictly increasing")
        if actions.shape != angles.shape or actions.shape[0] != times.shape[0]:
            raise DimensionMismatchError("inconsistent trajectory arrays")
        for arr in (times, actions, angles):
            arr.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "angles", angles)

    def __len__(self) -> int:
        return self.times.shape[0]

    def state(self, i: int) -> ClassicalState:
        return ClassicalState(self.actions[i], self.angles[i])

    @property
    def final(self) -> ClassicalState:
        return self.state(len(self) - 1)


def evolve_free(hamiltonian: ActionPolynomial, state: ClassicalState, t: float) -> ClassicalState:
    """Closed-form free flow: actions constant, angles wind at grad H(I)."""
    if hamiltonian.m != state.m:
        raise DimensionMismatchError("Hamiltonian and state dimensions differ")
    omega = hamiltonian.gradient(state.actions)
    return ClassicalState(state.actions, state.angles + t * omega)


def _rk4_step(rhs, h: float, y: list, s0, sm, s1) -> list:
    """One RK4 step of size h on a list of floats.

    ``rhs(s, y)`` gets the stage data s0, sm (twice), s1 and returns a list.
    """
    half = 0.5 * h
    k1 = rhs(s0, y)
    k2 = rhs(sm, [a + half * b for a, b in zip(y, k1)])
    k3 = rhs(sm, [a + half * b for a, b in zip(y, k2)])
    k4 = rhs(s1, [a + h * b for a, b in zip(y, k3)])
    sixth = h / 6.0
    return [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


def _rk4_along(rhs, compiled: CompiledConnection, curve, times: np.ndarray, y0) -> tuple[np.ndarray, ...]:
    """Fixed-step RK4 over ``times``, each stage reading its row of one weight table.

    Each step reads the curve segment of its midpoint (``step_segments``), so
    a velocity jump at a joint costs no order.  The table, returned beside
    the states, holds the step ends (row i ends step i), the stage midpoints
    ``t0 + h/2`` and the starts of the steps that begin a segment; a row
    becomes Python numbers when its step runs, and each state is written to
    one preallocated (len(times), n) array.
    """
    h, n = np.diff(times), len(times) - 1
    segments, starts = curve.step_segments(times)
    grid = np.concatenate([times[1:], times[:-1] + 0.5 * h, times[starts]])
    w = compiled.along(curve, grid, np.concatenate([segments, segments, segments[starts]]))
    restart = dict(zip(starts.tolist(), range(2 * n, len(grid))))
    ys = np.empty((len(times), len(y0)))
    ys[0] = y0
    y = ys[0].tolist()
    for i, step in enumerate(h.tolist()):
        s0 = w[restart[i]].tolist() if i in restart else s1
        s1 = w[i].tolist()
        y = _rk4_step(rhs, step, y, s0, w[n + i].tolist(), s1)
        ys[i + 1] = y
    return ys, w


def evolve_perturbed(
    hamiltonian: ActionPolynomial,
    connection: ControlConnection,
    curve: ParameterCurve,
    state0: ClassicalState,
    steps: int,
) -> Trajectory:
    """Fixed-step RK4 trajectory of the perturbed system, steps+1 samples.

    The step grid is aligned with the curve's breakpoints.  No split
    assumption is made here; with a split-compliant connection the dynamic
    block reproduces the free flow to integrator accuracy.  A power of an
    action that overflows raises ``NonFiniteError``; other overflows leave
    non-finite samples.
    """
    m = hamiltonian.m
    if state0.m != m or connection.m != m:
        raise DimensionMismatchError("dimension mismatch between Hamiltonian, connection, state")
    compiled = compile_connection(connection)

    def rhs(w: list, y: list) -> list:
        actions, angles = y[:m], y[m:]
        rate, drift = compiled.flow(w, angles, actions)
        return rate + [g + v for g, v in zip(hamiltonian.gradient_list(actions), drift)]

    times = step_intervals(curve, steps)
    y0 = np.concatenate([state0.actions, state0.angles])
    ys, _ = _rk4_along(rhs, compiled, curve, times, y0)
    return Trajectory(times, ys[:, :m], ys[:, m:])


def split_residual(
    model: TorusModel, hamiltonian: ActionPolynomial, connection: ControlConnection
) -> int:
    """Count of structural violations of the controlled/dynamic split.

    Zero iff the Hamiltonian touches no controlled action and the connection
    lives entirely on controlled axes (component index and Fourier support),
    which is exactly when ``hamiltonian_spectrum`` and ``controlled_connection``
    accept them; those refuse by naming the first offender.
    """
    if hamiltonian.m != model.m or connection.m != model.m:
        raise DimensionMismatchError("model dimension mismatch")
    controlled = set(model.controlled)
    violations = 0
    for e in hamiltonian.terms:
        if any(e[a] > 0 for a in controlled):
            violations += 1
    for (axis, _), fourier in connection.components.items():
        if axis not in controlled:
            violations += 1
        for c in fourier:
            if any(x != 0 for k, x in enumerate(c) if k not in controlled):
                violations += 1
    return violations


def controlled_connection(model: TorusModel, connection: ControlConnection) -> ControlConnection:
    """The connection on the controlled sub-torus: the gate of the controlled/dynamic split.

    ``ControlConnection.restricted`` refuses a component on a dynamic axis or
    a Fourier shift that touches one, naming it (``SplitViolationError``);
    ``split_residual`` counts the same violations.
    """
    if connection.m != model.m:
        raise DimensionMismatchError(f"connection has m={connection.m}, model has m={model.m}")
    return connection.restricted(model.controlled)


@dataclass(frozen=True)
class ModeTransport:
    """Two solutions of the controlled-angle transport on the mode box.

    ``direct`` exponentiates the integrated angle; ``ordered`` is the
    ordered-product solution of the equivalent countable linear system,
    truncated to the box.  Truncation contaminates the ordered route from
    the boundary inward (roughly factorially damped with depth), so the
    reported discrepancy is taken over modes at least ``guard`` sites from
    the boundary (``classical_mode_transport``'s ``guard``).  ``phi_history``
    holds the controlled angles at half-step resolution (2*steps+1 samples)
    for reuse by the action transport.
    """

    modes: np.ndarray
    direct: np.ndarray
    ordered: np.ndarray
    discrepancy: float
    phi_history: np.ndarray


def compile_controlled(model: TorusModel, connection: ControlConnection) -> CompiledConnection:
    return compile_connection(controlled_connection(model, connection))


def _mode_basis(model: TorusModel, compiled: CompiledConnection) -> ShiftBasis:
    """d/dt psi_n = i sum_c (n . L_c) psi_{n+c} is driven by the transposed ``generators(w)``.

    Mode n is fed by mode n+c with a weight indexed by the receiving mode;
    feeds from outside the box are dropped (the documented truncation loss).
    """
    return shift_basis(model, compiled, lambda n, k, c: n[:, k])


def classical_mode_transport(
    model: TorusModel,
    connection: ControlConnection,
    curve: ParameterCurve,
    phi0,
    steps: int,
    guard: int | None = None,
) -> ModeTransport:
    """Transport mode values exp(i n . phi) over the controlled box, two ways.

    ``phi0`` lists the initial controlled angles (ordered by controlled
    axis).  Route one integrates the angle equation and exponentiates;
    route two propagates the truncated linear mode system with per-step
    exponentials of the midpoint generator.  Both use the same step grid,
    and route two reads its midpoints from route one's table: a full step's
    midpoint ends an even-numbered half step.
    """
    compiled = compile_controlled(model, connection)
    sub_model = controlled_submodel(model)
    phi0 = np.asarray(phi0, dtype=float)
    if phi0.shape != (sub_model.m,):
        raise DimensionMismatchError(f"expected {sub_model.m} controlled angles, got {phi0.shape}")
    keep = interior_mask(sub_model, model.truncation // 2 if guard is None else guard)

    times = step_intervals(curve, steps)
    half_times = np.empty(2 * steps + 1)
    half_times[::2] = times
    half_times[1::2] = 0.5 * (times[:-1] + times[1:])
    # route one: RK4 of the angle equation alone (actions do not feed back) on the half steps
    phis, table = _rk4_along(compiled.drift, compiled, curve, half_times, phi0)
    modes = mode_array(sub_model)
    direct = np.exp(1j * (modes @ phis[-1]))

    basis = _mode_basis(sub_model, compiled)
    # a copy, so that the half-step table is freed before the product
    weights = table[0 : 2 * steps : 2].copy()
    del table
    weights *= 1j * np.diff(times)[:, None]
    # a transposed shift block has the block's 1-norm (``ShiftBasis.term_norms``)
    bounds = np.abs(weights) @ basis.term_norms()
    psi = np.exp(1j * (modes @ phi0))
    chunks = step_chunks(steps, sub_model.size)
    work = exp_workspace(chunks[0].stop, sub_model.size)
    for chunk in chunks:
        gens = basis.generators(weights[chunk]).transpose(0, 2, 1)
        for step in exp_stack(gens, np.max(bounds[chunk]), work):
            psi = step @ psi

    discrepancy = float(np.max(np.abs(direct[keep] - psi[keep])))
    return ModeTransport(modes, direct, psi, discrepancy, phis)


def classical_action_transport(
    model: TorusModel,
    connection: ControlConnection,
    curve: ParameterCurve,
    actions0,
    phi_history: np.ndarray,
    steps: int,
) -> np.ndarray:
    """Ordered-product solution of the controlled-action transport.

    ``dI_a/dt = - sum_b d_a L_b_beta(sigma, phi(t)) I_b dsigma^beta/dt``
    along a given controlled-angle history (half-step resolution, as
    produced by :func:`classical_mode_transport`).  Returns the final
    controlled actions.
    """
    compiled = compile_controlled(model, connection)
    l = len(model.controlled)
    actions = np.asarray(actions0, dtype=float).copy()
    phi_history = np.asarray(phi_history, dtype=float)
    if actions.shape != (l,):
        raise DimensionMismatchError(f"expected {l} controlled actions")
    if phi_history.shape != (2 * steps + 1, l):
        raise DimensionMismatchError("phi_history must hold 2*steps+1 controlled-angle samples")
    times = step_intervals(curve, steps)
    weights = compiled.along(curve, 0.5 * (times[:-1] + times[1:]))
    weights *= -np.diff(times)[:, None]
    # |G[a, k]| <= sum over the terms K of axis k of |w_K| |c_K[a]|, so
    # column k's 1-norm is at most the sum of |w_K| ||c_K||_1 over them
    shift_norms = np.abs(compiled.shifts).sum(axis=1)
    bounds = np.max((np.abs(weights) * shift_norms) @ compiled.by_axis, axis=1)
    midpoints = phi_history[1::2]
    chunks = step_chunks(steps, l, itemsize=8)
    work = exp_workspace(chunks[0].stop, l, float)
    for chunk in chunks:
        gens = compiled.coupling(weights[chunk], midpoints[chunk])
        for step in exp_stack(gens, np.max(bounds[chunk]), work):
            actions = step @ actions
    return actions
