"""Controlled integrable dynamics on the m-torus: simulation and verification.

The package builds everything on a truncated Fourier mode box: classical
free and perturbed flows in action-angle coordinates, path-ordered
transport of mode values and actions, operator quantization of affine
observables, and the factorized propagators of the parameter-driven
system, whose control part depends on the traced path only and acts as a
holonomy on the degenerate eigenspaces of the dynamic Hamiltonian.
"""

import os as _os

# Desk-scale workloads: thousands of exponentials of matrices no larger than
# a few hundred rows.  BLAS thread pools lose badly there, so pin them before
# the first numpy import unless the user already chose a setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")
del _os, _var

from .classical import (
    ModeTransport,
    Trajectory,
    classical_action_transport,
    classical_mode_transport,
    evolve_free,
    evolve_perturbed,
    split_residual,
)
from .curves import (
    CirclePath,
    ParameterCurve,
    WaypointPath,
    concatenate,
    line_integral,
    reparameterize,
    step_intervals,
)
from .errors import (
    BandwidthError,
    ConfigError,
    DimensionMismatchError,
    NonFiniteError,
    OpenCurveError,
    SplitViolationError,
    StepCountError,
    TorusHolonomyError,
)
from .fields import (
    ActionPolynomial,
    AffineObservable,
    ControlConnection,
    ParameterPolynomial,
    TorusFourierField,
    poisson_bracket,
)
from .lattice import ClassicalState, TorusModel
from .operators import (
    OperatorMatrix,
    dirac_residual,
    halfform_equivalence,
    hamiltonian_operator,
    lambda_shift_equivalence,
    quantize_affine,
)
from .propagation import (
    FactorizationReport,
    PropagatorReport,
    delta_generator,
    evolve_control,
    evolve_full,
    holonomy,
)

__version__ = "0.1.0"

__all__ = [
    "ActionPolynomial",
    "AffineObservable",
    "BandwidthError",
    "CirclePath",
    "ClassicalState",
    "ConfigError",
    "ControlConnection",
    "DimensionMismatchError",
    "FactorizationReport",
    "ModeTransport",
    "NonFiniteError",
    "OpenCurveError",
    "OperatorMatrix",
    "ParameterCurve",
    "ParameterPolynomial",
    "PropagatorReport",
    "SplitViolationError",
    "StepCountError",
    "TorusFourierField",
    "TorusHolonomyError",
    "TorusModel",
    "Trajectory",
    "WaypointPath",
    "classical_action_transport",
    "classical_mode_transport",
    "concatenate",
    "delta_generator",
    "dirac_residual",
    "evolve_control",
    "evolve_free",
    "evolve_full",
    "evolve_perturbed",
    "halfform_equivalence",
    "hamiltonian_operator",
    "holonomy",
    "lambda_shift_equivalence",
    "line_integral",
    "poisson_bracket",
    "quantize_affine",
    "reparameterize",
    "split_residual",
    "step_intervals",
]
