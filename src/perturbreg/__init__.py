"""Stabilized solves and stable differentiation for perturbed operator equations.

First-kind equations with noisy data admit no bounded inverse; this package
regularizes them by adding a small stabilizing perturbation to the operator
and coordinating its size with the noise level. It ships the stabilized
dense solver with error certificates, a closed-form resolvent for stable
numerical differentiation, finite-rank stabilizers built from null-space
data, and a benchmark harness with seeded noise.

The package root exports the entry points and the error types; everything
else is imported from its submodule (``perturbreg.solve``, ...).
"""

from .differentiate import regularized_derivative, resolvent_apply, volterra_apply
from .errors import (
    AlphaTooSmall,
    BiorthogonalityFailed,
    DegenerateDelta,
    DegenerateGram,
    PerturbregError,
    ProblemFormatError,
    QOutOfRange,
    SampleOverflow,
    SingularSystem,
    UnknownExample,
    WindowTooNarrow,
)
from .experiments import NoiseSpec, add_noise, convergence_study, run_experiment
from .fredholm import build_stabilizer, nullspace_basis, solve_fredholm_regularized
from .grid import GridFunction
from .operators import DiscreteOperator, Stabilizer
from .solve import RegConfig, solve_perturbed, stabilization_gap, stabilization_sweep

__version__ = "0.1.0"

__all__ = [
    "AlphaTooSmall",
    "BiorthogonalityFailed",
    "DegenerateDelta",
    "DegenerateGram",
    "DiscreteOperator",
    "GridFunction",
    "NoiseSpec",
    "PerturbregError",
    "ProblemFormatError",
    "QOutOfRange",
    "RegConfig",
    "SampleOverflow",
    "SingularSystem",
    "Stabilizer",
    "UnknownExample",
    "WindowTooNarrow",
    "add_noise",
    "build_stabilizer",
    "convergence_study",
    "nullspace_basis",
    "regularized_derivative",
    "resolvent_apply",
    "run_experiment",
    "solve_fredholm_regularized",
    "solve_perturbed",
    "stabilization_gap",
    "stabilization_sweep",
    "volterra_apply",
]
