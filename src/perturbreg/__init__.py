"""Stabilized solves and stable differentiation for perturbed operator equations.

First-kind equations with noisy data admit no bounded inverse; this package
regularizes them by adding a small stabilizing perturbation to the operator
and coordinating its size with the noise level. It ships the stabilized
dense solver with error certificates, a closed-form resolvent for stable
numerical differentiation, finite-rank stabilizers built from null-space
data, and a benchmark harness with seeded noise.
"""

from .differentiate import (
    Baseline,
    DerivativeResult,
    estimate_baseline,
    regularized_derivative,
    resolvent_apply,
    resolvent_norm_bound,
    volterra_apply,
)
from .errors import (
    AlphaTooSmall,
    BiorthogonalityFailed,
    DegenerateDelta,
    DegenerateGram,
    PerturbregError,
    ProblemFormatError,
    QOutOfRange,
    SingularSystem,
    UnknownExample,
    WindowTooNarrow,
)
from .experiments import (
    EXAMPLES,
    ExperimentReport,
    NoiseSpec,
    StudyRow,
    add_noise,
    convergence_study,
    example_function,
    example_interval,
    run_experiment,
)
from .fredholm import (
    FredholmBasis,
    build_stabilizer,
    nullspace_basis,
    project_rhs,
    solve_fredholm_regularized,
)
from .grid import GridFunction
from .operators import (
    DiscreteOperator,
    Stabilizer,
    cumulative_trapezoid_matrix,
    trapezoid_weights,
)
from .problems import Problem, load_problem, parse_rule
from .solve import (
    ChainStep,
    CoordinationRule,
    Fixed,
    PowerDelta,
    RegConfig,
    SolveReport,
    SqrtDelta,
    c_alpha_estimate,
    chain_solve,
    coordinate_alpha,
    error_bound,
    invertibility_margin,
    solve_perturbed,
    stabilization_gap,
    stabilization_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaTooSmall",
    "Baseline",
    "BiorthogonalityFailed",
    "ChainStep",
    "CoordinationRule",
    "DegenerateDelta",
    "DegenerateGram",
    "DerivativeResult",
    "DiscreteOperator",
    "EXAMPLES",
    "ExperimentReport",
    "Fixed",
    "FredholmBasis",
    "GridFunction",
    "NoiseSpec",
    "PerturbregError",
    "PowerDelta",
    "Problem",
    "ProblemFormatError",
    "QOutOfRange",
    "RegConfig",
    "SingularSystem",
    "SolveReport",
    "SqrtDelta",
    "Stabilizer",
    "StudyRow",
    "UnknownExample",
    "WindowTooNarrow",
    "add_noise",
    "build_stabilizer",
    "c_alpha_estimate",
    "chain_solve",
    "convergence_study",
    "coordinate_alpha",
    "cumulative_trapezoid_matrix",
    "error_bound",
    "estimate_baseline",
    "example_function",
    "example_interval",
    "invertibility_margin",
    "load_problem",
    "nullspace_basis",
    "parse_rule",
    "project_rhs",
    "regularized_derivative",
    "resolvent_apply",
    "resolvent_norm_bound",
    "run_experiment",
    "solve_fredholm_regularized",
    "solve_perturbed",
    "stabilization_gap",
    "stabilization_sweep",
    "trapezoid_weights",
    "volterra_apply",
]
