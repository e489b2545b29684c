"""Finite-difference laboratory for 1D mean-field games with degenerate diffusion.

The package solves the coupled backward value / forward density system on
(0,1) x [0,T] when the diffusion a(x) vanishes at the boundary, evaluates
exponentially weighted energy functionals for such solutions, and measures
how well two solutions can be told apart at an earlier time from their
terminal data (Holder rates inside the interval, logarithmic rates at t = 0).
"""

__version__ = "0.1.0"

from degenmfg.carleman import (
    CarlemanBundle,
    CarlemanParams,
    CarlemanReport,
    SweepResult,
    evaluate_carleman,
    s0_estimate,
    sweep_parameters,
)
from degenmfg.domain import (
    DegenerateCoefficient,
    NormKind,
    SpaceTimeField,
    SpaceTimeGrid,
    weighted_norm,
)
from degenmfg.manufactured import (
    ConvergenceResult,
    ManufacturedCase,
    catalog,
    convergence_study,
    make_case,
    solve_case,
)
from degenmfg.mfg import (
    BoundReport,
    IterConfig,
    MfgCoefficients,
    MfgSolution,
    check_coefficient_bounds,
    difference_residuals,
    form_difference_coefficients,
    solve_linearized_mfg,
    solve_nonlinear_mfg,
)
from degenmfg.solvers import (
    FpLinearProblem,
    HjbLinearProblem,
    SolverError,
    apply_fp_operator,
    apply_hjb_operator,
    isomorphism_residual,
    solve_fp_linear,
    solve_hjb_linear,
)
from degenmfg.stability import (
    BackwardExperimentSpec,
    NonlinearProblemSpec,
    StabilityResult,
    default_backward_spec,
    generate_pair,
    optimal_s,
    run_holder_experiment,
    run_log_experiment,
    theoretical_theta,
)

__all__ = [
    "BackwardExperimentSpec",
    "BoundReport",
    "CarlemanBundle",
    "CarlemanParams",
    "CarlemanReport",
    "ConvergenceResult",
    "DegenerateCoefficient",
    "FpLinearProblem",
    "HjbLinearProblem",
    "IterConfig",
    "ManufacturedCase",
    "MfgCoefficients",
    "MfgSolution",
    "NonlinearProblemSpec",
    "NormKind",
    "SolverError",
    "SpaceTimeField",
    "SpaceTimeGrid",
    "StabilityResult",
    "SweepResult",
    "apply_fp_operator",
    "apply_hjb_operator",
    "catalog",
    "check_coefficient_bounds",
    "convergence_study",
    "default_backward_spec",
    "difference_residuals",
    "evaluate_carleman",
    "form_difference_coefficients",
    "generate_pair",
    "isomorphism_residual",
    "make_case",
    "optimal_s",
    "run_holder_experiment",
    "run_log_experiment",
    "s0_estimate",
    "solve_case",
    "solve_fp_linear",
    "solve_hjb_linear",
    "solve_linearized_mfg",
    "solve_nonlinear_mfg",
    "sweep_parameters",
    "theoretical_theta",
    "weighted_norm",
    "__version__",
]
