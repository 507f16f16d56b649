"""Factored gradient descent over positive semi-definite matrices.

A convex objective f(X) on PSD matrices is minimized through the
factorization X = U U^T with a tall n x r factor U, using the update

    U_{k+1} = U_k - eta_k * grad f(U_k U_k^T) @ U_k.

The package provides the factor-space geometry (orthogonal Procrustes
alignment and the rotation-invariant distance), the step-size rules (a
conservative fixed step and per-iteration adaptive ones), the iteration
engine with full trajectory recording, executable checks of the linear
convergence analysis, and a benchmark harness with a CLI.
"""

from .errors import (ConfigError, DegenerateProblemError, FactorDescentError,
                     InvalidMatrixError, MissingGroundTruthError, NegativeEstimateError,
                     NumericalBlowupError, ShapeMismatchError,
                     ZeroGradientError, ZeroMatrixError)
from .geometry import (as_factor, as_matrix, dist, procrustes_align,
                       sigma_min_positive, spectral_norm)
from .objectives import Objective, matrix_factorization, mf_grad, mf_value
from .stepsize import (ADAPTIVE_EXACT, ADAPTIVE_PRACTICAL, FIXED_FGD,
                       StepContext, StepPolicy, eta_estimated, eta_fixed,
                       eta_local, eta_optimal, eta_practical)
from .descent import (InitCheck, IterateRecord, Problem, RunState, Trajectory,
                      TERMINATED_DIVERGED, TERMINATED_MAX_ITERS,
                      TERMINATED_STATIONARY, TERMINATED_TOLERANCE,
                      check_init_condition, init_far, init_near, make_problem,
                      prepare, run, start_radius, step)
from .bounds import (CHECK_CONTRACTION_ADAPTIVE, CHECK_CONTRACTION_EXACT_LOCAL,
                     CHECK_CONTRACTION_EXACT_OPTIMAL, CHECK_CONTRACTION_FIXED,
                     CHECK_DESCENT_QUADRATIC, CHECK_LOCAL_STEP_FLOOR,
                     CHECK_OPTIMAL_STEP, CHECK_REGULARITY, check_local_step_floor,
                     check_optimal_step, check_regularity, dist_sq_upper_bound,
                     step_context_at, trajectory_reports)
from .experiments import (ExperimentConfig, RunArtifact, export_csv,
                          figure_configs, generate_instance, policy_from_name,
                          reproduce_figures, run_comparison, write_plot_script)

__version__ = "0.1.0"

__all__ = [
    "FactorDescentError", "InvalidMatrixError", "ShapeMismatchError", "ZeroMatrixError",
    "DegenerateProblemError", "ZeroGradientError", "NegativeEstimateError",
    "MissingGroundTruthError", "NumericalBlowupError", "ConfigError",
    "as_matrix", "as_factor", "spectral_norm", "sigma_min_positive",
    "procrustes_align", "dist",
    "Objective", "matrix_factorization", "mf_value", "mf_grad",
    "FIXED_FGD", "ADAPTIVE_EXACT", "ADAPTIVE_PRACTICAL",
    "StepPolicy", "StepContext", "eta_fixed", "eta_local", "eta_optimal",
    "eta_estimated", "eta_practical",
    "Problem", "make_problem", "IterateRecord", "Trajectory", "InitCheck",
    "RunState", "prepare", "step", "run", "start_radius",
    "check_init_condition", "init_near", "init_far",
    "TERMINATED_TOLERANCE", "TERMINATED_MAX_ITERS", "TERMINATED_STATIONARY",
    "TERMINATED_DIVERGED",
    "check_local_step_floor", "check_regularity", "dist_sq_upper_bound",
    "check_optimal_step", "step_context_at", "trajectory_reports",
    "CHECK_LOCAL_STEP_FLOOR", "CHECK_REGULARITY", "CHECK_DESCENT_QUADRATIC",
    "CHECK_CONTRACTION_FIXED", "CHECK_CONTRACTION_ADAPTIVE",
    "CHECK_CONTRACTION_EXACT_LOCAL", "CHECK_CONTRACTION_EXACT_OPTIMAL",
    "CHECK_OPTIMAL_STEP",
    "ExperimentConfig", "RunArtifact", "policy_from_name", "generate_instance",
    "run_comparison", "export_csv", "write_plot_script", "figure_configs",
    "reproduce_figures",
]
