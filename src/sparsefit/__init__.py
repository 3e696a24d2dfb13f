"""Variable selection with concave penalized likelihood.

The package implements the local linear approximation (LLA) algorithm and
the one-step sparse estimator for SCAD, bridge, and logarithm penalties,
together with the local quadratic approximation baselines, exhaustive
best-subset selection, cross-validation tuning, orthogonal-design
thresholding rules, and a deterministic simulation harness.
"""

from .exceptions import (
    DataError,
    FamilyMismatch,
    NonConvergence,
    SingularSystem,
    SparsefitError,
    TooManyPredictors,
)
from .glm import Dataset, curvature_weights, fit_mle, loglik, neg_hessian
from .lla import FitResult, full_lla, k_step, one_step, one_step_path
from .lqa import lqa_fit, perturbed_lqa_fit
from .penalty import PenaltySpec, derivative, lqa_coefficient, parse_penalty, value
from .sim import ScenarioSpec, SimulationReport, run_scenario
from .subset import best_subset
from .threshold import emit_curve, exact_rule, one_step_rule
from .tuning import cv_select, default_lambda_grid
from .wlasso import WlassoProblem, WlassoSolution, certify_kkt, solve

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DataError",
    "FamilyMismatch",
    "FitResult",
    "NonConvergence",
    "PenaltySpec",
    "ScenarioSpec",
    "SimulationReport",
    "SingularSystem",
    "SparsefitError",
    "TooManyPredictors",
    "WlassoProblem",
    "WlassoSolution",
    "best_subset",
    "certify_kkt",
    "curvature_weights",
    "cv_select",
    "default_lambda_grid",
    "derivative",
    "emit_curve",
    "exact_rule",
    "fit_mle",
    "full_lla",
    "k_step",
    "loglik",
    "lqa_coefficient",
    "lqa_fit",
    "neg_hessian",
    "one_step",
    "one_step_path",
    "one_step_rule",
    "parse_penalty",
    "perturbed_lqa_fit",
    "run_scenario",
    "solve",
    "value",
]
