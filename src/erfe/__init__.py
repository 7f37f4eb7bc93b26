"""Expectile regression with fixed effects for panel data.

Asymmetric least squares estimation of panel models with subject-specific
intercepts: the fixed effects are concentrated out by a check-weighted
within transform rebuilt at every reweighting step, so no incidence matrix
or per-subject dummy is ever materialized.  A pooled expectile
regression with one intercept is the same fit on a panel of one subject.
Includes cluster-robust sandwich covariances, scalar and distributional
expectiles, and a reproducible Monte Carlo harness.
"""

from .covariance import (
    SandwichCovariance,
    conf_intervals,
    sandwich_multi,
    sandwich_single,
)
from .errors import (
    BracketFailureError,
    BudgetExceededError,
    EmptyInputError,
    ErfeError,
    NoConvergenceError,
    NonincreasingTausError,
    NotPositiveSemidefiniteError,
    RaggedRowError,
    ShapeMismatchError,
    SingletonSubjectError,
    SingularBreadError,
    SingularGramError,
    WeightDimensionMismatchError,
)
from .estimator import (
    FitResult,
    MultiFitResult,
    fit_erfe_multi,
    fit_erfe_single,
    recover_fixed_effects,
    within_ols,
)
from .expectiles import (
    Law,
    chi_squared,
    distribution_expectile,
    gaussian,
    normal_quantile,
    sample_expectile,
    student_t,
)
from .montecarlo import (
    DgpTruth,
    MetricsRow,
    ScenarioMetrics,
    SimulationConfig,
    generate_dgp,
    run_monte_carlo,
    true_coefficients,
)
from .panel import (
    PanelData,
    asymmetric_loss,
    build_panel,
    check_weight,
    read_panel_csv,
    validate_tau,
    validate_taus,
)
from .within import apply_within, subject_weights

__version__ = "0.1.0"

__all__ = [
    "BracketFailureError",
    "BudgetExceededError",
    "DgpTruth",
    "EmptyInputError",
    "ErfeError",
    "FitResult",
    "Law",
    "MetricsRow",
    "MultiFitResult",
    "NoConvergenceError",
    "NonincreasingTausError",
    "NotPositiveSemidefiniteError",
    "PanelData",
    "RaggedRowError",
    "SandwichCovariance",
    "ScenarioMetrics",
    "ShapeMismatchError",
    "SimulationConfig",
    "SingletonSubjectError",
    "SingularBreadError",
    "SingularGramError",
    "WeightDimensionMismatchError",
    "apply_within",
    "asymmetric_loss",
    "build_panel",
    "check_weight",
    "chi_squared",
    "conf_intervals",
    "distribution_expectile",
    "fit_erfe_multi",
    "fit_erfe_single",
    "gaussian",
    "generate_dgp",
    "normal_quantile",
    "read_panel_csv",
    "recover_fixed_effects",
    "run_monte_carlo",
    "sample_expectile",
    "sandwich_multi",
    "sandwich_single",
    "student_t",
    "subject_weights",
    "true_coefficients",
    "validate_tau",
    "validate_taus",
    "within_ols",
]
