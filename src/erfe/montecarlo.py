"""Data-generating processes and the replication harness.

The location(-scale) shift design draws one heavy-tailed regressor, one
Gaussian regressor sharing a subject-level factor with the fixed effect
(so the two are correlated), and a choice of error law whose scale may
grow with the second regressor.  Replications get independent random
streams keyed by (seed, replication index), so results are reproducible
bitwise for any worker count.
"""

from __future__ import annotations

import csv
import io
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .covariance import sandwich_multi, sandwich_single
from .errors import BudgetExceededError, ErfeError
from .estimator import fit_erfe_multi, fit_erfe_single
from .expectiles import chi_squared, distribution_expectile, gaussian, student_t
from .panel import PanelData, _assemble_panel, format_number, validate_taus

__all__ = [
    "DEFAULT_BUDGET",
    "DgpTruth",
    "MetricsRow",
    "ScenarioMetrics",
    "SimulationConfig",
    "estimates_to_csv",
    "generate_dgp",
    "metrics_to_csv",
    "run_monte_carlo",
    "true_coefficients",
]

DEFAULT_BUDGET = 50_000_000
_BUDGET_ENV = "ERFE_MAX_BUDGET"

_ERROR_DISTS = ("gaussian", "student_t3", "chi2_3")


@dataclass(frozen=True)
class SimulationConfig:
    """One simulation cell.

    gamma = 0 gives the location-shift (homoskedastic) design; gamma > 0
    makes the error scale grow with the second regressor, so that slope's
    true value varies with the asymmetric point.  The regressor and
    correlation parameters are overridable but default to the benchmark
    design: x1 noncentral-t (3 df, noncentrality 1.3), x2 normal with mean
    2 and standard deviation 1.5 split evenly between a subject-level and
    an idiosyncratic component, corr(alpha, x2) = 0.5.
    """

    n: int = 100
    m: int = 5
    gamma: float = 0.0
    error_dist: str = "gaussian"
    taus: tuple[float, ...] = (0.1, 0.3, 0.5, 0.8, 0.9)
    replications: int = 400
    seed: int = 0
    beta1: float = 0.6
    beta2: float = 1.0
    x1_df: float = 3.0
    x1_noncentrality: float = 1.3
    x2_mean: float = 2.0
    x2_sd: float = 1.5
    x2_subject_share: float = 0.5
    alpha_x2_corr: float = 0.5
    joint: bool = False
    budget: int | None = None

    def __post_init__(self):
        if self.n < 1 or self.m < 2 or self.replications < 1:
            raise ValueError("need n >= 1, m >= 2, replications >= 1")
        if self.error_dist not in _ERROR_DISTS:
            raise ValueError(f"error_dist must be one of {_ERROR_DISTS}")
        if not 0.0 < self.x2_subject_share < 1.0:
            raise ValueError("x2_subject_share must lie in (0, 1)")
        validate_taus(self.taus)
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        loading = self.alpha_x2_corr / np.sqrt(self.x2_subject_share)
        if not -1.0 <= loading <= 1.0:
            raise ValueError(
                "alpha_x2_corr is not attainable with this subject share"
            )


@dataclass(frozen=True)
class DgpTruth:
    """Parameters behind one generated panel."""

    beta1: float
    beta2: float
    gamma: float
    alpha: np.ndarray


@dataclass(frozen=True)
class MetricsRow:
    """Summary for one (asymmetric point, coefficient) cell."""

    tau: float
    coefficient: str
    true_value: float
    mean_estimate: float
    bias: float
    sd: float
    mean_se: float
    se_sd_ratio: float
    replications_used: int
    failures: int


@dataclass(frozen=True)
class ScenarioMetrics:
    """Aggregated Monte Carlo summaries, plus the raw per-replication
    estimates/standard errors (R x q x p, NaN where a fit failed)."""

    rows: tuple[MetricsRow, ...]
    estimates: np.ndarray
    standard_errors: np.ndarray
    iterations: np.ndarray


def _error_sampler(name: str):
    if name == "gaussian":
        return lambda rng, size: rng.standard_normal(size)
    if name == "student_t3":
        return lambda rng, size: rng.standard_t(3.0, size)
    return lambda rng, size: rng.chisquare(3.0, size)


def _error_distribution(name: str):
    if name == "gaussian":
        return gaussian(0.0, 1.0)
    if name == "student_t3":
        return student_t(3.0)
    return chi_squared(3.0)


@lru_cache(maxsize=None)
def _error_expectile(name: str, tau: float) -> float:
    return distribution_expectile(_error_distribution(name), tau)


def true_coefficients(tau, config: SimulationConfig) -> tuple[float, float]:
    """True (beta1, beta2) at an asymmetric point.

    The first slope never varies; the second picks up gamma times the
    error distribution's expectile at that point.
    """
    shift = 0.0
    if config.gamma != 0.0:
        shift = config.gamma * _error_expectile(config.error_dist, float(tau))
    return config.beta1, config.beta2 + shift


def generate_dgp(config: SimulationConfig, replication_index: int) -> tuple[PanelData, DgpTruth]:
    """Generate one replication's panel.

    The random stream is keyed by (seed, replication_index): identical
    keys give bitwise identical panels, distinct replications are
    independent.
    """
    seq = np.random.SeedSequence((int(config.seed), int(replication_index)))
    rng = np.random.default_rng(seq)
    n, m = config.n, config.m
    n_obs = n * m

    subject_factor = rng.standard_normal(n)
    alpha_noise = rng.standard_normal(n)
    t_numerator = rng.standard_normal(n_obs)
    t_denominator = rng.chisquare(config.x1_df, n_obs)
    idiosyncratic = rng.standard_normal(n_obs)
    errors = _error_sampler(config.error_dist)(rng, n_obs)

    # Noncentral t variate: (Z + nc) / sqrt(chi2_df / df).
    x1 = (t_numerator + config.x1_noncentrality) / np.sqrt(
        t_denominator / config.x1_df)

    share = config.x2_subject_share
    subject_part = np.repeat(subject_factor, m)
    x2 = config.x2_mean + config.x2_sd * (
        np.sqrt(share) * subject_part + np.sqrt(1.0 - share) * idiosyncratic)

    loading = config.alpha_x2_corr / np.sqrt(share)
    alpha = 1.0 + loading * subject_factor + np.sqrt(1.0 - loading**2) * alpha_noise

    y = (x1 * config.beta1 + x2 * config.beta2 + np.repeat(alpha, m)
         + (1.0 + config.gamma * x2) * errors)

    panel = _assemble_panel(
        np.repeat(np.arange(n), m), y, np.column_stack([x1, x2]), ("x1", "x2"))
    truth = DgpTruth(beta1=config.beta1, beta2=config.beta2,
                     gamma=config.gamma, alpha=alpha)
    return panel, truth


def _resolve_budget(config: SimulationConfig) -> int:
    if config.budget is not None:
        return int(config.budget)
    env = os.environ.get(_BUDGET_ENV)
    if env is not None:
        return int(env)
    return DEFAULT_BUDGET


def _run_replication(config: SimulationConfig, rep: int):
    """Fit every asymmetric point on one generated panel.

    Returns (estimates, standard errors, iteration counts), each q x p
    (iterations q,), with NaN marking failed fits.
    """
    q = len(config.taus)
    p = 2
    est = np.full((q, p), np.nan)
    ses = np.full((q, p), np.nan)
    iters = np.full(q, np.nan)
    panel, _ = generate_dgp(config, rep)
    if config.joint:
        try:
            fit = fit_erfe_multi(panel, config.taus)
            cov = sandwich_multi(panel, fit)
            est[:] = fit.betas
            ses[:] = cov.se.reshape(q, p)
            iters[:] = fit.iterations
        except ErfeError:
            pass
        return est, ses, iters
    for k, tau in enumerate(config.taus):
        try:
            fit = fit_erfe_single(panel, tau)
            cov = sandwich_single(panel, fit)
        except ErfeError:
            continue
        est[k] = fit.beta
        ses[k] = cov.se
        iters[k] = fit.iterations
    return est, ses, iters


def run_monte_carlo(config: SimulationConfig, workers: int = 1) -> ScenarioMetrics:
    """Run all replications of one cell and aggregate the summaries.

    Failed fits are excluded from the averages and reported in the
    ``failures`` column; they are never retried.  Aggregation runs in
    replication order, so the output is identical for any worker count.
    """
    cost = config.n * config.m * config.replications
    budget = _resolve_budget(config)
    if cost > budget:
        raise BudgetExceededError(
            f"n*m*replications = {cost} exceeds budget {budget} "
            f"(override via {_BUDGET_ENV} or SimulationConfig.budget)"
        )

    reps = range(config.replications)
    if workers and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_replication, [config] * len(reps), reps,
                                    chunksize=max(1, len(reps) // (4 * workers))))
    else:
        results = [_run_replication(config, rep) for rep in reps]

    q = len(config.taus)
    estimates = np.stack([r[0] for r in results])
    ses = np.stack([r[1] for r in results])
    iters = np.stack([r[2] for r in results])

    rows = []
    names = ("x1", "x2")
    for k, tau in enumerate(config.taus):
        truth = true_coefficients(tau, config)
        ok = ~np.isnan(estimates[:, k, 0])
        used = int(np.sum(ok))
        failures = config.replications - used
        for j, name in enumerate(names):
            col = estimates[ok, k, j]
            se_col = ses[ok, k, j]
            if used:
                mean_est = float(np.mean(col))
                sd = float(np.sqrt(np.mean((col - mean_est) ** 2)))
                mean_se = float(np.mean(se_col))
                ratio = mean_se / sd if sd > 0 else np.nan
            else:
                mean_est = sd = mean_se = ratio = np.nan
            rows.append(MetricsRow(
                tau=float(tau), coefficient=name, true_value=float(truth[j]),
                mean_estimate=mean_est, bias=mean_est - truth[j],
                sd=sd, mean_se=mean_se, se_sd_ratio=ratio,
                replications_used=used, failures=failures,
            ))
    return ScenarioMetrics(rows=tuple(rows), estimates=estimates,
                           standard_errors=ses, iterations=iters)


def metrics_to_csv(metrics: ScenarioMetrics) -> str:
    """Serialize the summary rows as CSV (17 significant digits)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["tau", "coefficient", "true_value", "mean_estimate",
                     "bias", "sd", "mean_se", "se_sd_ratio",
                     "replications_used", "failures"])
    for row in metrics.rows:
        writer.writerow([
            format_number(row.tau), row.coefficient,
            format_number(row.true_value), format_number(row.mean_estimate),
            format_number(row.bias), format_number(row.sd),
            format_number(row.mean_se), format_number(row.se_sd_ratio),
            row.replications_used, row.failures,
        ])
    return buf.getvalue()


def estimates_to_csv(config: SimulationConfig, metrics: ScenarioMetrics) -> str:
    """Per-replication estimate dump for external plotting."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["replication", "tau", "coefficient", "estimate",
                     "std_error", "iterations"])
    names = ("x1", "x2")
    for rep in range(metrics.estimates.shape[0]):
        for k, tau in enumerate(config.taus):
            for j, name in enumerate(names):
                writer.writerow([
                    rep, format_number(tau), name,
                    format_number(metrics.estimates[rep, k, j]),
                    format_number(metrics.standard_errors[rep, k, j]),
                    format_number(metrics.iterations[rep, k]),
                ])
    return buf.getvalue()
