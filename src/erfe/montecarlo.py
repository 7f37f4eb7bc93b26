"""Data-generating processes and the replication harness.

The location(-scale) shift design draws one heavy-tailed regressor, one
Gaussian regressor sharing a subject-level factor with the fixed effect
(so the two are correlated), and a choice of error law whose scale may
grow with the second regressor.  Replications get independent random
streams keyed by (seed, replication index).  They are fitted in fixed
blocks of ``BLOCK`` replications by index, each block stacked on a leading
replication axis and fitted at every asymmetric point by one
``estimator.fit_stack`` call; every replication's numbers are the bits its
own fit gives, so results are reproducible bitwise for any worker count.
"""

from __future__ import annotations

import dataclasses
import io
import os
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .covariance import sandwich_stack
from .errors import BudgetExceededError
from .estimator import fit_stack
from .expectiles import chi_squared, distribution_expectile, gaussian, student_t
from .panel import PanelData, _assemble_panel, stack_panels, validate_taus, write_table

__all__ = [
    "BLOCK",
    "DEFAULT_BUDGET",
    "DgpTruth",
    "ERROR_LAWS",
    "MetricsRow",
    "ScenarioMetrics",
    "SimulationConfig",
    "estimates_table",
    "estimates_to_csv",
    "generate_dgp",
    "metrics_table",
    "metrics_to_csv",
    "run_monte_carlo",
    "true_coefficients",
]

DEFAULT_BUDGET = 50_000_000
# Replications fitted by one engine pass.  A block's arrays peak at about
# 60 KB per replication of a 500-row cell: 16 keep the process's peak
# memory where one replication at a time had it, while 1000 replications
# at 3 taus take 0.44 s in-process, against 0.37 s in blocks of 64 (on a
# 2-vCPU Xeon host).
BLOCK = 16
_BUDGET_ENV = "ERFE_MAX_BUDGET"

# The error laws by name: a draw of ``size`` errors from ``rng``, and the
# law itself, whose expectiles ``distribution_expectile`` takes in closed
# form with the standard library alone.
ERROR_LAWS = {
    "gaussian": (lambda rng, size: rng.standard_normal(size), gaussian(0.0, 1.0)),
    "student_t3": (lambda rng, size: rng.standard_t(3.0, size), student_t(3.0)),
    "chi2_3": (lambda rng, size: rng.chisquare(3.0, size), chi_squared(3.0)),
}
# Names of the two regressors of every generated panel.
_REGRESSORS = ("x1", "x2")
# The design: true slopes of x1 and x2; x1 noncentral t with _X1_DF degrees
# of freedom and noncentrality _X1_NONCENTRALITY; x2 normal with mean
# _X2_MEAN and standard deviation _X2_SD, a share _X2_SUBJECT_SHARE of its
# variance subject-level; corr(alpha, x2) = _ALPHA_X2_CORR.
_BETA1 = 0.6
_BETA2 = 1.0
_X1_DF = 3.0
_X1_NONCENTRALITY = 1.3
_X2_MEAN = 2.0
_X2_SD = 1.5
_X2_SUBJECT_SHARE = 0.5
_ALPHA_X2_CORR = 0.5


@dataclass(frozen=True)
class SimulationConfig:
    """One simulation cell.

    gamma = 0 gives the location-shift (homoskedastic) design; gamma > 0
    makes the error scale grow with the second regressor, so that slope's
    true value varies with the asymmetric point.  The regressors and
    slopes are those of the paper's design: x1 noncentral-t (3 df,
    noncentrality 1.3), x2 normal with mean 2 and standard deviation 1.5
    split evenly between a subject-level and an idiosyncratic component,
    corr(alpha, x2) = 0.5, and slopes 0.6 and 1.0.
    """

    n: int = 100
    m: int = 5
    gamma: float = 0.0
    error_dist: str = "gaussian"
    taus: tuple[float, ...] = (0.1, 0.3, 0.5, 0.8, 0.9)
    replications: int = 400
    seed: int = 0
    joint: bool = False

    def __post_init__(self):
        if self.n < 1 or self.m < 2 or self.replications < 1:
            raise ValueError("need n >= 1, m >= 2, replications >= 1")
        if not np.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        if self.error_dist not in ERROR_LAWS:
            raise ValueError(f"error_dist must be one of {tuple(ERROR_LAWS)}")
        validate_taus(self.taus)
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


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
    estimates/standard errors (R x q x p, NaN where a fit failed) and
    iteration counts (R x q).  ``failure_causes`` holds, per asymmetric
    point, the failed replications counted by the class name of the error
    that stopped them."""

    rows: tuple[MetricsRow, ...]
    estimates: np.ndarray
    standard_errors: np.ndarray
    iterations: np.ndarray
    failure_causes: tuple[dict[str, int], ...]


@lru_cache(maxsize=None)
def _error_expectile(name: str, tau: float) -> float:
    return distribution_expectile(ERROR_LAWS[name][1], tau)


def true_coefficients(tau, config: SimulationConfig) -> tuple[float, float]:
    """True (beta1, beta2) at an asymmetric point.

    The first slope never varies; the second picks up gamma times the
    error distribution's expectile at that point.
    """
    shift = 0.0
    if config.gamma != 0.0:
        shift = config.gamma * _error_expectile(config.error_dist, float(tau))
    return _BETA1, _BETA2 + shift


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
    t_denominator = rng.chisquare(_X1_DF, n_obs)
    idiosyncratic = rng.standard_normal(n_obs)
    errors = ERROR_LAWS[config.error_dist][0](rng, n_obs)

    # Noncentral t variate: (Z + nc) / sqrt(chi2_df / df).
    x1 = (t_numerator + _X1_NONCENTRALITY) / np.sqrt(t_denominator / _X1_DF)

    share = _X2_SUBJECT_SHARE
    subject_part = np.repeat(subject_factor, m)
    x2 = _X2_MEAN + _X2_SD * (
        np.sqrt(share) * subject_part + np.sqrt(1.0 - share) * idiosyncratic)

    loading = _ALPHA_X2_CORR / np.sqrt(share)
    alpha = 1.0 + loading * subject_factor + np.sqrt(1.0 - loading**2) * alpha_noise

    y = (x1 * _BETA1 + x2 * _BETA2 + np.repeat(alpha, m)
         + (1.0 + config.gamma * x2) * errors)

    panel = _assemble_panel(
        np.repeat(np.arange(n), m), y, np.column_stack([x1, x2]), _REGRESSORS)
    truth = DgpTruth(beta1=_BETA1, beta2=_BETA2, gamma=config.gamma, alpha=alpha)
    return panel, truth


def _run_block(config: SimulationConfig, block: int):
    """Fit every asymmetric point on the panels of replications
    [block * BLOCK, (block + 1) * BLOCK), cut at the last replication.

    The panels are fitted as one stack, by one ``fit_stack`` call, and so
    are their sandwiches.  Returns estimates and standard errors
    (b x q x p), iteration counts (b x q) and failure causes (b x q, the
    class name of the error that stopped the fit or its sandwich, None
    where both ran), with NaN marking failed fits.
    """
    reps = range(block * BLOCK, min((block + 1) * BLOCK, config.replications))
    stack = stack_panels(generate_dgp(config, rep)[0] for rep in reps)
    fit = fit_stack(stack, config.taus, joint=config.joint)
    cov, errors = sandwich_stack(stack, fit)
    ok = np.array([[e is None for e in row] for row in errors], dtype=bool)
    est = np.where(ok[:, :, None], fit.betas, np.nan)
    ses = np.where(ok[:, :, None], cov.se.reshape(fit.betas.shape), np.nan)
    iters = np.where(ok, fit.iterations, np.nan)
    causes = np.array([[type(e).__name__ if e else None for e in row] for row in errors],
                      dtype=object)
    return est, ses, iters, causes


def run_monte_carlo(config: SimulationConfig, workers: int = 1) -> ScenarioMetrics:
    """Run all replications of one cell and aggregate the summaries.

    Replications are fitted in blocks of ``BLOCK`` by index, whatever the
    worker count; workers take whole blocks.  Failed fits are excluded from
    the averages, reported in the ``failures`` column and counted by cause
    in ``failure_causes``; they are never retried.  Aggregation runs in
    replication order, so the output is identical for any worker count.
    """
    cost = config.n * config.m * config.replications
    budget = int(os.environ.get(_BUDGET_ENV, DEFAULT_BUDGET))
    if cost > budget:
        raise BudgetExceededError(
            f"n*m*replications = {cost} exceeds budget {budget} "
            f"(override via {_BUDGET_ENV})"
        )

    blocks = range(-(-config.replications // BLOCK))
    if workers and workers > 1:
        # Imported here: only a parallel run needs the process machinery,
        # whose import adds about 5 ms to every command's start.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_block, [config] * len(blocks), blocks,
                                    chunksize=max(1, len(blocks) // (4 * workers))))
    else:
        results = [_run_block(config, block) for block in blocks]

    estimates, ses, iters, causes = (np.concatenate(parts) for parts in zip(*results))

    rows = []
    for k, tau in enumerate(config.taus):
        truth = true_coefficients(tau, config)
        ok = ~np.isnan(estimates[:, k, 0])
        used = int(np.sum(ok))
        failures = config.replications - used
        for j, name in enumerate(_REGRESSORS):
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
    failure_causes = tuple(dict(sorted(Counter(c for c in column if c).items()))
                           for column in causes.T)
    return ScenarioMetrics(rows=tuple(rows), estimates=estimates,
                           standard_errors=ses, iterations=iters,
                           failure_causes=failure_causes)


def metrics_table(metrics: ScenarioMetrics):
    """The summary as a table: its header, the fields of ``MetricsRow``, and
    one column per field."""
    header = [field.name for field in dataclasses.fields(MetricsRow)]
    return header, [[getattr(row, name) for row in metrics.rows] for name in header]


def estimates_table(config: SimulationConfig, metrics: ScenarioMetrics):
    """The per-replication estimates as a table: its header and its columns,
    one row per (replication, asymmetric point, coefficient)."""
    reps, q, p = metrics.estimates.shape
    header = ["replication", "tau", "coefficient", "estimate", "std_error",
              "iterations"]
    return header, [np.repeat(np.arange(reps), q * p).tolist(),
                    np.tile(np.repeat(np.asarray(config.taus, dtype=float), p), reps),
                    list(_REGRESSORS) * (reps * q), metrics.estimates.ravel(),
                    metrics.standard_errors.ravel(),
                    np.repeat(metrics.iterations.ravel(), p)]


def _csv_text(header, columns) -> str:
    buf = io.StringIO()
    write_table(buf, header, columns)
    return buf.getvalue()


def metrics_to_csv(metrics: ScenarioMetrics) -> str:
    """Serialize the summary rows as CSV (17 significant digits)."""
    return _csv_text(*metrics_table(metrics))


def estimates_to_csv(config: SimulationConfig, metrics: ScenarioMetrics) -> str:
    """Per-replication estimate dump for external plotting."""
    return _csv_text(*estimates_table(config, metrics))
