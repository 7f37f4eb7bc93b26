"""Panel expectile fits by one concentrated iterated weighted least squares engine.

Every fit solves the same problem: slopes beta_1..beta_q, one per
asymmetric point tau_k with influence weight v_k, and one subject effect
shared by all of them.  Each round takes the check weights psi_k of the
current residuals and, per tau, one pass over the data: the weighted Gram
matrix of the design rows [X; y] and, by grouped sums over the subject
codes, each subject's sums of psi_k, psi_k x and psi_k y.  Those sums are
all the subject effects need.  With D_k = diag(subject sums of psi_k),
C_k = subject sums of psi_k x, D = sum_k v_k D_k and G_k = X' Psi_k X, the
normal equations with the effect concentrated out (a Schur complement) are

    v_k G_k beta_k - v_k C_k' D^-1 sum_l v_l C_l beta_l
        = v_k (X' Psi_k y - C_k' D^-1 sum_l v_l c_l),

with c_l the subject sums of psi_l y: one symmetric positive definite
system of size q*p, solved by one Cholesky factorization.  The effect is
alpha = D^-1 sum_l v_l (c_l - C_l beta_l), and the new residuals are
y - alpha - X beta_k.  No N x p transformed design is ever built.

The single-tau fit (q = 1) is the weighted within transform of the
paper.  That transform subtracts subject averages, so shifting a
regressor by a subject constant changes nothing, and the single fit runs
on the panel's plainly demeaned rows [X; y] (``PanelData.demeaned``,
computed once per panel and shared with the sandwiches); this keeps
G - C' D^-1 C free of cancellation when regressors carry large
subject-level offsets.  The joint fit (q > 1) must keep the raw X: its
shared effect cannot absorb a shift a_i of x, which moves block k by
a_i' beta_k, differently for each tau.  A shift of y is absorbed, so the
joint fit builds its own design of raw X and demeaned y.

The weights depend only on residual signs, so once the sign pattern
stabilizes the solve lands exactly on the fixed point and the loop stops;
the converged point satisfies the first-order conditions of the
asymmetric least squares objective in both the slopes and the subject
effects.  Every fit starts from the within round: one round at tau = 0.5
with constant weights on the demeaned design, which is ``within_ols``,
its slopes and residuals repeated for every block.  Any start that
reaches the final sign pattern gives the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NoConvergenceError,
    SingularGramError,
    WeightDimensionMismatchError,
)
from .expectiles import IrlsConfig
from .linalg import spd_solve
from .panel import PanelData, asymmetric_loss, check_weight, validate_tau, validate_taus
from .within import (
    SubjectWeights,
    subject_weights,
    weighted_subject_sums,
    within_constant_columns,
)

__all__ = [
    "FitResult",
    "MultiFitResult",
    "fit_erfe_multi",
    "fit_erfe_single",
    "recover_fixed_effects",
    "within_ols",
]


@dataclass(frozen=True)
class FitResult:
    """Converged single-tau fit.

    ``residuals_star`` are the residuals on the transformed scale;
    ``objective_value`` is the asymmetric least squares objective at the
    fitted slopes and recovered subject effects.
    """

    tau: float
    beta: np.ndarray
    alpha: np.ndarray
    residuals_star: np.ndarray
    iterations: int
    converged: bool
    objective_value: float


@dataclass(frozen=True)
class MultiFitResult:
    """Joint fit over a sequence of asymmetric points.

    ``betas`` stacks one coefficient vector per asymmetric point (q x p);
    ``residuals_star`` the matching residual blocks (q x N), net of the
    common subject effect.
    """

    taus: tuple[float, ...]
    v: np.ndarray
    betas: np.ndarray
    residuals_star: np.ndarray
    iterations: int
    converged: bool


def _demeaned_design(panel: PanelData) -> np.ndarray:
    """The panel's demeaned rows [X; y], shape (p + 1, N), read-only.

    Raises SingularGramError for a regressor that demeaning annihilates:
    one constant within every subject, which no weighted within transform
    can identify either.
    """
    bad = within_constant_columns(panel)
    if bad.size:
        names = [panel.column_names[j] for j in bad]
        raise SingularGramError(
            f"regressor(s) {names!r} are constant within subjects and are "
            "annihilated by the within transform",
            columns=names,
        )
    return panel.demeaned


def _within_round(panel: PanelData, q: int = 1):
    """The within round: one round at tau = 0.5 with constant weights on
    the demeaned design.  Returns its slopes and residuals, each repeated
    for ``q`` blocks."""
    betas, resid = _round(_demeaned_design(panel), panel, (0.5,), np.ones(1),
                          np.zeros((1, panel.n_obs)))
    return np.repeat(betas, q, axis=0), np.repeat(resid, q, axis=0)


def _round(design, panel: PanelData, taus, v, resid, iteration=None):
    """One concentrated weighted least squares round (see the module docstring).

    ``design`` holds the rows [X; y]; ``resid`` the current residual
    blocks (q x N), whose check weights drive the round.  Returns the new
    slopes (q x p) and residual blocks.
    """
    q, p = len(taus), design.shape[0] - 1
    sums = np.empty((q, p + 2, panel.n_subjects))
    system = np.zeros((q * p, q * p))
    rhs = np.zeros(q * p)
    for k in range(q):
        sums[k], weighted = weighted_subject_sums(
            design, check_weight(resid[k], taus[k]), panel)
        gram = weighted[:p] @ design.T
        rows = slice(k * p, (k + 1) * p)
        system[rows, rows] = v[k] * gram[:, :p]
        rhs[rows] = v[k] * gram[:, p]
    denom = v @ sums[:, 0]
    pooled_y = v @ sums[:, p + 1]
    couplings = (v[:, None, None] * sums[:, 1:p + 1]).reshape(q * p, -1)
    system -= (couplings / denom) @ couplings.T
    rhs -= couplings @ (pooled_y / denom)
    betas = spd_solve(system, rhs, columns=panel.column_names,
                      iteration=iteration).reshape(q, p)
    alpha = (pooled_y - betas.ravel() @ couplings) / denom
    return betas, design[p] - alpha[panel.codes] - betas @ design[:p]


def _scores_vanish(design, panel: PanelData, taus, v, resid, tol) -> bool:
    """Whether every block's slope score and the pooled subject-effect score
    are within ``tol`` at the residuals ``resid``."""
    effect = np.zeros(panel.n_subjects)
    for k, tau in enumerate(taus):
        weighted = check_weight(resid[k], tau) * resid[k]
        if float(np.max(np.abs(design[:-1] @ weighted))) > tol:
            return False
        effect += v[k] * np.bincount(panel.codes, weights=weighted,
                                     minlength=panel.n_subjects)
    return float(np.max(np.abs(effect))) <= tol


def _irls(design, panel: PanelData, taus, v, betas, resid, config: IrlsConfig):
    """Concentrated rounds from (betas, resid) until the sup-norm step is
    within ``config.tol`` and the scores vanish, or the budget runs out.

    Returns (betas, resid, iterations, converged).
    """
    grad_tol = config.tol_grad * (1.0 + float(np.max(np.abs(panel.y))))
    for r in range(1, int(config.max_iter) + 1):
        new_betas, resid = _round(design, panel, taus, v, resid, iteration=r)
        delta = float(np.max(np.abs(new_betas - betas)))
        betas = new_betas
        if delta <= config.tol and _scores_vanish(design, panel, taus, v,
                                                  resid, grad_tol):
            return betas, resid, r, True
    return betas, resid, r, False


def _single_result(panel: PanelData, tau, beta, resid, iterations,
                   converged) -> FitResult:
    alpha = recover_fixed_effects(panel, beta, tau,
                                  subject_weights(resid, tau, panel))
    objective = float(np.sum(asymmetric_loss(
        panel.y - panel.X @ beta - alpha[panel.codes], tau)))
    return FitResult(tau=tau, beta=beta, alpha=alpha, residuals_star=resid,
                     iterations=iterations, converged=converged,
                     objective_value=objective)


def within_ols(panel: PanelData) -> FitResult:
    """Within estimator at tau = 0.5: demean per subject, then least squares.

    The within round, no iteration.  Raises SingularGramError when the
    demeaned design loses rank (e.g. a regressor constant within every
    subject).
    """
    betas, resid = _within_round(panel)
    return _single_result(panel, 0.5, betas[0], resid[0], 0, True)


def recover_fixed_effects(panel: PanelData, beta, tau, weights: SubjectWeights):
    """Subject effects implied by fitted slopes and final check weights.

    Each effect is the weighted subject average of y - X beta, with the
    normalized check weights of the converged fit; at tau = 0.5 this is
    the plain subject mean of the residuals.
    """
    validate_tau(tau)
    raw = panel.y - panel.X @ np.asarray(beta, dtype=float)
    return np.bincount(panel.codes, weights=weights.normalized * raw,
                       minlength=panel.n_subjects)


def fit_erfe_single(panel: PanelData, tau, config: IrlsConfig | None = None) -> FitResult:
    """Single-tau panel expectile fit by the iterative within transform.

    Starts from the within round, then runs concentrated rounds on the
    demeaned data (the q = 1 case of the module docstring) until the
    sup-norm step is within tolerance and the slope and subject-effect
    scores are negligible.
    """
    config = config or IrlsConfig()
    tau = validate_tau(tau)
    betas, resid = _within_round(panel)
    betas, resid, iterations, converged = _irls(
        panel.demeaned, panel, (tau,), np.ones(1), betas, resid, config)
    result = _single_result(panel, tau, betas[0], resid[0], iterations,
                            converged)
    if not converged:
        raise NoConvergenceError(
            f"fit at tau={tau} did not converge in {config.max_iter} iterations",
            result=result,
        )
    return result


def fit_erfe_multi(panel: PanelData, taus, v=None,
                   config: IrlsConfig | None = None) -> MultiFitResult:
    """Joint fit over a strictly increasing sequence of asymmetric points.

    The blocks share one subject effect, so each round solves the stacked
    weighted least squares problem with that effect concentrated out (see
    the module docstring), on the raw X, from the within round.  For a
    single asymmetric point this is the single-tau fit.  ``v`` holds the
    strictly positive influence weights (uniform by default).  Convergence
    requires the sup-norm step of every block to be within tolerance and
    the stacked first-order conditions (slope scores per block plus the
    pooled subject-effect score) to be negligible.
    """
    config = config or IrlsConfig()
    taus = validate_taus(taus)
    q = len(taus)
    if v is None:
        v = np.ones(q)
    v = np.asarray(v, dtype=float).ravel()
    if v.shape[0] != q:
        raise WeightDimensionMismatchError(
            f"{v.shape[0]} influence weights for {q} asymmetric points"
        )
    if np.any(v <= 0.0):
        raise ValueError("influence weights must be strictly positive")

    betas, resid = _within_round(panel, q)
    design = np.array([*panel.X.T, panel.demeaned[-1]], order="C")  # raw X, demeaned y
    betas, resid, iterations, converged = _irls(
        design, panel, taus, v, betas, resid, config)
    result = MultiFitResult(taus=taus, v=v, betas=betas, residuals_star=resid,
                            iterations=iterations, converged=converged)
    if not converged:
        raise NoConvergenceError(
            f"joint fit over taus={taus} did not converge in "
            f"{config.max_iter} iterations",
            result=result,
        )
    return result
