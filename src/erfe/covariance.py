"""Robust sandwich covariance for the within-transformed expectile fits.

The meat clusters score outer products by subject (observations are
dependent within a subject, independent across subjects); the bread is
the check-weighted Gram of the transformed design.  The variance of the
coefficient estimates divides the sandwich by the total observation
count, matching the root-(nm) normalization of the limit theory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import (
    NotPositiveSemidefiniteError,
    SingularBreadError,
    SingularGramError,
)
from .estimator import FitResult, MultiFitResult
from .linalg import spd_inverse
from .panel import PanelData, check_weight
from .within import subject_demeaned, weighted_subject_sums

__all__ = [
    "SandwichCovariance",
    "conf_intervals",
    "normal_quantile",
    "sandwich_multi",
    "sandwich_single",
]


@dataclass(frozen=True)
class SandwichCovariance:
    """Assembled sandwich: meat ``d0_hat``, bread factor ``d1_hat``,
    variance matrix ``vc`` of the stacked coefficients and its
    square-root diagonal ``se``."""

    d0_hat: np.ndarray
    d1_hat: np.ndarray
    vc: np.ndarray
    se: np.ndarray


def _breads_and_scores(panel: PanelData, resid, taus, v):
    """Per-block weighted Grams of the transformed X, and per-subject scores.

    The transform subtracts from each subject's rows of X its average m
    under the check weights psi_k of the final residual blocks ``resid``
    (q x N), pooled over the blocks with the influence weights ``v``; for
    one block it is the single-tau weighted within transform.  Everything
    comes from per-subject sums (D_k of psi_k, C_k of psi_k x, s_k of
    psi_k r_k, S_k of psi_k r_k x): X*' Psi_k X* = G_k - C_k m' - m C_k' +
    m D_k m' and subject i's block-k score is S_ki - m_i s_ki.  The
    transform ignores subject-constant shifts of X, so it runs on the
    demeaned X, where these differences do not cancel.  Returns the breads
    (p x p each) and the scores (p x n each), one per block.
    """
    x0 = subject_demeaned(panel.X.T, panel)
    psi = [check_weight(r, tau) for r, tau in zip(resid, taus)]
    sums, grams = [], []
    for w in psi:
        sums_k, weighted = weighted_subject_sums(x0, w, panel)
        sums.append(sums_k)
        grams.append(weighted @ x0.T)
    mean = (sum(vk * s[1:] for vk, s in zip(v, sums))
            / sum(vk * s[0] for vk, s in zip(v, sums)))
    breads, scores = [], []
    for w, r, s, gram in zip(psi, resid, sums, grams):
        cross = s[1:] @ mean.T
        breads.append(gram - cross - cross.T + (mean * s[0]) @ mean.T)
        score_sums, _ = weighted_subject_sums(x0, w * r, panel)
        scores.append(score_sums[1:] - mean * score_sums[0])
    return breads, scores


def _assemble(panel: PanelData, resid, taus, v) -> SandwichCovariance:
    """The sandwich of ``sandwich_multi`` from residual blocks ``resid``
    (q x N) and influence weights ``v``; its block-diagonal bread is
    inverted block by block."""
    q = len(taus)
    p = panel.n_regressors
    n_obs = panel.n_obs
    breads, scores = _breads_and_scores(panel, resid, taus, v)
    d0 = np.zeros((q * p, q * p))
    d1 = np.zeros((q * p, q * p))
    bread_inv = np.zeros((q * p, q * p))
    for k in range(q):
        rows = slice(k * p, (k + 1) * p)
        for l in range(k, q):
            cols = slice(l * p, (l + 1) * p)
            block = v[k] * v[l] * (scores[k] @ scores[l].T) / n_obs
            d0[rows, cols] = block
            if l != k:
                d0[cols, rows] = block.T
        d1[rows, rows] = v[k] * breads[k] / n_obs
        try:
            bread_inv[rows, rows] = spd_inverse(d1[rows, rows])
        except SingularGramError as exc:
            raise SingularBreadError(str(exc)) from None
    vc = bread_inv @ d0 @ bread_inv / n_obs
    vc = (vc + vc.T) / 2.0
    eigmin = float(np.min(np.linalg.eigvalsh(vc)))
    floor = -1e-10 * max(float(np.trace(vc)), np.finfo(float).tiny)
    if eigmin < floor:
        raise NotPositiveSemidefiniteError(
            f"variance matrix has eigenvalue {eigmin:.3e} below {floor:.3e}"
        )
    se = np.sqrt(np.maximum(np.diag(vc), 0.0))
    return SandwichCovariance(d0_hat=d0, d1_hat=d1, vc=vc, se=se)


def sandwich_single(panel: PanelData, fit: FitResult) -> SandwichCovariance:
    """Cluster-robust covariance of a single-tau fit: the q = 1 case of
    ``sandwich_multi``.

    Both matrices are rebuilt from the converged transformed residuals:
    the transform uses their check weights, the meat sums per-subject
    score outer products, the bread is the weighted Gram.
    """
    return _assemble(panel, fit.residuals_star[None], (fit.tau,), np.ones(1))


def sandwich_multi(panel: PanelData, fit: MultiFitResult) -> SandwichCovariance:
    """Cluster-robust covariance of a joint multi-tau fit.

    The meat is blocked over pairs of asymmetric points with the influence
    weights multiplying each side; the bread is block diagonal in the
    asymmetric points.  The stacked variance matrix covers the q*p
    coefficients in block order.
    """
    return _assemble(panel, fit.residuals_star, fit.taus, fit.v)


def normal_quantile(prob: float) -> float:
    """Quantile of the standard normal distribution."""
    if not 0.0 < prob < 1.0:
        raise ValueError("probability must lie in (0, 1)")
    return float(special.ndtri(prob))


def conf_intervals(fit, cov: SandwichCovariance, level: float = 0.95) -> np.ndarray:
    """Large-sample confidence intervals, one (lower, upper) row per coefficient.

    For a joint fit the rows follow the stacked block order of the
    covariance.  ``level`` must lie strictly between 0 and 1.
    """
    level = float(level)
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie in (0, 1)")
    if isinstance(fit, MultiFitResult):
        estimates = fit.betas.ravel()
    else:
        estimates = np.asarray(fit.beta, dtype=float)
    if estimates.shape[0] != cov.se.shape[0]:
        raise ValueError("fit and covariance disagree on coefficient count")
    z = normal_quantile((1.0 + level) / 2.0)
    half = z * cov.se
    return np.column_stack([estimates - half, estimates + half])
