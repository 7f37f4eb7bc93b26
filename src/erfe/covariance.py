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

from .errors import (
    NotPositiveSemidefiniteError,
    SingularBreadError,
    SingularGramError,
)
from .estimator import FitResult, MultiFitResult, StackFit
from .linalg import spd_inverse
from .panel import PanelData, PanelStack, check_weight, stack_panels
from .within import weighted_subject_sums

__all__ = [
    "SandwichCovariance",
    "conf_intervals",
    "normal_quantile",
    "sandwich_multi",
    "sandwich_single",
    "sandwich_stack",
    "validate_level",
]


@dataclass(frozen=True)
class SandwichCovariance:
    """Assembled sandwich: meat ``d0_hat``, bread factor ``d1_hat``,
    variance matrix ``vc`` of the stacked coefficients and its
    square-root diagonal ``se``; from ``sandwich_stack``, each array has a
    leading panel axis."""

    d0_hat: np.ndarray
    d1_hat: np.ndarray
    vc: np.ndarray
    se: np.ndarray


def _breads_and_scores(x0, codes, n_subjects, resid, taus, v):
    """Per-block weighted Grams of the transformed X, and per-subject scores,
    of A stacked panels.

    The transform subtracts from each subject's rows of X its average m
    under the check weights psi_k of the final residual blocks ``resid``
    (A x q x N), pooled over the blocks with the influence weights ``v``;
    for one block it is the single-tau weighted within transform.
    Everything comes from per-subject sums (D_k of psi_k, C_k of psi_k x,
    s_k of psi_k r_k, S_k of psi_k r_k x): X*' Psi_k X* = G_k - C_k m' -
    m C_k' + m D_k m' and subject i's block-k score is S_ki - m_i s_ki.
    The transform ignores subject-constant shifts of X, so it runs on the
    demeaned X ``x0`` (A x p x N, subject codes ``codes`` offset as in
    ``PanelStack``), where these differences do not cancel.  Returns the
    breads (A x p x p each) and the scores (A x p x n each), one per block.
    """
    psi = [check_weight(resid[:, k], tau) for k, tau in enumerate(taus)]
    sums, grams = [], []
    for w in psi:
        sums_k, weighted = weighted_subject_sums(x0, w, codes, n_subjects)
        sums.append(sums_k)
        grams.append(weighted @ x0.transpose(0, 2, 1))
    mean = (sum(vk * s[:, 1:] for vk, s in zip(v, sums))
            / sum(vk * s[:, :1] for vk, s in zip(v, sums)))
    mean_t = mean.transpose(0, 2, 1)
    breads, scores = [], []
    for k, (w, s, gram) in enumerate(zip(psi, sums, grams)):
        cross = s[:, 1:] @ mean_t
        breads.append(gram - cross - cross.transpose(0, 2, 1)
                      + (mean * s[:, :1]) @ mean_t)
        score_sums, _ = weighted_subject_sums(x0, w * resid[:, k], codes, n_subjects)
        scores.append(score_sums[:, 1:] - mean * score_sums[:, :1])
    return breads, scores


def _assemble(stack: PanelStack, idx, resid, taus, v):
    """The sandwiches of ``sandwich_multi`` for the panels ``idx`` of
    ``stack``, from their residual blocks ``resid`` (A x q x N) and the
    influence weights ``v``; the block-diagonal breads are inverted block
    by block.

    Returns one SandwichCovariance whose arrays have a leading panel axis,
    and per panel the error that stopped its sandwich (None where none did).
    """
    q, p = len(taus), stack.X.shape[-1]
    n_obs = stack.y.shape[1]
    codes, x0 = stack.part(idx, stack.demeaned[:, :-1])
    breads, scores = _breads_and_scores(x0, codes, stack.n_subjects, resid, taus, v)
    errors = [None] * idx.size
    d0 = np.zeros((idx.size, q * p, q * p))
    d1 = np.zeros((idx.size, q * p, q * p))
    bread_inv = np.zeros((idx.size, q * p, q * p))
    for k in range(q):
        rows = slice(k * p, (k + 1) * p)
        for l in range(k, q):
            cols = slice(l * p, (l + 1) * p)
            block = v[k] * v[l] * (scores[k] @ scores[l].transpose(0, 2, 1)) / n_obs
            d0[:, rows, cols] = block
            if l != k:
                d0[:, cols, rows] = block.transpose(0, 2, 1)
        d1[:, rows, rows] = v[k] * breads[k] / n_obs
        try:
            bread_inv[:, rows, rows] = spd_inverse(d1[:, rows, rows])
        except SingularGramError as exc:
            bread_inv[:, rows, rows] = exc.result
            for i in np.flatnonzero(exc.failed).tolist():
                errors[i] = errors[i] or SingularBreadError(str(exc))
    vc = bread_inv @ d0 @ bread_inv / n_obs
    vc = (vc + vc.transpose(0, 2, 1)) / 2.0
    ok = np.array([e is None for e in errors], dtype=bool)
    eigmin = np.full(idx.size, np.nan)
    eigmin[ok] = np.min(np.linalg.eigvalsh(vc[ok]), axis=1)
    floor = -1e-10 * np.maximum(np.trace(vc, axis1=1, axis2=2), np.finfo(float).tiny)
    for i in np.flatnonzero(ok & (eigmin < floor)).tolist():
        errors[i] = NotPositiveSemidefiniteError(
            f"variance matrix has eigenvalue {eigmin[i]:.3e} below {floor[i]:.3e}"
        )
    se = np.sqrt(np.maximum(np.diagonal(vc, axis1=1, axis2=2), 0.0))
    return SandwichCovariance(d0_hat=d0, d1_hat=d1, vc=vc, se=se), tuple(errors)


def _one(cov: SandwichCovariance, errors) -> SandwichCovariance:
    """The sandwich of a one-panel stack from ``_assemble``, or its error
    raised."""
    if errors[0] is not None:
        raise errors[0]
    return SandwichCovariance(d0_hat=cov.d0_hat[0], d1_hat=cov.d1_hat[0],
                              vc=cov.vc[0], se=cov.se[0])


def sandwich_single(panel: PanelData, fit: FitResult) -> SandwichCovariance:
    """Cluster-robust covariance of a single-tau fit: the q = 1 case of
    ``sandwich_multi``.

    Both matrices are rebuilt from the converged transformed residuals:
    the transform uses their check weights, the meat sums per-subject
    score outer products, the bread is the weighted Gram.
    """
    return _one(*_assemble(stack_panels([panel]), np.arange(1),
                          fit.residuals_star[None, None], (fit.tau,), np.ones(1)))


def sandwich_multi(panel: PanelData, fit: MultiFitResult) -> SandwichCovariance:
    """Cluster-robust covariance of a joint multi-tau fit.

    The meat is blocked over pairs of asymmetric points with the influence
    weights multiplying each side; the bread is block diagonal in the
    asymmetric points.  The stacked variance matrix covers the q*p
    coefficients in block order.
    """
    return _one(*_assemble(stack_panels([panel]), np.arange(1),
                          fit.residuals_star[None], fit.taus, fit.v))


def sandwich_stack(stack: PanelStack, fit: StackFit):
    """The sandwiches of every fit of ``fit`` that converged, in one call:
    per panel the joint sandwich of ``sandwich_multi`` when ``fit.joint``,
    else one sandwich of ``sandwich_single`` per asymmetric point.

    Returns one SandwichCovariance whose arrays have a leading panel axis,
    ``se`` (B x q*p) and the matrices (B x q*p x q*p) in block order, and
    per (panel, point) the error that stopped its fit or its sandwich (None
    where neither was stopped).  Entries of a fit without a sandwich are
    NaN, and so are the matrices' blocks between two points fitted on their
    own: their covariance is not estimated.
    """
    q, p = len(fit.taus), stack.X.shape[-1]
    fields = {name: np.full((stack.size, q * p, q * p), np.nan)
              for name in ("d0_hat", "d1_hat", "vc")}
    fields["se"] = np.full((stack.size, q * p), np.nan)
    errors = [list(row) for row in fit.errors]
    for k, n in [(0, q)] if fit.joint else [(k, 1) for k in range(q)]:
        points, rows = slice(k, k + n), slice(k * p, (k + n) * p)
        idx = np.flatnonzero([row[k] is None for row in fit.errors])
        _, resid = stack.part(idx, fit.residuals_star[:, points])
        part, part_errors = _assemble(stack, idx, resid, fit.taus[points], fit.v[points])
        for name in ("d0_hat", "d1_hat", "vc"):
            fields[name][idx, rows, rows] = getattr(part, name)
        fields["se"][idx, rows] = part.se
        for i, error in zip(idx.tolist(), part_errors):
            errors[i][points] = [error] * n
    return SandwichCovariance(**fields), tuple(map(tuple, errors))


def normal_quantile(prob: float) -> float:
    """Quantile of the standard normal distribution."""
    if not 0.0 < prob < 1.0:
        raise ValueError("probability must lie in (0, 1)")
    # Imported here: scipy.special takes ~0.3 s to import; only intervals use it.
    from scipy import special

    return float(special.ndtri(prob))


def validate_level(level) -> float:
    """A confidence level as a float strictly between 0 and 1."""
    level = float(level)
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie in (0, 1)")
    return level


def conf_intervals(fit, cov: SandwichCovariance, level: float = 0.95) -> np.ndarray:
    """Large-sample confidence intervals, one (lower, upper) row per coefficient.

    For a joint fit the rows follow the stacked block order of the
    covariance; for a ``StackFit`` with the covariance of
    ``sandwich_stack`` there is one such table per panel.  ``level`` must
    lie strictly between 0 and 1.
    """
    level = validate_level(level)
    estimates = np.asarray(fit.beta if isinstance(fit, FitResult) else fit.betas,
                           dtype=float)
    if estimates.size != cov.se.size:
        raise ValueError("fit and covariance disagree on coefficient count")
    z = normal_quantile((1.0 + level) / 2.0)
    half = z * cov.se
    estimates = estimates.reshape(half.shape)
    return np.stack([estimates - half, estimates + half], axis=-1)
