"""Weighted within transforms: per-subject centering at check-weighted averages.

The fixed-effect projection is block diagonal in subjects, so applying it
never requires an N x N matrix: each observation just has the weighted
average of its own subject subtracted.  The single-tau transform centers
at the subject's check-weighted mean; the pooled multi-tau transform
subtracts one common subject average from every tau block, computed from
all blocks' check weights and the influence weights.

The fits and the sandwich covariance never build a transformed copy of
the data: they work from per-subject sums (``weighted_subject_sums``),
mostly of plainly demeaned rows (``subject_demeaned``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError, WeightDimensionMismatchError
from .panel import PanelData, check_weight, validate_tau

__all__ = [
    "PooledSubjectWeights",
    "SubjectWeights",
    "apply_pooled_within",
    "apply_within",
    "pooled_subject_weights",
    "subject_demeaned",
    "subject_weights",
    "weighted_subject_sums",
]


@dataclass(frozen=True)
class SubjectWeights:
    """Normalized check weights for one asymmetric point.

    ``normalized`` sums to one within every subject (renormalized after
    the division so the unit sums hold to machine precision);
    ``raw_subject_sums`` keeps the per-subject sums of the raw check
    weights for fixed-effect recovery.
    """

    tau: float
    normalized: np.ndarray
    raw_subject_sums: np.ndarray


@dataclass(frozen=True)
class PooledSubjectWeights:
    """Check weights of every tau block plus the pooled subject normalizers.

    ``pooled_normalizer[i]`` is sum_k v_k * (subject i's sum of the block-k
    check weights); it is strictly positive because check weights are.
    """

    taus: tuple[float, ...]
    v: np.ndarray
    psi_blocks: np.ndarray
    pooled_normalizer: np.ndarray


def _subject_sums(values: np.ndarray, panel: PanelData) -> np.ndarray:
    return np.bincount(panel.codes, weights=values, minlength=panel.n_subjects)


def subject_demeaned(rows, panel: PanelData) -> np.ndarray:
    """A C-ordered copy of ``rows`` (k x N, or a list of k N-vectors) with
    each subject's plain mean subtracted from every row: the unweighted
    within transform."""
    out = np.array(rows, dtype=float, order="C", ndmin=2)
    for row in out:
        row -= (_subject_sums(row, panel) / panel.counts)[panel.codes]
    return out


def weighted_subject_sums(rows, weights, panel: PanelData):
    """Per-subject sums of ``rows`` (k x N) under ``weights``.

    Returns ``sums`` of shape (k + 1, n), whose row 0 holds each subject's
    sum of the weights and row j + 1 its sum of the weights times
    ``rows[j]``, and the weighted rows themselves, from which callers form
    the weighted Gram matrix.  These are the sufficient statistics of every
    weighted within transform: the weighted subject means are
    ``sums[1:] / sums[0]``.
    """
    weighted = rows * weights
    sums = np.empty((rows.shape[0] + 1, panel.n_subjects))
    sums[0] = _subject_sums(weights, panel)
    for j, row in enumerate(weighted):
        sums[j + 1] = _subject_sums(row, panel)
    return sums, weighted


def subject_weights(residuals, tau, panel: PanelData) -> SubjectWeights:
    """Check weights of the residuals, normalized to unit sums per subject."""
    tau = validate_tau(tau)
    residuals = np.asarray(residuals, dtype=float).ravel()
    if residuals.shape[0] != panel.n_obs:
        raise ShapeMismatchError(
            f"{residuals.shape[0]} residuals for a panel of {panel.n_obs} rows"
        )
    psi = check_weight(residuals, tau)
    raw = _subject_sums(psi, panel)
    w = psi / raw[panel.codes]
    w /= _subject_sums(w, panel)[panel.codes]
    return SubjectWeights(tau=tau, normalized=w, raw_subject_sums=raw)


def apply_within(values, weights: SubjectWeights, panel: PanelData):
    """Subtract each subject's weighted average from its observations.

    Works on an N-vector or column-wise on an N x p matrix; linear in the
    input, idempotent for fixed weights, and exactly annihilates anything
    constant within each subject.
    """
    v = np.asarray(values, dtype=float)
    if v.shape[:1] != (panel.n_obs,):
        raise ShapeMismatchError(
            f"input with {v.shape[0] if v.ndim else 0} rows does not match "
            f"panel of {panel.n_obs} observations"
        )
    w = weights.normalized
    if v.ndim == 1:
        avg = _subject_sums(w * v, panel)
        return v - avg[panel.codes]
    if v.ndim == 2:
        out = np.empty_like(v)
        for j in range(v.shape[1]):
            avg = _subject_sums(w * v[:, j], panel)
            out[:, j] = v[:, j] - avg[panel.codes]
        return out
    raise ShapeMismatchError("expected a vector or a matrix")


def pooled_subject_weights(residual_blocks, taus, v, panel: PanelData) -> PooledSubjectWeights:
    """Check weights per tau block and the pooled per-subject normalizers.

    ``residual_blocks`` stacks one residual vector per asymmetric point
    (shape (q, N)); ``v`` holds the strictly positive influence weights.
    """
    blocks = np.atleast_2d(np.asarray(residual_blocks, dtype=float))
    taus = tuple(validate_tau(t) for t in np.atleast_1d(taus))
    q = len(taus)
    if blocks.shape != (q, panel.n_obs):
        raise ShapeMismatchError(
            f"residual blocks {blocks.shape} do not match "
            f"({q}, {panel.n_obs})"
        )
    v = np.asarray(v, dtype=float).ravel()
    if v.shape[0] != q:
        raise WeightDimensionMismatchError(
            f"{v.shape[0]} influence weights for {q} asymmetric points"
        )
    if np.any(v <= 0.0):
        raise ValueError("influence weights must be strictly positive")

    psi = np.empty_like(blocks)
    normalizer = np.zeros(panel.n_subjects)
    for k in range(q):
        psi[k] = check_weight(blocks[k], taus[k])
        normalizer += v[k] * _subject_sums(psi[k], panel)
    return PooledSubjectWeights(taus=taus, v=v, psi_blocks=psi,
                                pooled_normalizer=normalizer)


def apply_pooled_within(value_blocks, pw: PooledSubjectWeights, panel: PanelData):
    """Pooled within transform: one common subject average per observation.

    For each subject the average pooling every block's check weights
    (scaled by the influence weights) is subtracted from all q blocks, so
    inputs that are subject-constant and replicated across blocks map to
    zero.  Accepts blocks of vectors (q, N) or of matrices (q, N, p).
    """
    u = np.asarray(value_blocks, dtype=float)
    q = len(pw.taus)
    if u.ndim not in (2, 3) or u.shape[0] != q or u.shape[1] != panel.n_obs:
        raise ShapeMismatchError(
            f"value blocks {u.shape} do not match ({q}, {panel.n_obs}, ...)"
        )
    if u.ndim == 2:
        num = np.zeros(panel.n_subjects)
        for k in range(q):
            num += pw.v[k] * _subject_sums(pw.psi_blocks[k] * u[k], panel)
        avg = num / pw.pooled_normalizer
        return u - avg[panel.codes][None, :]
    out = np.empty_like(u)
    for j in range(u.shape[2]):
        out[:, :, j] = apply_pooled_within(u[:, :, j], pw, panel)
    return out
