"""Weighted within transforms: per-subject centering at check-weighted averages.

The fixed-effect projection is block diagonal in subjects, so applying it
never requires an N x N matrix: each observation just has the weighted
average of its own subject subtracted.  For one residual vector that is
the subject's check-weighted mean; for q residual blocks (one per
asymmetric point) it is one common subject average, pooling every block's
check weights scaled by the influence weights, subtracted from all blocks.

The fits and the sandwich covariance never build a transformed copy of
the data: they work from per-subject sums (``weighted_subject_sums``),
mostly of plainly demeaned rows (``subject_demeaned``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError, WeightDimensionMismatchError
from .linalg import annihilated_columns
from .panel import PanelData, check_weight, validate_tau

__all__ = [
    "SubjectWeights",
    "apply_within",
    "subject_demeaned",
    "subject_weights",
    "weighted_subject_sums",
    "within_constant_columns",
]


@dataclass(frozen=True)
class SubjectWeights:
    """Normalized check weights of one residual vector or of q residual blocks.

    ``normalized`` has the shape of the residuals, (N,) or (q, N), and
    holds each observation's check weight (times its block's influence
    weight) over its subject's total, so that summed over a subject's rows
    of every block it is one; it is renormalized after the division so the
    unit sums hold to machine precision.
    """

    taus: tuple[float, ...]
    normalized: np.ndarray


def _subject_sums(values: np.ndarray, panel: PanelData) -> np.ndarray:
    return np.bincount(panel.codes, weights=values, minlength=panel.n_subjects)


def _block_sums(values: np.ndarray, panel: PanelData) -> np.ndarray:
    """Per-subject sums of an N-vector, or over the rows of every block of
    q blocks (q x N), accumulated from block 0 on."""
    if values.ndim == 1:
        return _subject_sums(values, panel)
    total = _subject_sums(values[0], panel)
    for block in values[1:]:
        total += _subject_sums(block, panel)
    return total


def subject_demeaned(rows, panel: PanelData) -> np.ndarray:
    """A C-ordered copy of ``rows`` (k x N, or a list of k N-vectors) with
    each subject's plain mean subtracted from every row: the unweighted
    within transform."""
    out = np.array(rows, dtype=float, order="C", ndmin=2)
    for row in out:
        row -= (_subject_sums(row, panel) / panel.counts)[panel.codes]
    return out


def within_constant_columns(panel: PanelData, demeaned_X) -> np.ndarray:
    """Indices of the regressors that are constant within every subject.

    ``demeaned_X`` holds the panel's regressors demeaned per subject, one
    row per regressor (as from ``subject_demeaned``); a regressor is
    within-constant when demeaning leaves a negligible norm relative to
    its raw norm.  No weighted within transform can identify such a
    regressor.
    """
    scale = np.sqrt(np.einsum("ij,ij->j", panel.X, panel.X))
    return annihilated_columns(np.asarray(demeaned_X).T, scale)


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


def subject_weights(residuals, taus, panel: PanelData, v=None) -> SubjectWeights:
    """Check weights of the residuals, normalized to unit sums per subject.

    ``residuals`` is one N-vector with one asymmetric point ``taus``, or
    q residual blocks (q x N) with q asymmetric points and the strictly
    positive influence weights ``v`` (uniform by default); the blocks'
    points may repeat.  Block weights pool every block of a subject.
    """
    blocks = np.asarray(residuals, dtype=float)
    taus = tuple(validate_tau(t) for t in np.atleast_1d(taus))
    q = len(taus)
    expected = (panel.n_obs,) if blocks.ndim == 1 else (q, panel.n_obs)
    if blocks.shape != expected or (blocks.ndim == 1 and q != 1):
        raise ShapeMismatchError(
            f"residuals {blocks.shape} for {q} asymmetric point(s) do not "
            f"match a panel of {panel.n_obs} rows"
        )
    psi = np.empty_like(blocks)
    rows = psi.reshape(q, -1)
    for row, r, tau in zip(rows, blocks.reshape(q, -1), taus):
        row[:] = check_weight(r, tau)
    if v is not None:
        v = np.asarray(v, dtype=float).ravel()
        if v.shape[0] != q:
            raise WeightDimensionMismatchError(
                f"{v.shape[0]} influence weights for {q} asymmetric points"
            )
        if np.any(v <= 0.0):
            raise ValueError("influence weights must be strictly positive")
        rows *= v[:, None]
    psi /= _block_sums(psi, panel)[panel.codes]
    psi /= _block_sums(psi, panel)[panel.codes]
    return SubjectWeights(taus=taus, normalized=psi)


def apply_within(values, weights: SubjectWeights, panel: PanelData):
    """Subtract each subject's weighted average from its observations.

    With one-vector weights ``values`` is an N-vector or an N x p matrix;
    with block weights it is q blocks of either, (q, N) or (q, N, p), and
    the one pooled subject average is subtracted from every block.  Works
    column by column; linear in the input, idempotent for fixed weights,
    and exactly annihilates anything constant within each subject (and
    replicated across the blocks).
    """
    u = np.asarray(values, dtype=float)
    w = weights.normalized
    if u.shape[:w.ndim] != w.shape or u.ndim > w.ndim + 1:
        raise ShapeMismatchError(
            f"input {u.shape} does not match within weights {w.shape} "
            "(with an optional trailing column axis)"
        )
    columns = u[..., None] if u.ndim == w.ndim else u
    out = np.empty_like(columns)
    for j in range(columns.shape[-1]):
        col = columns[..., j]
        out[..., j] = col - _block_sums(w * col, panel)[panel.codes]
    return out.reshape(u.shape)
