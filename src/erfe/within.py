"""Weighted within transforms: per-subject centering at check-weighted averages.

The fixed-effect projection is block diagonal in subjects, so applying it
never requires an N x N matrix: each observation just has the weighted
average of its own subject subtracted, the subject's check-weighted mean
of one residual vector.  A joint fit's shared subject average is that of
``estimator.concentrated_system``.

The fits and the sandwich covariance never build a transformed copy of
the data: the estimator concentrates the effects out of per-subject sums
(``weighted_subject_sums``) of the rows ``estimator.fit_design`` picks,
taken for a whole stack of panels (``PanelStack``) at once, whose plain
within transform ``panel.build_stack`` computes once.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatchError
from .panel import PanelData, check_weight, validate_tau

__all__ = [
    "apply_within",
    "subject_weights",
    "weighted_subject_sums",
]


def _subject_sums(values: np.ndarray, panel: PanelData) -> np.ndarray:
    return np.bincount(panel.codes, weights=values, minlength=panel.n_subjects)


def weighted_subject_sums(rows, weights, codes, n_subjects: int, out=None):
    """Per-subject sums of the rows of B stacked panels under ``weights``.

    ``rows`` is (B, k, N), ``weights`` (B, N) and ``codes`` the panels'
    subject codes offset as in ``PanelStack`` (B x N, panel b's codes
    starting at b * ``n_subjects``).  Returns ``sums`` of shape
    (B, k + 1, n), whose row 0 holds each subject's sum of the weights and
    row j + 1 its sum of the weights times ``rows[:, j]``, written into
    ``out`` when it is given, and the weighted rows but the last, laid out
    (k - 1, B, N) so that each weighted row of the stack is one contiguous
    run, from which callers form the weighted Gram matrices of [X; y]: the
    last row, y, enters them only as a column, so its weighted row is
    summed and dropped.  These are the sufficient statistics of every
    weighted within transform: the weighted subject means are
    ``sums[:, 1:] / sums[:, :1]``.
    """
    n_items, n_bins = weights.shape[0], weights.shape[0] * n_subjects
    codes = codes.ravel()
    sums = np.empty((n_items, rows.shape[1] + 1, n_subjects)) if out is None else out

    def into(j, values):
        sums[:, j] = np.bincount(codes, weights=values.ravel(),
                                 minlength=n_bins).reshape(n_items, n_subjects)

    into(0, weights)
    into(rows.shape[1], rows[:, -1] * weights)
    weighted = np.empty((rows.shape[1] - 1, *weights.shape))
    for j in range(rows.shape[1] - 1):
        np.multiply(rows[:, j], weights, out=weighted[j])
        into(j + 1, weighted[j])
    return sums, weighted


def subject_weights(residuals, tau, panel: PanelData) -> np.ndarray:
    """Check weights at ``tau`` of one residual N-vector, normalized to unit
    sums per subject.

    Returns an N-vector holding each observation's check weight over its
    subject's total, so that summed over a subject's rows it is one; it is
    renormalized after the division so the unit sums hold to machine
    precision.
    """
    resid = np.asarray(residuals, dtype=float)
    tau = validate_tau(tau)
    if resid.shape != (panel.n_obs,):
        raise ShapeMismatchError(
            f"residuals {resid.shape} do not match a panel of {panel.n_obs} rows"
        )
    psi = check_weight(resid, tau)
    psi /= _subject_sums(psi, panel)[panel.codes]
    psi /= _subject_sums(psi, panel)[panel.codes]
    return psi


def apply_within(values, weights, panel: PanelData):
    """Subtract each subject's weighted average from its observations.

    ``weights`` are the normalized weights of ``subject_weights``.
    ``values`` is an N-vector or an N x p matrix, worked on column by
    column.  Linear in the input, idempotent for fixed weights, and exactly
    annihilates anything constant within each subject.
    """
    u = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if u.shape[:1] != w.shape or u.ndim > 2:
        raise ShapeMismatchError(
            f"input {u.shape} does not match within weights {w.shape} "
            "(with an optional trailing column axis)"
        )
    columns = u[:, None] if u.ndim == 1 else u
    out = np.empty_like(columns)
    for j in range(columns.shape[1]):
        col = columns[:, j]
        out[:, j] = col - _subject_sums(w * col, panel)[panel.codes]
    return out.reshape(u.shape)
