"""The pieces of a concentrated round: its moments, its system, and their
update from the sign flips.

Every round of ``estimator.fit_stack`` solves ``concentrated_system`` (see
the ``estimator`` module docstring) on the fit's running moments: each
block's subject sums and Gram matrix under its check weights
(``weighted_moments``).  A round is refreshed or not.  A refreshed round
first takes its panels' moments from all rows at their signs
(``sign_moments``, one pass per block), so its system is ``full_system``'s.
A check weight takes two values, psi = (1 - tau) + (2 tau - 1) [r > 0], so
the moments start as 1 - tau times their value over all rows plus 2 tau - 1
times their value over the rows with positive residuals
(``check_moments``).  After a round they move by 2 tau - 1 times the
moments of the rows whose signs flipped (``flip``), gathered so that the
work is O(flips * p^2), not a pass (``flip_moments``).  Moments moved so are
rounded otherwise than a pass would round them; ``error_scale`` bounds how
far that moves the slopes of a round that is not refreshed, from the
inverse that the round's own solve returns (``estimator._solve``).  ``digests``
condenses each panel's sign masks to 64 bits, and ``Cycles`` keeps them
round by round.
"""
from __future__ import annotations

import numpy as np

from .within import weighted_subject_sums

__all__ = [
    "Cycles",
    "check_moments",
    "concentrated_system",
    "digests",
    "error_scale",
    "flip",
    "flip_moments",
    "full_system",
    "sign_moments",
    "weighted_moments",
]


def weighted_moments(design, codes, n_subjects, weights, out=(None, None)):
    """The subject sums (A x (p + 2) x n, as ``weighted_subject_sums``) and
    the Gram matrices (A x p x (p + 1)) of A stacked panels' rows [X; y]
    ``design`` under ``weights`` (A x N): one pass over the rows.  ``out``
    may hold arrays of those shapes to write them into."""
    sums, weighted = weighted_subject_sums(design, weights, codes, n_subjects, out=out[0])
    return sums, np.matmul(weighted.transpose(1, 0, 2), design.transpose(0, 2, 1),
                           out=out[1])


def concentrated_system(v, sums, grams):
    """The concentrated normal equations (``estimator``'s docstring) of A
    stacked panels from each block's subject sums ``sums`` (A x q x (p + 2)
    x n) and Grams ``grams`` (A x q x p x (p + 1)) under its check weights.
    Returns the system (A x q*p x q*p), its right-hand side, the couplings
    v_k C_k stacked over the blocks (A x q*p x n), D and sum_k v_k c_k
    (A x n each).
    """
    items, q, p = grams.shape[:3]
    system = np.zeros((items, q * p, q * p))
    rhs = np.zeros((items, q * p))
    for k in range(q):
        rows = slice(k * p, (k + 1) * p)
        system[:, rows, rows] = v[k] * grams[:, k, :, :p]
        rhs[:, rows] = v[k] * grams[:, k, :, p]
    denom = v @ sums[:, :, 0]
    pooled_y = v @ sums[:, :, p + 1]
    couplings = (v[:, None, None] * sums[:, :, 1:p + 1]).reshape(items, q * p, sums.shape[-1])
    system -= (couplings / denom[:, None]) @ couplings.transpose(0, 2, 1)
    rhs -= (couplings @ (pooled_y / denom)[:, :, None])[:, :, 0]
    return system, rhs, couplings, denom, pooled_y


def sign_moments(design, codes, n_subjects, taus, signs, out=None):
    """The subject sums (A x q x (p + 2) x n) and Grams (A x q x p x (p + 1))
    of A stacked panels' rows ``design`` under the check weights at ``taus``
    of the residual signs ``signs`` (A x q x N): one pass over the rows per
    block, in order, each written into the block's slice of ``out`` (sums,
    Grams) when it is given, else of new arrays."""
    items, p = design.shape[0], design.shape[1] - 1
    sums, grams = out or (np.empty((items, len(taus), p + 2, n_subjects)),
                          np.empty((items, len(taus), p, p + 1)))
    for k, tau in enumerate(taus):
        weighted_moments(design, codes, n_subjects, np.where(signs[:, k], tau, 1.0 - tau),
                         out=(sums[:, k], grams[:, k]))
    return sums, grams


def full_system(design, codes, n_subjects, v, taus, signs):
    """``concentrated_system`` at the check weights at ``taus`` of the
    residual signs ``signs``, its moments taken from all rows
    (``sign_moments``)."""
    return concentrated_system(v, *sign_moments(design, codes, n_subjects, taus, signs))


def flip_moments(design, codes, n_subjects, idx, flipped, positive):
    """The change in the positive-row moments (``weighted_moments`` at the
    mask of the positive residuals) of the panels ``idx`` of a stack's rows
    ``design`` (B x (p + 1) x N) and offset codes ``codes`` (B x N) when
    their rows ``flipped`` (A x N) change sign: the rows now ``positive``
    enter and the others leave.  Each panel's flipped rows are gathered
    into a run padded with rows of weight zero, so the work is
    O(flips * p^2), not a pass."""
    items, n_obs = flipped.shape
    k = design.shape[1]
    at = np.flatnonzero(flipped)
    panel = at // n_obs
    counts = np.bincount(panel, minlength=items)
    slot = np.arange(at.size) - (np.cumsum(counts) - counts)[panel]
    # Flat indices into the stack's (B, N) of each panel's run, whose
    # padding points at the panel's first row; row j of panel b starts
    # N (b (p + 1) + j) into the flattened design.
    flat = np.repeat(n_obs * idx[:, None], counts.max(), axis=1)
    flat[panel, slot] = at + n_obs * (idx - np.arange(items))[panel]
    sign = np.zeros(flat.shape)
    sign[panel, slot] = np.where(positive.ravel()[at], 1.0, -1.0)
    into = flat + (k - 1) * n_obs * idx[:, None]
    # Codes offset as if the panels idx were the whole stack.
    shift = n_subjects * (np.arange(items) - idx)
    return weighted_moments(design.take(into[:, None] + n_obs * np.arange(k)[:, None]),
                            codes.take(flat) + shift[:, None], n_subjects, sign)


def digests(signs):
    """A 64-bit digest of each panel's sign masks (A x q x N), A of them:
    the interpreter's keyed hash (SipHash) of the packed masks, fixed for
    the life of the process, so that two masks share one with chance
    2^-64."""
    packed = np.packbits(signs.reshape(signs.shape[0], -1), axis=1)
    return np.array([hash(row) for row in map(bytes, packed)], dtype=np.int64)


def error_scale(system, inverse, grams, v):
    """Per panel, u * kappa * rho: the machine epsilon u times a bound kappa
    on the condition number of the system S scaled to a unit diagonal, S~,
    and the ratio rho of the largest weighted Gram diagonal to the system's,
    which the concentration cancels.  kappa is |S~|_F tr(S~^-1), which is
    |S~|_F |L^-1|_F^2 for S~ = L L' (Cholesky) and at most (q*p)^1.5 times
    the condition number; tr(S~^-1) is sum_i S_ii (S^-1)_ii, read from
    ``inverse``, S^-1 as the round's own solve returns it.  Rounding the
    sums by u relative to their terms moves the slopes by about this much
    relative to their scale (see ``estimator.MARGIN``); it is infinite for
    a system that the solve finds no inverse of, whose ``inverse`` is NaN."""
    items, _, p = grams.shape[:3]
    diag = np.diagonal(system, axis1=1, axis2=2)
    gram_diag = (v[:, None] * np.diagonal(grams[..., :p], axis1=2, axis2=3)).reshape(items, -1)
    with np.errstate(all="ignore"):
        scaled = system / np.sqrt(diag[:, :, None] * diag[:, None, :])
        kappa = (np.linalg.norm(scaled, axis=(1, 2))
                 * np.sum(diag * np.diagonal(inverse, axis1=1, axis2=2), axis=1))
        bound = np.finfo(float).eps * kappa * np.max(gram_diag / diag, axis=1)
    return np.where(np.isfinite(bound), bound, np.inf)


class Cycles:
    """The digests of each panel's sign masks after every round of a fit
    (``digests``; round 0 is the start), to find a pair of consecutive
    masks that repeats."""

    def __init__(self, signs):
        self.history = [digests(signs)]

    def repeats(self, idx, r):
        """Per panel of ``idx``, the earlier round whose convergence test
        round ``r`` repeats, or 0: the round j whose masks before rounds
        j - 1 and j are the masks before rounds r - 1 and r.  Pairs count
        from round 2, as round 1 steps from the within start, whose slopes
        no mask fixes."""
        if r < 3:
            return np.zeros(idx.size, dtype=int)
        h = np.stack(self.history)[:, idx]
        same = (h[:r - 2] == h[r - 2]) & (h[1:r - 1] == h[r - 1])
        return np.where(same.any(axis=0), np.argmax(same, axis=0) + 2, 0)

    def step(self, idx, signs):
        """Take the sign masks (A x q x N) of the panels ``idx`` after a round."""
        now = self.history[-1].copy()
        now[idx] = digests(signs)
        self.history.append(now)


def check_moments(all_rows, positive, taus):
    """Per block, the subject sums (B x q x (p + 2) x n) and Grams
    (B x q x p x (p + 1)) under the check weights at ``taus`` of the signs
    that ``positive`` counts: psi = (1 - tau) + (2 tau - 1) [r > 0], so
    they are 1 - tau times the moments over all rows plus 2 tau - 1 times
    those over the positive rows."""
    tau = np.array(taus)[:, None, None]
    moments = []
    for whole, part in zip(all_rows, positive):
        moments.append((1.0 - tau) * whole[:, None])
        moments[-1] += (2.0 * tau - 1.0) * part[:, None]
    return tuple(moments)


def flip(stack, idx, design, signs, new_signs, sums, grams, rise):
    """Move the check-weighted moments ``sums`` and ``grams`` of the panels
    ``idx`` (``check_moments``, in place) from their residuals' signs
    ``signs`` to ``new_signs``: by 2 tau - 1 times the moments of each
    block's flipped rows.  Returns, per panel, whether no sign flipped."""
    _, sign, part_sums, part_grams = stack.part(idx, signs, sums, grams)
    flipped = new_signs != sign
    for k in np.flatnonzero(flipped.any(axis=(0, 2)) & (rise != 0.0)).tolist():
        d_sums, d_grams = flip_moments(design, stack.codes, stack.n_subjects, idx,
                                       flipped[:, k], new_signs[:, k])
        d_sums *= rise[k]
        d_grams *= rise[k]
        part_sums[:, k] += d_sums
        part_grams[:, k] += d_grams
    if part_sums is not sums:
        sums[idx], grams[idx] = part_sums, part_grams
    return ~flipped.any(axis=(1, 2))
