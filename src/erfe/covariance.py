"""Robust sandwich covariance for the within-transformed expectile fits.

The meat clusters score outer products by subject (observations are
dependent within a subject, independent across subjects); the bread is
the system the fit solves, ``estimator.concentrated_system`` at the final
residuals, so the covariance is that of the fully profiled M-estimator
(Stefanski and Boos, The calculus of M-estimation, 2002).  The estimator
hands over that system (``estimator.fit_system``): the one its last round
solved, when the final residuals have the signs it was built on and the
stack is the fit's, else assembled once more; this module only sums the
scores.  The variance of the coefficient estimates divides the sandwich
by the total observation count, matching the root-(nm) normalization of
the limit theory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveSemidefiniteError, SingularBreadError
from .estimator import (
    FitResult,
    MultiFitResult,
    StackFit,
    fit_regressors,
    fit_slices,
    fit_system,
)
from .expectiles import normal_quantile
from .linalg import spd_inverse
from .panel import PanelData, PanelStack, check_weight, stack_panels
from .within import weighted_subject_sums

__all__ = [
    "SandwichCovariance",
    "conf_intervals",
    "sandwich_multi",
    "sandwich_single",
    "sandwich_stack",
    "validate_level",
]


@dataclass(frozen=True)
class SandwichCovariance:
    """Assembled sandwich: meat ``d0_hat``, bread ``d1_hat`` (the fit's
    concentrated system over the observation count, which couples the
    points of a joint fit), variance matrix ``vc`` of the stacked
    coefficients and its square-root diagonal ``se``; from
    ``sandwich_stack``, each array has a leading panel axis."""

    d0_hat: np.ndarray
    d1_hat: np.ndarray
    vc: np.ndarray
    se: np.ndarray


def _sandwiches(stack: PanelStack, idx, resid, taus, v, last=None):
    """The sandwiches of the panels ``idx`` of ``stack`` for their fit at
    ``taus`` (one point, or several fitted jointly with the influence
    weights ``v``), from the residual blocks ``resid`` (B x q x N) and the
    fit's ``LastSystem`` ``last``, if any.

    The bread is the fit's concentrated system over N, on the fit's own
    design (``estimator.fit_system``).  Subject i's block-k score is v_k
    (S_ki - C_ki D_i^-1 sum_l v_l s_li), with S_ki and s_ki its sums of
    psi_k r_k x and psi_k r_k, read from a view of the fit's regressor rows.
    Returns one SandwichCovariance with a leading panel axis, and per panel
    the error that stopped its sandwich (None where none did).
    """
    q, p = len(taus), stack.X.shape[-1]
    n_obs, n_subjects = stack.y.shape[1], stack.n_subjects
    system, couplings, denom = fit_system(stack, idx, resid, taus, v, last)
    codes, rows, resid = stack.part(idx, fit_regressors(stack, q), resid)
    scores = np.empty(couplings.shape)
    pooled = np.zeros(denom.shape)
    for k, tau in enumerate(taus):
        sums, _ = weighted_subject_sums(rows, check_weight(resid[:, k], tau) * resid[:, k],
                                        codes, n_subjects)
        scores[:, k * p:(k + 1) * p] = v[k] * sums[:, 1:]
        pooled += v[k] * sums[:, 0]
    scores -= couplings * (pooled / denom)[:, None]
    d0 = scores @ scores.transpose(0, 2, 1) / n_obs
    d1 = system / n_obs
    bread_inv, problems = spd_inverse(d1)
    errors = [None if problem is None else SingularBreadError(problem)
              for problem in problems]
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
    """The sandwich of a one-panel stack from ``_sandwiches``, or its error
    raised."""
    if errors[0] is not None:
        raise errors[0]
    return SandwichCovariance(d0_hat=cov.d0_hat[0], d1_hat=cov.d1_hat[0],
                              vc=cov.vc[0], se=cov.se[0])


def sandwich_single(panel: PanelData, fit: FitResult) -> SandwichCovariance:
    """Cluster-robust covariance of a single-tau fit: the q = 1 case of
    ``sandwich_multi``.

    Both matrices are rebuilt from the converged transformed residuals:
    the meat sums per-subject score outer products, the bread is the
    fit's concentrated system (``estimator.concentrated_system``) at those
    residuals, on the demeaned design, over the observation count.  A
    ``FitResult`` keeps no system, so ``estimator.fit_system`` assembles it.
    """
    return _one(*_sandwiches(stack_panels([panel]), np.arange(1),
                             fit.residuals_star[None, None], (fit.tau,), np.ones(1)))


def sandwich_multi(panel: PanelData, fit: MultiFitResult) -> SandwichCovariance:
    """Cluster-robust covariance of a joint multi-tau fit.

    The meat is blocked over pairs of asymmetric points with the influence
    weights multiplying each side; the bread is the fit's whole q*p
    system, whose blocks between two points are the couplings through the
    shared subject effect, and is inverted as one matrix.  The stacked
    variance matrix covers the q*p coefficients in block order.
    """
    return _one(*_sandwiches(stack_panels([panel]), np.arange(1),
                             fit.residuals_star[None], fit.taus, fit.v))


def sandwich_stack(stack: PanelStack, fit: StackFit):
    """The sandwiches of every fit of ``fit`` that converged, in one call:
    per panel the joint sandwich of ``sandwich_multi`` (its bread the whole
    q*p system) when ``fit.joint``, else one of ``sandwich_single`` per point.
    Each bread is the fit's last system (``fit.systems``) where the final
    residuals have the signs it was built on and ``stack`` is the stack
    ``fit`` was fitted on; any other is assembled from ``stack``.

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
    for f, points in enumerate(fit_slices(q, fit.joint)):
        n, rows = points.stop - points.start, slice(points.start * p, points.stop * p)
        idx = np.flatnonzero([row[points.start] is None for row in fit.errors])
        part, part_errors = _sandwiches(stack, idx, fit.residuals_star[:, points],
                                        fit.taus[points], fit.v[points],
                                        fit.systems[f])
        for name in ("d0_hat", "d1_hat", "vc"):
            fields[name][idx, rows, rows] = getattr(part, name)
        fields["se"][idx, rows] = part.se
        for i, error in zip(idx.tolist(), part_errors):
            errors[i][points] = [error] * n
    return SandwichCovariance(**fields), tuple(map(tuple, errors))


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
