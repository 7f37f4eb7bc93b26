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
y - alpha - X beta_k.  No N x p transformed design is ever built.  The
system (``concentrated_system``) at the final residuals is the bread of
the fit's sandwich.

The single-tau fit (q = 1) is the weighted within transform of the
paper.  That transform subtracts subject averages, so shifting a
regressor by a subject constant changes nothing, and the single fit runs
on the plainly demeaned rows [X; y] (``PanelStack.demeaned``, computed
once per stack); this keeps G - C' D^-1 C free of cancellation
when regressors carry large subject-level offsets.  The joint fit
(q > 1) must keep the raw X: its shared effect cannot absorb a shift a_i
of x, which moves block k by a_i' beta_k, differently for each tau.  A
shift of y is absorbed, so the joint fit's design is raw X and demeaned
y.  ``fit_design`` picks the design, for the fit and its sandwich.

The weights depend only on residual signs, so once the sign pattern
stabilizes the solve lands exactly on the fixed point and the loop stops.
Its fixed stopping rule, the package's only one, is a safety net: a
sup-norm step within ``TOL`` and scores within ``TOL_GRAD`` * (1 +
max|y|), in at most ``MAX_ROUNDS`` rounds.  The converged point satisfies
the first-order conditions of the asymmetric least squares objective in
both the slopes and the subject effects.  Every fit starts from the
within round: one round at tau = 0.5 with constant weights on the
demeaned design, which is ``within_ols``, its slopes and residuals
repeated for every block.  Any start that reaches the final sign pattern
gives the same bits.

The engine works on a stack of B equal-shaped panels (``PanelStack``), a
leading replication axis on every array: the design is (B, p + 1, N), the
subject codes of panel b are offset by b * n so that one ``np.bincount``
serves the whole stack, the Grams come from one stacked ``np.matmul`` and
the systems from one stacked Cholesky (``linalg.spd_solve``).  Each panel
has its own convergence test and takes no round after it stops; a panel
whose system turns singular or that runs out of rounds gets its own error
and leaves the others' bits unchanged.  ``fit_stack`` fits every
asymmetric point of a command, or of a Monte Carlo block, in one call: the
stack's screen (``PanelStack.constant``) and one within round, then the
rounds of each fit.  ``fit_erfe_single`` and ``fit_erfe_multi`` are its
call with one panel, on a stack of one that each call builds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError, SingularGramError
from .linalg import spd_solve
from .panel import (
    PanelData,
    PanelStack,
    asymmetric_loss,
    check_weight,
    stack_panels,
    validate_tau,
    validate_taus,
    validate_v,
)
from .within import subject_weights, weighted_subject_sums

__all__ = [
    "FitResult",
    "MultiFitResult",
    "StackFit",
    "concentrated_system",
    "fit_design",
    "fit_erfe_multi",
    "fit_erfe_single",
    "fit_slices",
    "fit_stack",
    "recover_fixed_effects",
    "within_ols",
]

# The stopping rule of the module docstring, read at call time.
TOL = 1e-7
TOL_GRAD = 1e-6
MAX_ROUNDS = 100


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


@dataclass(frozen=True)
class StackFit:
    """Fits at every asymmetric point of the B panels of a ``PanelStack``.

    ``joint`` tells whether the points were fitted jointly or each on its
    own.  ``betas`` (B x q x p) and ``residuals_star`` (B x q x N) hold each
    panel's slopes and residual blocks.  Per (panel, point), ``iterations``
    (B x q) holds the rounds of the fit that point belongs to, and
    ``errors`` (B tuples of q) the error that stopped that fit, None where
    it converged: a SingularGramError, whose numbers mean nothing, or a
    NoConvergenceError, whose numbers are its last iterate.  Each panel's
    error is its own, whatever was stacked with it.  The points of a joint
    fit share its rounds and its error.
    """

    taus: tuple[float, ...]
    v: np.ndarray
    joint: bool
    betas: np.ndarray
    residuals_star: np.ndarray
    iterations: np.ndarray
    errors: tuple


def fit_slices(q: int, joint: bool) -> list[slice]:
    """The points of each fit among ``q`` asymmetric points: all of them in
    one joint fit, or one point per fit."""
    return [slice(0, q)] if joint else [slice(k, k + 1) for k in range(q)]


def _screen(stack: PanelStack) -> list:
    """Per panel, the SingularGramError for regressors that demeaning
    annihilates (``PanelStack.constant``), or None.  A stack with no
    regressors raises it, as ``spd_solve`` rejects an empty Gram matrix."""
    if not stack.column_names:
        raise SingularGramError("empty Gram matrix: the panel has no regressors")
    errors = [None] * stack.size
    for i in np.flatnonzero(stack.constant.any(axis=1)).tolist():
        names = [stack.column_names[j] for j in np.flatnonzero(stack.constant[i])]
        errors[i] = SingularGramError(
            f"regressor(s) {names!r} are constant within subjects and are "
            "annihilated by the within transform",
            columns=names,
        )
    return errors


def _record(errors, idx, problems, columns, iteration):
    """Give each panel of ``idx`` whose system has a problem (``_round``'s
    ``problems``) its own SingularGramError, unless it has an error already."""
    for i, problem in zip(idx.tolist(), problems):
        if problem is not None:
            errors[i] = errors[i] or SingularGramError(problem, columns=columns,
                                                       iteration=iteration)


def _within_round(stack: PanelStack, errors):
    """The within round of every panel: one round at tau = 0.5 with
    constant weights on the demeaned design.  Returns its slopes (B x 1 x p)
    and residuals (B x 1 x N); a panel whose system is singular gets its
    SingularGramError in ``errors``."""
    size, _, n_obs = stack.demeaned.shape
    betas, resid, problems = _round(stack.demeaned, stack.codes, stack.n_subjects,
                                    (0.5,), np.ones(1), np.zeros((size, 1, n_obs)))
    _record(errors, np.arange(size), problems, stack.column_names, None)
    return betas, resid


def fit_design(stack: PanelStack, q: int) -> np.ndarray:
    """The rows [X; y] (B x (p + 1) x N) that a fit of ``q`` asymmetric
    points and its sandwich work on: the demeaned rows for one point; for
    a joint fit of several, raw X and demeaned y, built on each call so
    that no result keeps the copy alive."""
    if q == 1:
        return stack.demeaned
    design = np.empty(stack.demeaned.shape)
    design[:, :-1] = stack.X.transpose(0, 2, 1)
    design[:, -1] = stack.demeaned[:, -1]
    return design


def concentrated_system(design, codes, n_subjects, v, psi):
    """The concentrated normal equations (see the module docstring) of A
    stacked panels with rows [X; y] ``design`` (A x (p + 1) x N) and offset
    subject codes ``codes`` (see ``PanelStack``), at the check weights
    ``psi``: q blocks of A x N, one per point, each read once, in order.
    Returns the system (A x q*p x q*p), its right-hand side, the couplings
    v_k C_k stacked over the blocks (A x q*p x n), D and sum_k v_k c_k
    (A x n each).
    """
    items, p, q = design.shape[0], design.shape[1] - 1, len(v)
    sums = np.empty((items, q, p + 2, n_subjects))
    system = np.zeros((items, q * p, q * p))
    rhs = np.zeros((items, q * p))
    for k, psi_k in enumerate(psi):
        sums[:, k], weighted = weighted_subject_sums(design, psi_k, codes, n_subjects)
        gram = weighted[:, :p] @ design.transpose(0, 2, 1)
        rows = slice(k * p, (k + 1) * p)
        system[:, rows, rows] = v[k] * gram[:, :, :p]
        rhs[:, rows] = v[k] * gram[:, :, p]
    denom = v @ sums[:, :, 0]
    pooled_y = v @ sums[:, :, p + 1]
    couplings = (v[:, None, None] * sums[:, :, 1:p + 1]).reshape(-1, q * p, n_subjects)
    system -= (couplings / denom[:, None]) @ couplings.transpose(0, 2, 1)
    rhs -= (couplings @ (pooled_y / denom)[:, :, None])[:, :, 0]
    return system, rhs, couplings, denom, pooled_y


def _round(design, codes, n_subjects, taus, v, resid):
    """One round of A stacked panels: ``concentrated_system`` at the check
    weights of the residual blocks ``resid`` (A x q x N) at ``taus``,
    solved.  Returns the new slopes (A x q x p), the new residual blocks
    and, per panel, the reason its system has no solution, or None
    (``spd_solve``'s problems); a panel with a problem has NaN slopes.
    """
    system, rhs, couplings, denom, pooled_y = concentrated_system(
        design, codes, n_subjects, v,
        (check_weight(resid[:, k], tau) for k, tau in enumerate(taus)))
    betas, problems = spd_solve(system, rhs)
    alpha = (pooled_y - (betas[:, None] @ couplings)[:, 0]) / denom
    betas = betas.reshape(*resid.shape[:2], -1)
    effects = alpha.ravel()[codes.ravel()].reshape(codes.shape)
    return betas, (design[:, -1] - effects)[:, None] - betas @ design[:, :-1], problems


def _scores_vanish(design, codes, n_subjects, taus, v, resid, tol):
    """Per panel, whether every block's slope score and the pooled
    subject-effect score are within the panel's ``tol`` at the residuals
    ``resid`` (stacked as in ``_round``)."""
    items = design.shape[0]
    small = np.ones(items, dtype=bool)
    effect = np.zeros(items * n_subjects)
    for k, tau in enumerate(taus):
        weighted = check_weight(resid[:, k], tau) * resid[:, k]
        slopes = design[:, :-1] @ weighted[:, :, None]
        small &= np.max(np.abs(slopes), axis=(1, 2)) <= tol
        effect += v[k] * np.bincount(codes.ravel(), weights=weighted.ravel(),
                                     minlength=effect.size)
    return small & (np.max(np.abs(effect.reshape(items, -1)), axis=1) <= tol)


def _irls(stack: PanelStack, design, taus, v, betas, resid, errors):
    """Concentrated rounds from (betas, resid) for every panel without an
    error, each until its sup-norm step is within ``TOL`` and its scores
    vanish, or ``MAX_ROUNDS`` run out.  A panel that stops takes no
    further round; one whose system turns singular gets its
    SingularGramError in ``errors``.

    Returns (betas, resid, iterations, converged), per panel.
    """
    size, n_subjects = stack.size, stack.n_subjects
    grad_tol = TOL_GRAD * (1.0 + np.max(np.abs(stack.y), axis=1))
    iterations = np.zeros(size, dtype=int)
    converged = np.zeros(size, dtype=bool)
    live = np.array([e is None for e in errors], dtype=bool)
    for r in range(1, MAX_ROUNDS + 1):
        idx = np.flatnonzero(live)
        if not idx.size:
            break
        codes, rows, current, old = stack.part(idx, design, resid, betas)
        new_betas, new_resid, problems = _round(rows, codes, n_subjects, taus, v, current)
        delta = np.max(np.abs(new_betas - old), axis=(1, 2))
        if idx.size == size:
            betas, resid = new_betas, new_resid
        else:
            betas[idx], resid[idx] = new_betas, new_resid
        iterations[idx] = r
        _record(errors, idx, problems, stack.column_names, r)
        stop = np.array([p is not None for p in problems], dtype=bool)
        check = idx[(delta <= TOL) & ~stop]
        if check.size:
            codes, rows, current = stack.part(check, design, resid)
            done = check[_scores_vanish(rows, codes, n_subjects, taus, v, current,
                                        grad_tol[check])]
            converged[done] = True
            live[done] = False
        live[idx[stop]] = False
    return betas, resid, iterations, converged


def _single_result(panel: PanelData, tau, beta, resid, iterations,
                   converged) -> FitResult:
    alpha = recover_fixed_effects(panel, beta, subject_weights(resid, tau, panel))
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
    stack = stack_panels([panel])
    errors = _screen(stack)
    betas, resid = _within_round(stack, errors)
    if errors[0] is not None:
        raise errors[0]
    return _single_result(panel, 0.5, betas[0, 0], resid[0, 0], 0, True)


def recover_fixed_effects(panel: PanelData, beta, weights):
    """Subject effects implied by fitted slopes and final check weights.

    Each effect is the weighted subject average of y - X beta, with the
    normalized check weights of the converged fit (``subject_weights``);
    at tau = 0.5 this is the plain subject mean of the residuals.
    """
    raw = panel.y - panel.X @ np.asarray(beta, dtype=float)
    return np.bincount(panel.codes, weights=weights * raw,
                       minlength=panel.n_subjects)


def fit_stack(stack: PanelStack, taus, v=None, joint: bool = False) -> StackFit:
    """Fit every asymmetric point of ``taus`` on every panel of ``stack``.

    Without ``joint`` each point gets its own fit, that of
    ``fit_erfe_single``; with it, the points get the one joint fit of
    ``fit_erfe_multi`` with the influence weights ``v``, which only a joint
    fit takes (over one point, the joint fit is the single fit).  The
    within round runs once, and each fit's rounds start from its own copy
    of that round.  Each panel gets the numbers its own fits give, bit for
    bit, and a fit that fails gets its error in ``errors`` without
    changing the others.
    """
    taus = validate_taus(taus)
    q = len(taus)
    v = validate_v(v, q, joint)
    design = fit_design(stack, q if joint else 1)

    screened = _screen(stack)
    start_betas, start_resid = _within_round(stack, screened)
    parts, errors = [], [[] for _ in range(stack.size)]
    for points in fit_slices(q, joint):
        n, group = points.stop - points.start, list(screened)
        # Each fit gets its start as new arrays that only its rounds hold, so
        # each copy is freed once the first round replaces it.
        betas, resid, rounds, converged = _irls(
            stack, design, taus[points], v[points], np.repeat(start_betas, n, axis=1),
            np.repeat(start_resid, n, axis=1), group)
        parts.append((betas, resid, np.repeat(rounds[:, None], n, axis=1)))
        for row, error, ok in zip(errors, group, converged.tolist()):
            row += [error or (None if ok else NoConvergenceError(
                f"fit at taus={taus[points]} did not converge in "
                f"{MAX_ROUNDS} iterations"))] * n
    betas, resid, iterations = (np.concatenate(arrays, axis=1) for arrays in zip(*parts))
    return StackFit(taus=taus, v=v, joint=joint, betas=betas, residuals_star=resid,
                    iterations=iterations, errors=tuple(map(tuple, errors)))


def _checked(fit: StackFit, result):
    """``result``, the one-panel ``fit`` as a result object; or the fit's
    error raised, with ``result`` attached when it ran out of rounds."""
    error = fit.errors[0][0]
    if error is None:
        return result
    if isinstance(error, NoConvergenceError):
        error.result = result
    raise error


def fit_erfe_single(panel: PanelData, tau) -> FitResult:
    """Single-tau panel expectile fit by the iterative within transform.

    Starts from the within round, then runs concentrated rounds on the
    demeaned data (the q = 1 case of the module docstring) until the
    sup-norm step is within tolerance and the slope and subject-effect
    scores are negligible.  The one-panel call of ``fit_stack``.
    """
    tau = validate_tau(tau)
    fit = fit_stack(stack_panels([panel]), (tau,))
    return _checked(fit, _single_result(
        panel, tau, fit.betas[0, 0], fit.residuals_star[0, 0],
        int(fit.iterations[0, 0]), fit.errors[0][0] is None))


def fit_erfe_multi(panel: PanelData, taus, v=None) -> MultiFitResult:
    """Joint fit over a strictly increasing sequence of asymmetric points.

    The blocks share one subject effect, so each round solves the stacked
    weighted least squares problem with that effect concentrated out (see
    the module docstring), on the raw X, from the within round.  For a
    single asymmetric point this is the single-tau fit, on the demeaned
    design (with its bits when ``v`` is one).  ``v`` holds the
    strictly positive influence weights (uniform by default).  Convergence
    requires the sup-norm step of every block to be within tolerance and
    the stacked first-order conditions (slope scores per block plus the
    pooled subject-effect score) to be negligible.  The one-panel call of
    ``fit_stack``.
    """
    fit = fit_stack(stack_panels([panel]), taus, v, joint=True)
    return _checked(fit, MultiFitResult(
        taus=fit.taus, v=fit.v, betas=fit.betas[0],
        residuals_star=fit.residuals_star[0], iterations=int(fit.iterations[0, 0]),
        converged=fit.errors[0][0] is None))
