"""Panel expectile fits by one concentrated iterated weighted least squares engine.

Every fit solves the same problem: slopes beta_1..beta_q, one per
asymmetric point tau_k with influence weight v_k, and one subject effect
shared by all of them.  Each round solves the normal equations at the
check weights psi_k of the current residuals.  They need, per block k, the
weighted Gram matrix of the design rows [X; y] and each subject's sums of
psi_k, psi_k x and psi_k y.  With D_k = diag(subject sums of psi_k), C_k =
subject sums of psi_k x, D = sum_k v_k D_k and G_k = X' Psi_k X, the
normal equations with the effect concentrated out (a Schur complement) are

    v_k G_k beta_k - v_k C_k' D^-1 sum_l v_l C_l beta_l
        = v_k (X' Psi_k y - C_k' D^-1 sum_l v_l c_l),

with c_l the subject sums of psi_l y: one symmetric positive definite
system of size q*p (``concentrated_system``, the one code that assembles
it), solved by one Cholesky factorization.  The effect is alpha = D^-1
sum_l v_l (c_l - C_l beta_l), and the new residuals are y - alpha - X
beta_k.  No N x p transformed design is ever built.

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

A round costs its sign flips, not a pass over the data (``rounds``).  A
check weight takes two values, psi = (1 - tau) + (2 tau - 1) [r > 0], so
each block's subject sums and Gram are 1 - tau times their value over all
rows plus 2 tau - 1 times their value over the rows with positive
residuals.  ``fit_stack`` takes both once per design at the within
round's signs (on the demeaned design the all-rows moments are exactly
twice the within round's), and every fit, of any tau, starts from them.
These are the fit's running moments.  Every round assembles
``concentrated_system`` from them and solves it, all of its panels in one
call; after the round, each block's moments move by 2 tau - 1 times those
of the rows whose signs flipped.  The residual pass still reads every row.
A round is refreshed or not.  A refreshed round first takes its panels'
moments from all rows at their signs (``rounds.sign_moments``), so its
system is ``rounds.full_system``'s, bit for bit: it is the full round.  A
round that is not refreshed, an updated round, solves moments moved by the
flips, which are rounded differently from a pass, so it only searches for
the sign pattern.  Any round whose numbers the fit reports is refreshed: a
round whose step is within ``TOL``, whose solve reports a problem, round
``MAX_ROUNDS``, a round that repeats a cycle (below), and a round after
which no sign flipped, whose updated system would only repeat the last
one.  A fit at tau = 0.5 in every block weighs every row alike whatever
the signs, so it refreshes every round.

A guard keeps the updated rounds on the full rounds' path.  Let e = u
kappa rho bound the rounding relative to the scale of the slopes
(``rounds.error_scale``), that scale being |beta| + |y| / |x|, and let s
be the scale of the rows.  kappa needs tr(S~^-1) of the round's system S
scaled to a unit diagonal: an updated round solves S against its
right-hand side and the identity at once, so one Cholesky factorization
per round gives both the slopes and S^-1; other rounds read no S^-1.  An
updated round that leaves a residual within ``MARGIN`` e s of zero, or its
step within ``MARGIN`` e (|beta| + |y| / |x|) of ``TOL`` (widened by the
round before's own bound when that round was updated too), is solved
again, refreshed: only those panels take a second solve.  So every round
starts from the signs the full rounds give.
A full round's step is measured from the last full round, as the full
rounds measure it: after a round that flipped no sign the full rounds
repeat themselves, so the step is 0; after an updated round, a step
within that round's bound of ``TOL`` is measured again from the round
before, redone in full from its signs (``rounds.full_system``).  So
slopes, residuals and round counts have the full rounds' bits.

When its rounds end, each fit assembles ``concentrated_system`` once
from its running moments and keeps it with, per panel, the digest of the
signs its last refreshed round started from (``LastSystem``).  A
converged panel's last round is refreshed (an updated round with a step
within ``TOL`` is unsure).  If it flipped no sign, the running moments
are its pass and the system the one it solved, which the sandwich on the
same stack reuses as its bread; if it flipped one, the digest differs
and ``fit_system`` assembles the bread anew (``rounds.full_system``).

A full round's slopes depend only on the signs it starts from, so the
convergence test of round r is fixed by the signs before rounds r - 1 and
r.  Each fit keeps a 64-bit digest of every round's sign masks per panel
(``rounds.digests``), so a pair of rounds has 128 bits.  When the pair
before round r repeats the pair before an earlier round j, every later
test repeats one that failed: the panel stops after round r's test with a
NoConvergenceError whose ``period`` (r - j) and ``cycle_start`` (j) tell
it from one that ran out of rounds.

The engine works on a stack of B equal-shaped panels (``PanelStack``), a
leading replication axis on every array: the design is (B, p + 1, N), the
subject codes of panel b are offset by b * n so that one ``np.bincount``
serves the whole stack, the Grams come from one stacked ``np.matmul`` and
the systems from one stacked Cholesky (``linalg.spd_solve``).  Each panel
has its own convergence test, guard and cycle test and takes no round
after it stops; a panel whose system turns singular or that stops without
converging gets its own error and leaves the others' bits unchanged.
``fit_stack`` fits every asymmetric point of a command, or of a Monte
Carlo block, in one call: the stack's screen (``PanelStack.constant``),
one within round and the start's moments, then the rounds of each fit.
``fit_erfe_single`` and ``fit_erfe_multi`` are its call with one panel, on
a stack of one that each call builds.

A fit holds each large array once.  Beside the stack's own, the N-sized
arrays alive at once are: the fit's design ((p + 1) N: the stack's
demeaned rows, or a joint fit's copy), the within round's residuals (N)
until the last fit starts, which a last fit of one point takes as its
own, and each fit's residual blocks (q N for q points) with their signs.
A round of every panel writes its residuals over the last round's and its
refreshed moments over the running ones.  A refreshed block's pass adds,
one block at a time, its check weights and weighted regressor rows
((p + 1) N), and the residual pass one N-vector.  Per subject, each fit
holds its running moments (q (p + 2) floats), and, until the moments of
the last fits are made, the all-rows and positive-row sums ((p + 2)
floats each).  A finished fit keeps its residuals and its ``LastSystem``
(q p + 1 floats per subject) for the sandwich.
"""
from __future__ import annotations

import weakref
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
from .rounds import (
    Cycles,
    check_moments,
    concentrated_system,
    digests,
    error_scale,
    flip,
    full_system,
    sign_moments,
    weighted_moments,
)
from .within import subject_weights

__all__ = [
    "FitResult",
    "LastSystem",
    "MultiFitResult",
    "StackFit",
    "concentrated_system",
    "fit_design",
    "fit_erfe_multi",
    "fit_erfe_single",
    "fit_regressors",
    "fit_slices",
    "fit_stack",
    "fit_system",
    "recover_fixed_effects",
    "within_ols",
]

# The stopping rule of the module docstring, read at call time.
TOL = 1e-7
TOL_GRAD = 1e-6
MAX_ROUNDS = 100
# The guard of the updated rounds (module docstring), in units of the
# rounding bound e of ``rounds.error_scale``.  Over 15,822 updated rounds
# set against full ones at the same signs (the 1M-row panel-wide input,
# plain and joint; random, tie-heavy, near-collinear, subject-offset and
# 1e8-scaled-y stacks), the slopes moved at most 55 e times their scale
# (their size plus that of y over x) and the residuals 57 e s, so the
# margin leaves a factor of 175 or more.  On panel-wide both margins stay
# below 3.2e-9, where no residual of any round lies within 8e-8 of zero.
MARGIN = 1e4


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
class LastSystem:
    """The last system of one fit, per panel of the stack ``source`` (a
    weak reference): ``signs``, the digest (``digests``, B) of the sign
    masks that the panel's last refreshed round started from, and the
    system (B x q*p x q*p), couplings (B x q*p x n) and D (B x n) that
    ``concentrated_system`` assembles from the fit's running moments when
    its rounds end.  The entries of a panel whose fit stopped with an
    error mean nothing."""

    source: weakref.ref
    signs: np.ndarray
    system: np.ndarray
    couplings: np.ndarray
    denom: np.ndarray


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
    fit share its rounds and its error.  ``systems`` holds, per fit of
    ``fit_slices``, its ``LastSystem``, which ``sandwich_stack`` reuses as
    the bread.
    """

    taus: tuple[float, ...]
    v: np.ndarray
    joint: bool
    betas: np.ndarray
    residuals_star: np.ndarray
    iterations: np.ndarray
    errors: tuple
    systems: tuple


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
    """Give each panel of ``idx`` whose system has a problem (``_solve``'s
    ``problems``) its own SingularGramError, unless it has an error already."""
    for i, problem in zip(idx.tolist(), problems):
        if problem is not None:
            errors[i] = errors[i] or SingularGramError(problem, columns=columns,
                                                       iteration=iteration)


def fit_regressors(stack: PanelStack, q: int) -> np.ndarray:
    """The regressor rows X (B x p x N) of ``fit_design``, as a view: the
    demeaned rows for one point, raw X for a joint fit of several."""
    return stack.demeaned[:, :-1] if q == 1 else stack.X.transpose(0, 2, 1)


def fit_design(stack: PanelStack, q: int) -> np.ndarray:
    """The rows [X; y] (B x (p + 1) x N) that a fit of ``q`` asymmetric
    points works on: the stack's demeaned rows for one point; for a joint
    fit of several, raw X and demeaned y in a new C-order array, built on
    each call so that no result keeps it alive.  That copy is the one
    N-sized array a joint fit holds beyond a plain fit's: each Gram takes
    its y column from the same ``np.matmul`` as its X columns, and a y
    column taken apart from them does not round the same."""
    if q == 1:
        return stack.demeaned
    design = np.empty(stack.demeaned.shape)
    design[:, :-1] = fit_regressors(stack, q)
    design[:, -1] = stack.demeaned[:, -1]
    return design


def _solve(design, codes, q, system, rhs, couplings, denom, pooled_y, out=None,
           invert=False):
    """Solve a ``concentrated_system`` of A stacked panels against its
    right-hand side, and against the identity too when ``invert``, one
    factorization per system (``spd_solve``).  Returns the slopes
    (A x q x p), the residual blocks (A x q x N), written into ``out`` when
    it is given, the system's inverse (A x q*p x q*p) when ``invert``, else
    None, and, per panel, the reason its system has no solution, or None
    (``spd_solve``'s problems); a panel with a problem has NaN slopes and
    inverse.  Each column is solved on its own, so the slopes keep their
    bits either way."""
    rhs = rhs[:, :, None]
    if invert:
        rhs = np.concatenate((rhs, np.broadcast_to(np.eye(rhs.shape[1]), system.shape)),
                             axis=2)
    solved, problems = spd_solve(system, rhs)
    # In C order: a strided slope column rounds the effects otherwise.
    betas = np.ascontiguousarray(solved[:, :, 0])
    alpha = (pooled_y - (betas[:, None] @ couplings)[:, 0]) / denom
    betas = betas.reshape(design.shape[0], q, -1)
    net = alpha.ravel()[codes.ravel()].reshape(codes.shape)
    np.subtract(design[:, -1], net, out=net)
    fitted = np.matmul(betas, design[:, :-1], out=out)
    return (betas, np.subtract(net[:, None], fitted, out=fitted),
            solved[:, :, 1:] if invert else None, problems)


def _within_round(stack: PanelStack, errors):
    """The within round of every panel: one round at tau = 0.5 with
    constant weights on the demeaned design.  Returns its slopes (B x 1 x p)
    and residuals (B x 1 x N) and the all-rows moments of the demeaned
    design (``weighted_moments`` at weight one: twice the round's,
    exactly); a panel whose system is singular gets its SingularGramError
    in ``errors``."""
    design, codes = stack.demeaned, stack.codes
    sums, grams = weighted_moments(design, codes, stack.n_subjects,
                           np.full(stack.y.shape, 0.5))
    system = concentrated_system(np.ones(1), sums[:, None], grams[:, None])
    betas, resid, _, problems = _solve(design, codes, 1, *system)
    _record(errors, np.arange(stack.size), problems, stack.column_names, None)
    return betas, resid, (2.0 * sums, 2.0 * grams)


def _scores_vanish(stack: PanelStack, idx, design, taus, v, resid, tol):
    """Per panel of ``idx``, whether every block's slope score and the
    pooled subject-effect score are within the panel's ``tol`` at the
    residuals ``resid`` (B x q x N) on ``design``."""
    codes, design, resid = stack.part(idx, design, resid)
    items = idx.size
    small = np.ones(items, dtype=bool)
    effect = np.zeros(items * stack.n_subjects)
    for k, tau in enumerate(taus):
        weighted = check_weight(resid[:, k], tau) * resid[:, k]
        slopes = design[:, :-1] @ weighted[:, :, None]
        small &= np.max(np.abs(slopes), axis=(1, 2)) <= tol
        effect += v[k] * np.bincount(codes.ravel(), weights=weighted.ravel(),
                                     minlength=effect.size)
    return small & (np.max(np.abs(effect.reshape(items, -1)), axis=1) <= tol)


def _irls(stack: PanelStack, design, taus, v, betas, resid, errors, moments, reach):
    """Concentrated rounds from (betas, resid) for every panel without an
    error, each until its sup-norm step is within ``TOL`` and its scores
    vanish, its residual signs cycle or ``MAX_ROUNDS`` run out.  A panel
    that stops takes no further round; one whose system turns singular
    gets its SingularGramError in ``errors``.  ``moments`` holds the
    ``check_moments`` of ``design`` at the signs of ``resid``, the running
    moments that the rounds refresh and update in place, and ``reach``
    each row's largest magnitude per panel (B x (p + 1)).

    Returns (betas, resid, iterations, converged, cycles, last): per panel,
    cycles holds (the round the cycle began, its period) for a panel that
    stopped on a cycle, else None; last is the fit's ``LastSystem``.
    """
    size, n_subjects = stack.size, stack.n_subjects
    q, p = len(taus), design.shape[1] - 1
    grad_tol = TOL_GRAD * (1.0 + np.max(np.abs(stack.y), axis=1))
    iterations = np.zeros(size, dtype=int)
    converged = np.zeros(size, dtype=bool)
    live = np.array([e is None for e in errors], dtype=bool)
    # A flip moves a block's check-weighted moments by 2 tau - 1 times the
    # flipped row's, into the positive rows or out of them.
    sums, grams = moments
    rise = 2.0 * np.array(taus) - 1.0
    signs = resid > 0
    # Per panel: whether no sign flipped in its last round; the guard's
    # bound on how far that round's slopes lie from the full round's, 0
    # after a full round; and, packed, the signs that round started from.
    calm = np.zeros(size, dtype=bool)
    drift = np.zeros(size)
    # Check weights that do not depend on the signs (tau = 0.5 in every
    # block) keep the start's moments, which a round that is not refreshed
    # would only solve again: such a fit refreshes every round.
    fixed = not rise.any()
    before = np.packbits(signs, axis=2)
    cycles, found = Cycles(signs), [None] * size
    # Per panel, the digest of the signs its last refreshed round started from.
    refreshed = np.zeros(size, dtype=np.int64)

    def solve(ids, fresh, old, prior):
        """Take the round of the panels ``ids`` from their slopes ``old`` on
        the running moments, those of the panels ``fresh`` first refreshed
        from all rows at their signs, whose digest goes into ``refreshed``:
        their round is the full round.  Returns the problems and, per panel,
        whether it is not fresh and its round is too near a decision to
        stand, and the bound on its slopes' distance from the full round's
        (0 for a fresh panel).  ``prior`` is that bound for ``old``."""
        nonlocal betas, resid
        # A round of every panel writes its residuals over the last round's,
        # which ``signs`` has replaced; one that refreshes every panel also
        # writes its moments in place.
        every = ids.size == size
        if fresh.any():
            refreshed[ids[fresh]] = cycles.history[-1][ids[fresh]]
            codes, rows, sign = stack.part(ids[fresh], design, signs)
            if every and fresh.all():
                sign_moments(rows, codes, n_subjects, taus, sign, out=(sums, grams))
            else:
                sums[ids[fresh]], grams[ids[fresh]] = sign_moments(rows, codes, n_subjects,
                                                                   taus, sign)
        codes, rows, part_sums, part_grams, span = stack.part(ids, design, sums, grams,
                                                              reach)
        system = concentrated_system(v, part_sums, part_grams)
        # Only a round that is not refreshed reads the inverse (``error_scale``).
        new_betas, new_resid, inverse, problems = _solve(
            rows, codes, q, *system, out=resid if every else None, invert=not fresh.all())
        unsure, band = np.zeros(ids.size, dtype=bool), np.zeros(ids.size)
        if not fresh.all():
            error = MARGIN * error_scale(system[0], inverse, part_grams, v)
            move = np.max(np.abs(new_betas - old), axis=(1, 2))
            scale_r = span[:, -1] + np.max(np.abs(new_betas) @ span[:, :-1, None], axis=(1, 2))
            with np.errstate(divide="ignore", invalid="ignore"):
                # The slopes' scale: their size plus that of y over each x.
                band = error * (np.max(np.abs(new_betas), axis=(1, 2))
                                + np.max(span[:, -1:] / span[:, :-1], axis=1))
                unsure = ((move <= TOL + band + prior)
                          | (np.min(np.abs(new_resid), axis=(1, 2)) <= error * scale_r))
            unsure |= ~np.isfinite(band)
            unsure &= ~fresh
            band[fresh | unsure] = 0.0
        if every:
            betas = new_betas
        else:
            betas[ids], resid[ids] = new_betas, new_resid
        return problems, unsure, band

    for r in range(1, MAX_ROUNDS + 1):
        idx = np.flatnonzero(live)
        if not idx.size:
            break
        repeats = cycles.repeats(idx, r)
        old = betas[idx]
        # A panel whose signs did not change in its last round would repeat
        # that round's system, so it takes its full round at once.
        exact = calm[idx] | (repeats > 0) | (r == MAX_ROUNDS) | fixed
        prior = drift[idx]
        problems, unsure, drift[idx] = solve(idx, exact, old, prior)
        if unsure.any():
            # Redo in full the rounds that may not stand.
            exact |= unsure
            redo = np.flatnonzero(unsure)
            for j, problem in zip(redo.tolist(), solve(idx[redo], unsure[redo], old[redo],
                                                       prior[redo])[0]):
                problems[j] = problem
        _, new_betas, new_sign = stack.part(idx, betas, resid > 0)
        delta = np.max(np.abs(new_betas - old), axis=(1, 2))
        # The full rounds measure a step from the last full round, which a
        # full round after an updated one must do too.  After no flip the
        # full rounds repeat the last round bit for bit: their step is 0.
        delta[calm[idx]] = 0.0
        near = np.flatnonzero(exact & ~calm[idx] & (np.abs(delta - TOL) <= prior))
        if near.size:
            # Within the updated slopes' drift of TOL: redo the last round in
            # full, from the signs it started from.
            codes, rows = stack.part(idx[near], design)
            again = _solve(rows, codes, q, *full_system(
                rows, codes, n_subjects, v, taus,
                np.unpackbits(before[idx[near]], axis=2, count=signs.shape[2]).view(bool)))[0]
            delta[near] = np.max(np.abs(new_betas[near] - again), axis=(1, 2))
        iterations[idx] = r
        _record(errors, idx, problems, stack.column_names, r)
        stop = np.array([p is not None for p in problems], dtype=bool)
        check = idx[(delta <= TOL) & ~stop]
        if check.size:
            done = check[_scores_vanish(stack, check, design, taus, v, resid, grad_tol[check])]
            converged[done] = True
            live[done] = False
        live[idx[stop]] = False
        calm[idx] = flip(stack, idx, design, signs, new_sign, sums, grams, rise)
        if idx.size == size:
            before, signs = np.packbits(signs, axis=2), new_sign
        else:
            before[idx], signs[idx] = np.packbits(signs[idx], axis=2), new_sign
        cycles.step(idx, new_sign)
        cycled = live[idx] & (repeats > 0)
        for i, start in zip(idx[cycled].tolist(), repeats[cycled].tolist()):
            found[i] = (start, r - start)
        live[idx[cycled]] = False
    system, _, couplings, denom, _ = concentrated_system(v, sums, grams)
    return (betas, resid, iterations, converged, found,
            LastSystem(weakref.ref(stack), refreshed, system, couplings, denom))


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
    betas, resid, _ = _within_round(stack, errors)
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


def _no_convergence(taus, cycle) -> NoConvergenceError:
    """The error of a fit at ``taus`` that stopped without converging: on
    a cycle of its residual signs, (the round it began, its period), or
    out of rounds (None)."""
    if cycle is None:
        return NoConvergenceError(f"fit at taus={taus} did not converge in "
                                  f"{MAX_ROUNDS} iterations")
    start, period = cycle
    return NoConvergenceError(
        f"fit at taus={taus} did not converge: its residual signs cycle with "
        f"period {period} from round {start}", period=period, cycle_start=start)


def fit_stack(stack: PanelStack, taus, v=None, joint: bool = False) -> StackFit:
    """Fit every asymmetric point of ``taus`` on every panel of ``stack``.

    Without ``joint`` each point gets its own fit, that of
    ``fit_erfe_single``; with it, the points get the one joint fit of
    ``fit_erfe_multi`` with the influence weights ``v``, which only a joint
    fit takes (over one point, the joint fit is the single fit).  The
    within round runs once, and each fit's rounds start from its own copy
    of that round and from the moments of its design over all rows and
    over the rows with positive within residuals, taken once for every
    fit; a fit's running moments are made from them as it starts, or with
    those of every fit left once two or fewer are.  Each panel gets the
    numbers its own fits give, bit for bit, and a fit that fails gets its
    error in ``errors`` without changing the others.
    """
    taus = validate_taus(taus)
    q = len(taus)
    v = validate_v(v, q, joint)
    design = fit_design(stack, q if joint else 1)

    screened = _screen(stack)
    start_betas, start_resid, all_rows = _within_round(stack, screened)
    codes, n_subjects = stack.codes, stack.n_subjects
    if design is not stack.demeaned:
        all_rows = weighted_moments(design, codes, n_subjects, np.ones(stack.y.shape))
    positive = weighted_moments(design, codes, n_subjects,
                                (start_resid[:, 0] > 0).astype(float))
    # max |row|, without an N-sized temporary.
    reach = np.maximum(design.max(axis=2), -design.min(axis=2))
    fits = fit_slices(q, joint)
    parts, systems, errors, moments = [], [], [[] for _ in range(stack.size)], []
    for f, points in enumerate(fits):
        n, group, left = points.stop - points.start, list(screened), len(fits) - f
        # A fit's moments are made as it starts, until two or fewer fits are
        # left: theirs then take no more room than all_rows and positive, so
        # all of them are made and those two are freed.
        if not moments:
            moments = [check_moments(all_rows, positive, taus[s])
                       for s in (fits[f:] if left <= 2 else [points])]
            if left <= 2:
                del all_rows, positive
        # Each fit's rounds write into their own start residuals: a copy of
        # the within round's, which the last fit of one point takes as they are.
        resid = start_resid if left == 1 and n == 1 else np.repeat(start_resid, n, axis=1)
        if left == 1:
            del start_resid
        betas, resid, rounds, converged, cycles, last = _irls(
            stack, design, taus[points], v[points], np.repeat(start_betas, n, axis=1),
            resid, group, moments.pop(0), reach)
        parts.append((betas, resid, np.repeat(rounds[:, None], n, axis=1)))
        systems.append(last)
        for row, error, ok, cycle in zip(errors, group, converged.tolist(), cycles):
            row += [error or (None if ok else _no_convergence(taus[points], cycle))] * n
    # A lone fit's arrays are returned as they are, not copied.
    betas, resid, iterations = (parts[0] if len(parts) == 1 else
                                (np.concatenate(arrays, axis=1) for arrays in zip(*parts)))
    return StackFit(taus=taus, v=v, joint=joint, betas=betas, residuals_star=resid,
                    iterations=iterations, errors=tuple(map(tuple, errors)),
                    systems=tuple(systems))


def fit_system(stack: PanelStack, idx, resid, taus, v, last=None):
    """The ``concentrated_system`` of the panels ``idx`` of ``stack`` for
    their fit at ``taus`` (one point, or several fitted jointly with the
    influence weights ``v``), at the check weights of the residual blocks
    ``resid`` (B x q x N): its system, couplings and D.  A panel whose
    signs in ``resid`` are those its fit's ``last`` system was built on,
    on this stack, gets that system; the others get it assembled anew, on
    the fit's design.
    """
    _, masks = stack.part(idx, resid > 0)
    stale = np.ones(idx.size, dtype=bool)
    if last is not None and idx.size and last.source() is stack:
        _, signs, *kept = stack.part(idx, last.signs, last.system, last.couplings,
                                     last.denom)
        stale = digests(masks) != signs
        if not stale.any():
            return tuple(kept)
    codes, design = stack.part(idx[stale], fit_design(stack, len(taus)))
    system, _, couplings, denom, _ = full_system(design, codes, stack.n_subjects, v, taus,
                                                 masks[stale])
    if stale.all():
        return system, couplings, denom
    # Copies, as the kept arrays are the fit's own when idx is every panel.
    kept = [a.copy() for a in kept]
    for whole, part in zip(kept, (system, couplings, denom)):
        whole[stale] = part
    return tuple(kept)


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
