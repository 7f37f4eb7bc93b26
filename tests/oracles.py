"""Independent reference computations used as test oracles.

Everything here is implemented from first principles (dense incidence
matrices, generic convex optimizers, golden-section search, closed-form
partial moments) and never calls into the package's own computational
paths, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import csv
import io
import json
import math

import mpmath
import numpy as np
from scipy import integrate, special, stats
from scipy.optimize import brentq, minimize

import erfe


# ---------------------------------------------------------------------
# Check-function primitives, written independently of the package.
# ---------------------------------------------------------------------

def psi_ref(t, tau):
    return np.where(np.asarray(t, dtype=float) > 0.0, tau, 1.0 - tau)


def rho_ref(t, tau):
    t = np.asarray(t, dtype=float)
    return psi_ref(t, tau) * t * t


# ---------------------------------------------------------------------
# Scalar expectile by the weighted-mean fixed-point loop, with its own
# round budget and tolerance: the loop the package ran before it solved for
# the expectile's split.
# ---------------------------------------------------------------------

LOOP_TOL = 1e-7
LOOP_MAX_ROUNDS = 100


def sample_expectile_loop(values, tau):
    """(theta, fixed): the weighted-mean map iterated from the sample mean
    until it reproduces its candidate (fixed True), or until the budget of
    rounds runs out on a last step within LOOP_TOL (fixed False)."""
    vals = np.asarray(values, dtype=float).ravel()
    theta = float(np.mean(vals))
    delta = np.inf
    for _ in range(LOOP_MAX_ROUNDS):
        w = psi_ref(vals - theta, tau)
        new = float(np.dot(w, vals) / np.sum(w))
        if new == theta:
            return theta, True
        delta = abs(new - theta)
        theta = new
    if delta <= LOOP_TOL:
        return theta, False
    raise erfe.NoConvergenceError(
        f"sample expectile did not stabilize in {LOOP_MAX_ROUNDS} iterations")


# ---------------------------------------------------------------------
# Scalar expectile by golden-section search on the empirical risk.
# ---------------------------------------------------------------------

def golden_section_expectile(values, tau, tol=1e-10):
    values = np.asarray(values, dtype=float)

    def risk(theta):
        return float(np.mean(rho_ref(values - theta, tau)))

    a, b = float(np.min(values)), float(np.max(values))
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = risk(c), risk(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = risk(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = risk(d)
    return (a + b) / 2.0


# ---------------------------------------------------------------------
# Generic convex minimization oracles (BFGS with analytic gradients and a
# derivative-free polish when the line search stalls early).
# ---------------------------------------------------------------------

def _polish(result, fun, x0_dim):
    if float(np.max(np.abs(result.jac))) > 1e-6:
        refined = minimize(fun, result.x, method="Nelder-Mead",
                           options=dict(xatol=1e-10, fatol=1e-16,
                                        maxiter=200 * x0_dim * 100))
        if refined.fun <= result.fun:
            return refined.x
    return result.x


def minimize_expectile_objective(X, y, tau):
    """argmin over beta of sum rho_tau(y - X beta)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)

    def fun(beta):
        return float(np.sum(rho_ref(y - X @ beta, tau)))

    def grad(beta):
        r = y - X @ beta
        return -2.0 * X.T @ (psi_ref(r, tau) * r)

    res = minimize(fun, np.zeros(X.shape[1]), jac=grad, method="BFGS",
                   options=dict(gtol=1e-12, maxiter=20000))
    return _polish(res, fun, X.shape[1])


def joint_fixed_effects_minimum(y, X, codes, n_subjects, taus, v):
    """argmin of the pooled asymmetric objective over (beta_1..beta_q, alpha).

    Returns (betas with shape (q, p), alpha with shape (n,)).  For q = 1
    this is the full-parameter oracle of the single-point fit.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    taus = tuple(float(t) for t in np.atleast_1d(taus))
    v = np.asarray(v, dtype=float).ravel()
    q = len(taus)
    p = X.shape[1]

    def fun(params):
        alpha = params[q * p:]
        total = 0.0
        for k in range(q):
            beta = params[k * p:(k + 1) * p]
            total += v[k] * np.sum(rho_ref(y - X @ beta - alpha[codes], taus[k]))
        return float(total)

    def grad(params):
        alpha = params[q * p:]
        pieces = []
        g_alpha = np.zeros(n_subjects)
        for k in range(q):
            beta = params[k * p:(k + 1) * p]
            r = y - X @ beta - alpha[codes]
            w = psi_ref(r, taus[k])
            pieces.append(-2.0 * v[k] * X.T @ (w * r))
            g_alpha += -2.0 * v[k] * np.bincount(codes, weights=w * r,
                                                 minlength=n_subjects)
        pieces.append(g_alpha)
        return np.concatenate(pieces)

    dim = q * p + n_subjects
    res = minimize(fun, np.zeros(dim), jac=grad, method="BFGS",
                   options=dict(gtol=1e-12, maxiter=50000))
    x = _polish(res, fun, dim)
    return x[:q * p].reshape(q, p), x[q * p:]


# ---------------------------------------------------------------------
# Dense projection matrices built directly from incidence matrices.
# ---------------------------------------------------------------------

def incidence_matrix(codes, n_subjects):
    return np.eye(n_subjects)[np.asarray(codes)]


def subject_rows(panel):
    """Row indices of each subject of ``panel``, in subject-code order."""
    return [np.flatnonzero(panel.codes == i) for i in range(panel.n_subjects)]


def dense_within_matrix(codes, n_subjects, psi):
    """I - Z (Z' Psi Z)^(-1) Z' Psi for one diagonal weight vector."""
    Z = incidence_matrix(codes, n_subjects)
    Psi = np.diag(np.asarray(psi, dtype=float))
    P = Z @ np.linalg.inv(Z.T @ Psi @ Z) @ Z.T @ Psi
    return np.eye(len(psi)) - P


def dense_pooled_matrices(codes, n_subjects, psi_blocks, v):
    """Both dense readings of the pooled annihilator, as (verbatim, shared).

    ``verbatim`` keeps the influence-weighted incidence stack as the
    leading factor of the projection; ``shared`` leads with the plain
    replicated stack, so every block has the same subject average
    subtracted.  The two coincide when the influence weights are all
    equal.
    """
    psi_blocks = np.asarray(psi_blocks, dtype=float)
    q, n_obs = psi_blocks.shape
    v = np.asarray(v, dtype=float).ravel()
    Z = incidence_matrix(codes, n_subjects)
    Psi = np.zeros((q * n_obs, q * n_obs))
    for k in range(q):
        sl = slice(k * n_obs, (k + 1) * n_obs)
        Psi[sl, sl] = np.diag(psi_blocks[k])
    vZ = np.kron(v[:, None], Z)
    oneZ = np.kron(np.ones((q, 1)), Z)
    middle = np.linalg.inv(vZ.T @ Psi @ oneZ)
    eye = np.eye(q * n_obs)
    verbatim = eye - vZ @ middle @ oneZ.T @ Psi
    shared = eye - oneZ @ middle @ vZ.T @ Psi
    return verbatim, shared


def joint_fit_projections(panel, fit):
    """Both dense readings of ``dense_pooled_matrices`` at the check weights
    of a joint fit's final residual blocks, and the stacked blocks
    y - X beta_k they apply to, as (verbatim, shared, raw)."""
    psis = np.vstack([psi_ref(r, tau) for r, tau in zip(fit.residuals_star, fit.taus)])
    verbatim, shared = dense_pooled_matrices(panel.codes, panel.n_subjects, psis, fit.v)
    raw = (panel.y[None, :] - fit.betas @ panel.X.T).reshape(-1)
    return verbatim, shared, raw

# ---------------------------------------------------------------------
# Textbook clustered within-OLS (demean, solve, cluster the scores).
# ---------------------------------------------------------------------

def clustered_within_ols(y, X, codes, n_subjects):
    """Within-OLS coefficients and cluster-robust standard errors.

    Plain demeaning, normal equations via lstsq, and the classical
    clustered sandwich (X*'X*)^(-1) [sum_i s_i s_i'] (X*'X*)^(-1) with
    per-subject score sums and no degrees-of-freedom correction.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    codes = np.asarray(codes)
    y_star = y.copy()
    x_star = X.copy()
    for i in range(n_subjects):
        rows = codes == i
        y_star[rows] -= np.mean(y[rows])
        x_star[rows] -= np.mean(X[rows], axis=0)
    beta, *_ = np.linalg.lstsq(x_star, y_star, rcond=None)
    resid = y_star - x_star @ beta
    meat = np.zeros((X.shape[1], X.shape[1]))
    for i in range(n_subjects):
        rows = codes == i
        score = x_star[rows].T @ resid[rows]
        meat += np.outer(score, score)
    bread = np.linalg.inv(x_star.T @ x_star)
    vc = bread @ meat @ bread
    return beta, np.sqrt(np.diag(vc))


# ---------------------------------------------------------------------
# Sandwich covariances from an explicitly transformed design, and from
# the full parameter vector.
# ---------------------------------------------------------------------

def explicit_sandwich(X, codes, n_subjects, resid, tau):
    """Single-tau sandwich pieces (d0, d1, vc) from the explicit transformed
    design.

    X* = X minus each subject's check-weighted average.  Per-subject
    scores are accumulated row by row with np.add.at; the meat is S' S and
    the bread X*' Psi X*, both over the observation count, and
    vc = B^-1 d0 B^-1 / N.
    """
    X = np.asarray(X, dtype=float)
    codes = np.asarray(codes)
    resid = np.asarray(resid, dtype=float)
    n_obs, p = X.shape
    psi = psi_ref(resid, tau)
    num = np.zeros((n_subjects, p))
    den = np.zeros(n_subjects)
    np.add.at(num, codes, psi[:, None] * X)
    np.add.at(den, codes, psi)
    x_star = X - (num / den[:, None])[codes]
    scores = np.zeros((n_subjects, p))
    np.add.at(scores, codes, x_star * (psi * resid)[:, None])
    d0 = scores.T @ scores / n_obs
    d1 = x_star.T @ (psi[:, None] * x_star) / n_obs
    bread = np.linalg.inv(d1)
    vc = bread @ d0 @ bread / n_obs
    return d0, d1, (vc + vc.T) / 2.0


def dense_joint_sandwich(X, codes, n_subjects, resid_blocks, taus, v):
    """Sandwich pieces (d0, d1, vc) of the slopes of a joint fit, from the
    M-estimation sandwich of the full parameter theta = (beta_1..beta_q,
    alpha_1..alpha_n), in extended precision.

    The stacked estimating equations are v_k X' Psi_k r_k = 0 per block
    and sum_k v_k Z' Psi_k r_k = 0 for the effects, r_k the residual
    blocks.  A is their dense Jacobian in theta (Psi held fixed) and B the
    sum over subjects of the outer products of each subject's stacked
    score, accumulated row by row.  vc is the beta block of
    A^-1 B A^-1; d1 = (beta block of A^-1)^-1 / N is the bread of the
    profiled slopes and d0 = N d1 vc d1 their meat.  For one block this is
    the single-tau sandwich.
    """
    ld = np.longdouble
    X = np.asarray(X, dtype=ld)
    codes = np.asarray(codes)
    resid = np.atleast_2d(np.asarray(resid_blocks, dtype=float))
    v = np.asarray(v, dtype=ld).ravel()
    (q, n_obs), p = resid.shape, X.shape[1]
    Z = incidence_matrix(codes, n_subjects).astype(ld)
    dim = q * p + n_subjects
    A = np.zeros((dim, dim), dtype=ld)
    scores = np.zeros((n_subjects, dim), dtype=ld)
    effects = slice(q * p, dim)
    for k in range(q):
        rows = slice(k * p, (k + 1) * p)
        psi = psi_ref(resid[k], taus[k]).astype(ld)
        A[rows, rows] = v[k] * (X.T @ (psi[:, None] * X))
        A[rows, effects] = v[k] * (X.T @ (psi[:, None] * Z))
        A[effects, rows] = A[rows, effects].T
        A[effects, effects] += v[k] * (Z.T @ (psi[:, None] * Z))
        for j in range(n_obs):
            i, e = codes[j], psi[j] * ld(resid[k, j])
            scores[i, rows] += v[k] * e * X[j]
            scores[i, q * p + i] += v[k] * e
    B = scores.T @ scores
    columns = _eliminate(A, np.eye(dim, dtype=ld)[:, :q * p])
    vc = columns.T @ B @ columns
    d1 = _eliminate(columns[:q * p], np.eye(q * p, dtype=ld)) / n_obs
    d0 = n_obs * d1 @ vc @ d1
    return tuple(np.asarray((m + m.T) / 2.0, dtype=float) for m in (d0, d1, vc))


# ---------------------------------------------------------------------
# The joint fit's Schur-complement system in extended precision.
# ---------------------------------------------------------------------

def _eliminate(a, b):
    """Solve a x = b, for one right-hand side b or a matrix of them, by
    Gaussian elimination with partial pivoting, in the arrays' own dtype."""
    a, b = a.copy(), b.copy()
    n = b.shape[0]
    for j in range(n):
        pivot = j + int(np.argmax(np.abs(a[j:, j])))
        a[[j, pivot]] = a[[pivot, j]]
        b[[j, pivot]] = b[[pivot, j]]
        factors = a[j + 1:, j] / a[j, j]
        a[j + 1:, j:] -= factors[:, None] * a[j, j:]
        b[j + 1:] -= np.multiply.outer(factors, b[j])
    x = np.zeros_like(b)
    for j in range(n - 1, -1, -1):
        x[j] = (b[j] - a[j, j + 1:] @ x[j + 1:]) / a[j, j]
    return x


def longdouble_schur(y, X, codes, n_subjects, taus, v, resid_blocks):
    """Joint slopes at the check weights of ``resid_blocks``, in np.longdouble.

    The normal equations of sum_k v_k sum psi_k (y - alpha - X beta_k)^2
    with alpha solved out: with dense incidence Z, D = sum_k v_k Z' Psi_k Z,
    C_k = Z' Psi_k X, G_k = X' Psi_k X and c_k = Z' Psi_k y, block (k, l)
    of the system is delta_kl v_k G_k - v_k v_l C_k' D^-1 C_l and block k
    of the right-hand side v_k (X' Psi_k y - C_k' D^-1 sum_l v_l c_l).
    Built from raw X and y and solved by elimination, all in extended
    precision.  Returns the slopes (q x p, longdouble) and the condition
    number of the system rescaled to a unit diagonal.
    """
    ld = np.longdouble
    X = np.asarray(X, dtype=ld)
    y = np.asarray(y, dtype=ld)
    Z = incidence_matrix(codes, n_subjects).astype(ld)
    resid = np.atleast_2d(np.asarray(resid_blocks, dtype=float))
    v = np.asarray(v, dtype=ld).ravel()
    q, p = resid.shape[0], X.shape[1]
    psi = [psi_ref(resid[k], taus[k]).astype(ld) for k in range(q)]
    D = sum(v[k] * (Z.T @ psi[k]) for k in range(q))
    C = [Z.T @ (psi[k][:, None] * X) for k in range(q)]
    c = [Z.T @ (psi[k] * y) for k in range(q)]
    pooled_c = sum(v[k] * c[k] for k in range(q))
    system = np.zeros((q * p, q * p), dtype=ld)
    rhs = np.zeros(q * p, dtype=ld)
    for k in range(q):
        rows = slice(k * p, (k + 1) * p)
        system[rows, rows] = v[k] * (X.T @ (psi[k][:, None] * X))
        rhs[rows] = v[k] * (X.T @ (psi[k] * y) - C[k].T @ (pooled_c / D))
        for l in range(q):
            cols = slice(l * p, (l + 1) * p)
            system[rows, cols] -= v[k] * v[l] * (C[k].T @ (C[l] / D[:, None]))
    scale = 1.0 / np.sqrt(np.diag(system))
    kappa = float(np.linalg.cond((system * scale[:, None] * scale).astype(float)))
    return _eliminate(system, rhs).reshape(q, p), kappa


# ---------------------------------------------------------------------
# Distributional references.
# ---------------------------------------------------------------------

def normal_quantile_erfinv(prob):
    return float(np.sqrt(2.0) * special.erfinv(2.0 * prob - 1.0))


def _mpmath_moments(family, shape, z):
    """(E[(z - Z)+], E[(Z - z)+]) of the standard normal (``family``
    "norm"), Student t or chi-squared law Z with ``shape`` degrees of
    freedom, at mpmath's working precision: distribution functions from
    mpmath's normal cdf and regularized incomplete beta and gamma
    functions, the upper moment as the lower one plus E[Z] - z."""
    if family == "norm":
        lower, mean = z * mpmath.ncdf(z) + mpmath.npdf(z), 0
    elif family == "t":
        nu = mpmath.mpf(shape)
        tail = mpmath.betainc(nu / 2, mpmath.mpf(1) / 2, 0, nu / (nu + z * z),
                              regularized=True) / 2
        density = (mpmath.gamma((nu + 1) / 2) / mpmath.gamma(nu / 2)
                   / mpmath.sqrt(nu * mpmath.pi) * (1 + z * z / nu) ** (-(nu + 1) / 2))
        lower = z * (tail if z < 0 else 1 - tail) + (nu + z * z) / (nu - 1) * density
        mean = 0
    else:
        k = mpmath.mpf(shape)
        lower, mean = mpmath.mpf(0), k
        if z > 0:
            lower = (z * mpmath.gammainc(k / 2, 0, z / 2, regularized=True)
                     - k * mpmath.gammainc(k / 2 + 1, 0, z / 2, regularized=True))
    return lower, lower + mean - z


def mpmath_distribution_expectile(family, shape, tau, start):
    """The tau-expectile of a standard law of ``_mpmath_moments``: the root
    of tau E[(Z - t)+] - (1 - tau) E[(t - Z)+] to 40 digits, by mpmath's
    secant iteration from ``start``."""
    with mpmath.workdps(40):
        tau = mpmath.mpf(tau)

        def balance(t):
            lower, upper = _mpmath_moments(family, shape, t)
            return tau * upper - (1 - tau) * lower

        return mpmath.findroot(balance, mpmath.mpf(start), tol=mpmath.mpf(10) ** -36)


def mpmath_normal_quantile(prob):
    """The standard normal quantile of the double ``prob``, to 40 digits."""
    with mpmath.workdps(40):
        return mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(prob) - 1)


def standard_normal_expectile_equation(theta, tau):
    """Residual of the expectile first-order condition for N(0, 1).

    Uses the closed-form partial moment E[(Y - t)+] = pdf(t) - t (1 - cdf(t)).
    """
    upper = stats.norm.pdf(theta) - theta * (1.0 - stats.norm.cdf(theta))
    lower = upper - (0.0 - theta)
    return tau * upper - (1.0 - tau) * lower


# Log-densities of the standardized laws, z = (y - loc) / scale, by scipy
# name; the chi-squared and gamma ones for z > 0 only.
_LOG_DENSITIES = {
    "norm": lambda z: -0.5 * z * z - 0.5 * math.log(2.0 * math.pi),
    "t": lambda z, df: (math.lgamma((df + 1.0) / 2.0) - math.lgamma(df / 2.0)
                        - 0.5 * math.log(df * math.pi)
                        - (df + 1.0) / 2.0 * math.log1p(z * z / df)),
    "chi2": lambda z, df: ((df / 2.0 - 1.0) * math.log(z) - z / 2.0
                           - df / 2.0 * math.log(2.0) - math.lgamma(df / 2.0)),
    "gamma": lambda z, a: (a - 1.0) * math.log(z) - z - math.lgamma(a),
}


def law_density(dist):
    """The density of a frozen scipy normal, t, chi-squared or gamma law,
    written out with ``math``: a frozen law's own ``pdf`` costs about
    0.2 ms a scalar call, and the quadratures below make thousands."""
    shapes, loc, scale = dist.dist._parse_args(*dist.args, **dist.kwds)
    log_density = _LOG_DENSITIES[dist.dist.name]
    positive = dist.dist.name in ("chi2", "gamma")
    log_scale = math.log(scale)

    def density(y):
        z = (y - loc) / scale
        if positive and z <= 0.0:
            return 0.0
        return math.exp(log_density(z, *shapes) - log_scale)

    return density


def two_moment_distribution_expectile(dist, tau):
    """Expectile of a frozen scipy distribution as the root of the direct
    condition tau * E[(Y - t)+] - (1 - tau) * E[(t - Y)+] = 0, each partial
    moment by its own quadrature; the package folds the upper moment into
    the mean and integrates the lower one only."""
    lo_support, hi_support = (float(b) for b in dist.support())
    pdf = law_density(dist)

    def moment(theta, a, b, sign):
        if a >= b:
            return 0.0
        return integrate.quad(lambda y: sign * (y - theta) * pdf(y), a, b,
                              epsabs=1e-12, epsrel=1e-11, limit=200)[0]

    def balance(theta):
        upper = moment(theta, max(theta, lo_support), hi_support, 1.0)
        lower = moment(theta, lo_support, min(theta, hi_support), -1.0)
        return tau * upper - (1.0 - tau) * lower

    mean, step = float(dist.mean()), max(float(dist.std()), 1.0)
    lo, hi = mean - step, mean + step
    while balance(lo) < 0.0:
        lo -= step
        step *= 2.0
    step = max(float(dist.std()), 1.0)
    while balance(hi) > 0.0:
        hi += step
        step *= 2.0
    return float(brentq(balance, lo, hi, xtol=1e-12, rtol=8.9e-16))


# ---------------------------------------------------------------------
# The full-round engine: every round assembles its system from all rows
# at the check weights of the last residuals, as the package did before
# its rounds followed the sign flips.  Bit equality needs the package's
# Cholesky solve (``spd_solve``, ``spd_inverse``), its screen of
# within-constant regressors and its stopping constants, read at call
# time, so those are reused; the assembly, the rounds, the cycle stop and
# the sandwich are written out here.
# ---------------------------------------------------------------------

def _full_subject_sums(rows, weights, codes, n_subjects):
    """Subject sums of the weights and of each weighted row of (B, k, N)
    ``rows``, laid out (B, k + 1, n), and the weighted rows."""
    weighted = rows * weights[:, None, :]
    n_items, n_bins = weights.shape[0], weights.shape[0] * n_subjects
    codes = codes.ravel()
    sums = np.empty((n_items, rows.shape[1] + 1, n_subjects))
    sums[:, 0] = np.bincount(codes, weights=weights.ravel(),
                             minlength=n_bins).reshape(n_items, n_subjects)
    for j in range(rows.shape[1]):
        sums[:, j + 1] = np.bincount(codes, weights=weighted[:, j].ravel(),
                                     minlength=n_bins).reshape(n_items, n_subjects)
    return sums, weighted


def full_system(design, codes, n_subjects, v, psi):
    """The concentrated system, its right-hand side, couplings, D and
    sum_k v_k c_k of stacked panels at the check weights ``psi``."""
    items, p, q = design.shape[0], design.shape[1] - 1, len(v)
    sums = np.empty((items, q, p + 2, n_subjects))
    system = np.zeros((items, q * p, q * p))
    rhs = np.zeros((items, q * p))
    for k, psi_k in enumerate(psi):
        sums[:, k], weighted = _full_subject_sums(design, psi_k, codes, n_subjects)
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


def _full_round(design, codes, n_subjects, taus, v, resid):
    system, rhs, couplings, denom, pooled_y = full_system(
        design, codes, n_subjects, v,
        (psi_ref(resid[:, k], tau) for k, tau in enumerate(taus)))
    betas, problems = erfe.linalg.spd_solve(system, rhs)
    alpha = (pooled_y - (betas[:, None] @ couplings)[:, 0]) / denom
    betas = betas.reshape(*resid.shape[:2], -1)
    effects = alpha.ravel()[codes.ravel()].reshape(codes.shape)
    return betas, (design[:, -1] - effects)[:, None] - betas @ design[:, :-1], problems


def _full_scores_vanish(design, codes, n_subjects, taus, v, resid, tol):
    items = design.shape[0]
    small = np.ones(items, dtype=bool)
    effect = np.zeros(items * n_subjects)
    for k, tau in enumerate(taus):
        weighted = psi_ref(resid[:, k], tau) * resid[:, k]
        slopes = design[:, :-1] @ weighted[:, :, None]
        small &= np.max(np.abs(slopes), axis=(1, 2)) <= tol
        effect += v[k] * np.bincount(codes.ravel(), weights=weighted.ravel(),
                                     minlength=effect.size)
    return small & (np.max(np.abs(effect.reshape(items, -1)), axis=1) <= tol)


def _full_record(errors, idx, problems, columns, iteration):
    for i, problem in zip(idx.tolist(), problems):
        if problem is not None:
            errors[i] = errors[i] or erfe.SingularGramError(
                problem, columns=columns, iteration=iteration)


def _full_irls(stack, design, taus, v, betas, resid, errors, stop_cycles):
    """Full rounds until each panel's step is within TOL and its scores
    vanish, its signs cycle (with ``stop_cycles``) or its rounds run out.
    A panel cycles at round r when the signs of its residuals before
    rounds r - 1 and r are those before rounds j - 1 and j of an earlier
    round j, which fix round r's test to be round j's.  Returns betas,
    residuals, rounds, converged and, per panel, (j, r - j) for a cycle or
    None."""
    est = erfe.estimator
    size, n_subjects = stack.size, stack.n_subjects
    grad_tol = est.TOL_GRAD * (1.0 + np.max(np.abs(stack.y), axis=1))
    iterations = np.zeros(size, dtype=int)
    converged = np.zeros(size, dtype=bool)
    live = np.array([e is None for e in errors], dtype=bool)
    seen = [{} for _ in range(size)]
    signs = [[(resid[i] > 0).tobytes()] for i in range(size)]
    cycles = [None] * size
    for r in range(1, est.MAX_ROUNDS + 1):
        idx = np.flatnonzero(live)
        if not idx.size:
            break
        repeats = {}
        for i in idx.tolist():
            if r >= 2:
                key = (signs[i][-2], signs[i][-1])
                if key in seen[i]:
                    repeats[i] = seen[i][key]
                else:
                    seen[i][key] = r
        codes, rows, current, old = stack.part(idx, design, resid, betas)
        new_betas, new_resid, problems = _full_round(rows, codes, n_subjects,
                                                     taus, v, current)
        delta = np.max(np.abs(new_betas - old), axis=(1, 2))
        betas[idx], resid[idx] = new_betas, new_resid
        iterations[idx] = r
        _full_record(errors, idx, problems, stack.column_names, r)
        stop = np.array([p is not None for p in problems], dtype=bool)
        check = idx[(delta <= est.TOL) & ~stop]
        if check.size:
            codes, rows, current = stack.part(check, design, resid)
            done = check[_full_scores_vanish(rows, codes, n_subjects, taus, v,
                                             current, grad_tol[check])]
            converged[done] = True
            live[done] = False
        live[idx[stop]] = False
        for i in idx.tolist():
            signs[i].append((resid[i] > 0).tobytes())
            if stop_cycles and live[i] and i in repeats:
                cycles[i] = (repeats[i], r - repeats[i])
                live[i] = False
    return betas, resid, iterations, converged, cycles


def full_round_fit(stack, taus, v=None, joint=False, stop_cycles=True):
    """(betas, residuals, iterations, errors) of ``fit_stack`` by full
    rounds: the same fits, starts and errors, error messages included.
    Without ``stop_cycles`` a fit whose signs cycle runs out of rounds, as
    the package's fits did before they stopped on a cycle."""
    est = erfe.estimator
    taus = erfe.panel.validate_taus(taus)
    q = len(taus)
    v = erfe.panel.validate_v(v, q, joint)
    design = est.fit_design(stack, q if joint else 1)
    screened = est._screen(stack)
    size, _, n_obs = stack.demeaned.shape
    start_betas, start_resid, problems = _full_round(
        stack.demeaned, stack.codes, stack.n_subjects, (0.5,), np.ones(1),
        np.zeros((size, 1, n_obs)))
    _full_record(screened, np.arange(size), problems, stack.column_names, None)
    parts, errors = [], [[] for _ in range(size)]
    for points in est.fit_slices(q, joint):
        n, group = points.stop - points.start, list(screened)
        betas, resid, rounds, converged, cycles = _full_irls(
            stack, design, taus[points], v[points], np.repeat(start_betas, n, axis=1),
            np.repeat(start_resid, n, axis=1), group, stop_cycles)
        parts.append((betas, resid, np.repeat(rounds[:, None], n, axis=1)))
        for row, error, ok, cycle in zip(errors, group, converged.tolist(), cycles):
            if error is None and not ok:
                message = (f"fit at taus={taus[points]} did not converge in "
                           f"{est.MAX_ROUNDS} iterations")
                if cycle is not None:
                    message = (f"fit at taus={taus[points]} did not converge: its "
                               f"residual signs cycle with period {cycle[1]} "
                               f"from round {cycle[0]}")
                error = erfe.NoConvergenceError(message)
            row += [error] * n
    betas, resid, iterations = (np.concatenate(a, axis=1) for a in zip(*parts))
    return betas, resid, iterations, tuple(map(tuple, errors))


def full_round_sandwich(stack, taus, v, joint, resid, fit_errors):
    """``se`` and ``vc`` (B x q*p and B x q*p x q*p) of ``sandwich_stack``
    with every bread assembled from all rows at the final residuals
    ``resid`` (B x q x N); NaN where the fit in ``fit_errors`` failed."""
    est = erfe.estimator
    q, p = len(taus), stack.X.shape[-1]
    n_obs, n_subjects = stack.y.shape[1], stack.n_subjects
    vc_all = np.full((stack.size, q * p, q * p), np.nan)
    se_all = np.full((stack.size, q * p), np.nan)
    for points in est.fit_slices(q, joint):
        sub_taus, sub_v = taus[points], v[points]
        idx = np.flatnonzero([row[points.start] is None for row in fit_errors])
        codes, design, part = stack.part(
            idx, est.fit_design(stack, points.stop - points.start), resid[:, points])
        psi = [psi_ref(part[:, k], tau) for k, tau in enumerate(sub_taus)]
        system, _, couplings, denom, _ = full_system(design, codes, n_subjects,
                                                     sub_v, psi)
        scores = np.empty(couplings.shape)
        pooled = np.zeros(denom.shape)
        for k, psi_k in enumerate(psi):
            sums, _ = _full_subject_sums(design[:, :p], psi_k * part[:, k],
                                         codes, n_subjects)
            scores[:, k * p:(k + 1) * p] = sub_v[k] * sums[:, 1:]
            pooled += sub_v[k] * sums[:, 0]
        scores -= couplings * (pooled / denom)[:, None]
        d0 = scores @ scores.transpose(0, 2, 1) / n_obs
        bread_inv, _ = erfe.linalg.spd_inverse(system / n_obs)
        vc = bread_inv @ d0 @ bread_inv / n_obs
        vc = (vc + vc.transpose(0, 2, 1)) / 2.0
        rows = slice(points.start * p, points.stop * p)
        vc_all[idx, rows, rows] = vc
        se_all[idx, rows] = np.sqrt(np.maximum(np.diagonal(vc, axis1=1, axis2=2), 0.0))
    return se_all, vc_all


# ---------------------------------------------------------------------
# Test scaffolding: seeded random panels.
# ---------------------------------------------------------------------

def random_panel(rng, n, m, p, beta=None, noise=1.0, alpha_scale=1.0):
    """Gaussian location-shift panel with subject effects; returns
    (panel, beta, alpha)."""
    if beta is None:
        beta = 0.5 * np.arange(1, p + 1, dtype=float)
    beta = np.asarray(beta, dtype=float)
    codes = np.repeat(np.arange(n), m)
    X = rng.standard_normal((n * m, p))
    alpha = alpha_scale * rng.standard_normal(n)
    y = X @ beta + alpha[codes] + noise * rng.standard_normal(n * m)
    panel = erfe.build_panel(
        [(int(codes[i]), float(y[i]), X[i]) for i in range(n * m)])
    return panel, beta, alpha


def unbalanced_panel(rng, sizes, p, beta=None, noise=1.0):
    """Panel with per-subject sizes given explicitly."""
    if beta is None:
        beta = 0.5 * np.arange(1, p + 1, dtype=float)
    beta = np.asarray(beta, dtype=float)
    codes = np.concatenate([np.full(m, i) for i, m in enumerate(sizes)])
    total = codes.shape[0]
    X = rng.standard_normal((total, p))
    alpha = rng.standard_normal(len(sizes))
    y = X @ beta + alpha[codes] + noise * rng.standard_normal(total)
    panel = erfe.build_panel(
        [(int(codes[i]), float(y[i]), X[i]) for i in range(total)])
    return panel, beta, alpha


def collinear_panel(seed, eps, low_tau_rows=False):
    """Six subjects of four rows whose x2 is 2 x1 plus ``eps`` times noise.

    With ``low_tau_rows`` the noise sits only on the rows whose error is
    in its top 40%, which the check weights of a low tau weigh least: the
    within round can then solve a system that a later round cannot."""
    rng = np.random.default_rng(seed)
    codes = np.repeat(np.arange(6), 4)
    x1, noise, u = rng.standard_normal((3, 24))
    u += rng.standard_normal(6)[codes]
    if low_tau_rows:
        noise = noise * (u > np.quantile(u, 0.6))
    X = np.column_stack([x1, 2.0 * x1 + eps * noise])
    return erfe.build_panel(
        [(int(codes[i]), float(x1[i] + u[i]), X[i]) for i in range(24)])


# ---------------------------------------------------------------------
# Table writer: the per-cell writer the package used before its columns
# became numpy arrays of one dtype each.  A column is a numpy array of
# floats or a list of Python values, each cell formatted on its own.
# ---------------------------------------------------------------------

def format_number(value) -> str:
    """A number as CSV text: 17 significant digits, NaN as NA."""
    value = float(value)
    if math.isnan(value):
        return "NA"
    return format(value, ".17g")


# Tables are passed as columns: sequences of Python values, or numpy arrays
# of floats.  Both formats are written a block of rows at a time, so that
# only one block of cells is alive at once.  The block size is this module's
# own, so that the reference streams independently of the package.
_BLOCK_ROWS = 65536


def _blocks(columns):
    n_rows = len(columns[0]) if columns else 0
    for start in range(0, n_rows, _BLOCK_ROWS):
        yield [col[start:start + _BLOCK_ROWS] for col in columns]


def _write_csv_row(fh, row):
    # csv.writer quotes a field holding a character of its line terminator:
    # given "\r\n", it quotes a bare "\r" as well as "\n", and each row is
    # then cut back to end in "\n".
    out = io.StringIO()
    csv.writer(out, lineterminator="\r\n").writerow(row)
    fh.write(out.getvalue()[:-2] + "\n")


def _write_csv(fh, header, columns):
    _write_csv_row(fh, header)
    for block in _blocks(columns):
        for row in zip(*(
            list(map(format_number, col.tolist())) if isinstance(col, np.ndarray)
            else [format_number(v) if isinstance(v, float) else str(v) for v in col]
            for col in block
        )):
            _write_csv_row(fh, row)


def _write_json(fh, header, columns):
    opening = "[\n"
    for block in _blocks(columns):
        records = [
            {key: None if isinstance(value, float) and math.isnan(value) else value
             for key, value in zip(header, row)}
            for row in zip(*(col.tolist() if isinstance(col, np.ndarray) else col
                             for col in block))
        ]
        # Strip the list's own "[\n" and "\n]": the records in between are
        # laid out as in a dump of the whole table.
        fh.write(opening)
        fh.write(json.dumps(records, indent=2)[2:-2])
        opening = ",\n"
    fh.write("[]\n" if opening == "[\n" else "\n]\n")


def write_table_reference(fh, header, columns, fmt: str = "csv"):
    """Write a table, given as its header and its columns, to ``fh`` as
    ``fmt``, "csv" or "json", one cell at a time."""
    (_write_json if fmt == "json" else _write_csv)(fh, header, columns)
