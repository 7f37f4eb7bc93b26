"""Independent reference computations used as test oracles.

Everything here is implemented from first principles (dense incidence
matrices, generic convex optimizers, golden-section search, closed-form
partial moments) and never calls into the package's own computational
paths, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

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
