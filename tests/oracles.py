"""Independent reference computations used as test oracles.

Everything here is implemented from first principles (dense incidence
matrices, generic convex optimizers, golden-section search, closed-form
partial moments) and never calls into the package's own computational
paths, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

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
# Sandwich covariance from an explicitly transformed design.
# ---------------------------------------------------------------------

def explicit_sandwich(X, codes, n_subjects, resid_blocks, taus, v):
    """Sandwich pieces (d0, d1, vc) from the explicit transformed design.

    X* = X minus each subject's average pooling every block's check
    weights (scaled by ``v``); for one block this is the single-tau
    weighted within transform.  Per-subject scores are accumulated row by
    row with np.add.at; the meat is blocked v_k v_l S_k' S_l, the bread
    block diagonal v_k X*' Psi_k X*, both over the observation count, and
    vc = B^-1 d0 B^-1 / N.
    """
    X = np.asarray(X, dtype=float)
    codes = np.asarray(codes)
    resid = np.atleast_2d(np.asarray(resid_blocks, dtype=float))
    v = np.asarray(v, dtype=float).ravel()
    q, n_obs = resid.shape
    p = X.shape[1]
    psi = np.vstack([psi_ref(resid[k], taus[k]) for k in range(q)])
    num = np.zeros((n_subjects, p))
    den = np.zeros(n_subjects)
    for k in range(q):
        np.add.at(num, codes, v[k] * psi[k][:, None] * X)
        np.add.at(den, codes, v[k] * psi[k])
    x_star = X - (num / den[:, None])[codes]
    scores = []
    for k in range(q):
        s = np.zeros((n_subjects, p))
        np.add.at(s, codes, x_star * (psi[k] * resid[k])[:, None])
        scores.append(s)
    d0 = np.zeros((q * p, q * p))
    d1 = np.zeros((q * p, q * p))
    for k in range(q):
        rows = slice(k * p, (k + 1) * p)
        for l in range(q):
            cols = slice(l * p, (l + 1) * p)
            d0[rows, cols] = v[k] * v[l] * scores[k].T @ scores[l] / n_obs
        d1[rows, rows] = v[k] * x_star.T @ (psi[k][:, None] * x_star) / n_obs
    bread = np.linalg.inv(d1)
    vc = bread @ d0 @ bread / n_obs
    return d0, d1, (vc + vc.T) / 2.0


# ---------------------------------------------------------------------
# Distributional references.
# ---------------------------------------------------------------------

def normal_quantile_erfinv(prob):
    return float(np.sqrt(2.0) * special.erfinv(2.0 * prob - 1.0))


def standard_normal_expectile_equation(theta, tau):
    """Residual of the expectile first-order condition for N(0, 1).

    Uses the closed-form partial moment E[(Y - t)+] = pdf(t) - t (1 - cdf(t)).
    """
    upper = stats.norm.pdf(theta) - theta * (1.0 - stats.norm.cdf(theta))
    lower = upper - (0.0 - theta)
    return tau * upper - (1.0 - tau) * lower


def two_moment_distribution_expectile(dist, tau):
    """Expectile of a frozen scipy distribution as the root of the direct
    condition tau * E[(Y - t)+] - (1 - tau) * E[(t - Y)+] = 0, each partial
    moment by its own quadrature; the package folds the upper moment into
    the mean and integrates the lower one only."""
    lo_support, hi_support = (float(b) for b in dist.support())

    def moment(theta, a, b, sign):
        if a >= b:
            return 0.0
        return integrate.quad(lambda y: sign * (y - theta) * dist.pdf(y), a, b,
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
