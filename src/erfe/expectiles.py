"""Scalar expectiles, cross-sectional expectile regression, distribution expectiles.

The scalar expectile is computed as the fixed point of the weighted-mean
map; the regression estimator by iterated weighted least squares.  Both
iterations terminate finitely in practice because the weights depend only
on residual signs: once the sign pattern stabilizes the next solve lands
exactly on the fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BracketFailureError,
    EmptyInputError,
    NoConvergenceError,
    ShapeMismatchError,
)
from .linalg import spd_solve
from .panel import check_weight, validate_tau

__all__ = [
    "ErFit",
    "IrlsConfig",
    "chi_squared",
    "distribution_expectile",
    "expectile_regression",
    "gaussian",
    "sample_expectile",
    "student_t",
]


@dataclass(frozen=True)
class IrlsConfig:
    """Stopping rules shared by the iterated weighted least squares fits.

    ``tol`` bounds the sup-norm change of the estimate between rounds,
    ``tol_grad`` the first-order condition at the accepted solution
    (scaled by 1 + max|y|), and ``max_iter`` the iteration budget.
    """

    tol: float = 1e-7
    max_iter: int = 100
    tol_grad: float = 1e-6

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if int(self.max_iter) < 1:
            raise ValueError("max_iter must be at least 1")
        if not self.tol_grad > 0:
            raise ValueError("tol_grad must be positive")


@dataclass(frozen=True)
class ErFit:
    """Converged cross-sectional expectile regression."""

    tau: float
    beta: np.ndarray
    residuals: np.ndarray
    iterations: int
    converged: bool


def sample_expectile(values, tau, config: IrlsConfig | None = None) -> float:
    """Expectile of a sample, as the fixed point of the weighted-mean map.

    Starting from the sample mean, the candidate is replaced by the
    check-weighted mean of the data until it reproduces itself.  The map
    is monotone, so the loop stops after finitely many steps; the
    iteration budget is a safety net only.
    """
    config = config or IrlsConfig()
    tau = validate_tau(tau)
    vals = np.asarray(values, dtype=float).ravel()
    if vals.size == 0:
        raise EmptyInputError("cannot take the expectile of an empty sample")
    if not np.all(np.isfinite(vals)):
        raise ValueError("sample contains missing or non-finite values")

    theta = float(np.mean(vals))
    delta = np.inf
    for _ in range(config.max_iter):
        w = check_weight(vals - theta, tau)
        new = float(np.dot(w, vals) / np.sum(w))
        if new == theta:
            return theta
        delta = abs(new - theta)
        theta = new
    if delta <= config.tol:
        return theta
    raise NoConvergenceError(
        f"sample expectile did not stabilize in {config.max_iter} iterations"
    )


def expectile_regression(X, y, tau, config: IrlsConfig | None = None) -> ErFit:
    """Expectile regression by iterated weighted least squares.

    Starts from the ordinary least squares solution (the tau = 0.5 case)
    and alternates between recomputing check weights at the current
    residuals and solving the weighted normal equations.  Convergence
    requires both a small sup-norm step and a small weighted-score vector.

    Raises SingularGramError when the weighted Gram matrix is numerically
    rank deficient and NoConvergenceError when the iteration budget runs
    out; the latter carries the last iterate as ``result``.
    """
    config = config or IrlsConfig()
    tau = validate_tau(tau)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ShapeMismatchError(
            f"design {X.shape} incompatible with response of length {y.shape[0]}"
        )
    if X.shape[0] < X.shape[1]:
        raise ValueError("need at least as many observations as regressors")

    grad_scale = 1.0 + float(np.max(np.abs(y))) if y.size else 1.0

    beta = _weighted_lstsq(X, y, np.full(y.shape[0], 0.5))
    resid = y - X @ beta
    iterations = 0
    converged = False
    for r in range(1, int(config.max_iter) + 1):
        w = check_weight(resid, tau)
        beta_new = _weighted_lstsq(X, y, w, iteration=r)
        delta = float(np.max(np.abs(beta_new - beta))) if beta.size else 0.0
        beta = beta_new
        resid = y - X @ beta
        iterations = r
        if delta <= config.tol:
            grad = X.T @ (check_weight(resid, tau) * resid)
            if float(np.max(np.abs(grad), initial=0.0)) <= config.tol_grad * grad_scale:
                converged = True
                break
    fit = ErFit(tau=tau, beta=beta, residuals=resid,
                iterations=iterations, converged=converged)
    if not converged:
        raise NoConvergenceError(
            f"expectile regression did not converge in {config.max_iter} iterations",
            result=fit,
        )
    return fit


def _weighted_lstsq(X, y, w, iteration=None):
    wX = X * w[:, None]
    return spd_solve(X.T @ wX, wX.T @ y, iteration=iteration)


def gaussian(mean: float = 0.0, sd: float = 1.0):
    """Frozen normal distribution with the given mean and standard deviation."""
    if not sd > 0:
        raise ValueError("standard deviation must be positive")
    # Imported here: scipy.stats takes ~1 s to import; fit and transform never use it.
    from scipy import stats

    return stats.norm(mean, sd)


def student_t(df: float):
    """Frozen Student t distribution; requires df > 2 for a finite variance."""
    if not df > 2:
        raise ValueError("student t needs more than 2 degrees of freedom")
    # Imported here: scipy.stats takes ~1 s to import; fit and transform never use it.
    from scipy import stats

    return stats.t(df)


def chi_squared(df: float):
    """Frozen chi-squared distribution with df > 0 degrees of freedom."""
    if not df > 0:
        raise ValueError("chi-squared needs positive degrees of freedom")
    # Imported here: scipy.stats takes ~1 s to import; fit and transform never use it.
    from scipy import stats

    return stats.chi2(df)


def _closed_form_lower_moment(dist):
    """theta -> E[(theta - Y)+] in closed form for a frozen normal, Student t
    or chi-squared law, with any loc and scale; None for any other law.

    With Y = loc + scale * Z and z = (theta - loc) / scale, the moment is
    scale * E[(z - Z)+], where for the standard law (cdf F, density f):

    - normal: E[(z - Z)+] = z F(z) + f(z);
    - Student t with nu > 1 degrees of freedom: z F(z) + (nu + z^2) / (nu - 1) f(z);
    - chi-squared with k degrees of freedom: z F_k(z) - k F_{k+2}(z).
    """
    law = getattr(dist, "dist", None)
    name = getattr(law, "name", None)
    if name not in ("norm", "t", "chi2"):
        return None
    names = law.shapes.split(", ") if law.shapes else []
    given = dict(zip([*names, "loc", "scale"], dist.args))
    given.update(dist.kwds)
    shapes = [float(given[key]) for key in names]
    loc, scale = float(given.get("loc", 0.0)), float(given.get("scale", 1.0))
    standard = law(*shapes)
    if name == "norm":
        def moment(z):
            return z * standard.cdf(z) + standard.pdf(z)
    elif name == "t":
        nu = shapes[0]

        def moment(z):
            return z * standard.cdf(z) + (nu + z * z) / (nu - 1.0) * standard.pdf(z)
    else:
        # Imported here, as in chi_squared: dist is already a scipy.stats law.
        from scipy import stats

        k, wider = shapes[0], stats.chi2(shapes[0] + 2.0)

        def moment(z):
            return z * standard.cdf(z) - k * wider.cdf(z)
    return lambda theta: scale * float(moment((theta - loc) / scale))


def distribution_expectile(dist, tau) -> float:
    """Expectile of an analytic distribution by partial-moment root finding.

    ``dist`` is a frozen scipy.stats continuous distribution with a finite
    variance.  The expectile is the root theta of

        tau * E[(Y - theta)+] - (1 - tau) * E[(theta - Y)+] = 0.

    As E[(Y - theta)+] = mean - theta + E[(theta - Y)+], this is

        tau * (mean - theta) + (2 * tau - 1) * E[(theta - Y)+] = 0,

    with the one partial moment in closed form for normal, Student t and
    chi-squared laws and by adaptive quadrature over the lower tail for any
    other; the root is isolated with an expanding bracket.
    """
    # Imported here: scipy.optimize is slow to import; fit and transform never use it.
    from scipy.optimize import brentq

    tau = validate_tau(tau)
    mean = float(dist.mean())
    var = float(dist.var())
    if not (np.isfinite(mean) and np.isfinite(var)):
        raise ValueError("distribution must have finite mean and variance")
    lo_support, hi_support = (float(b) for b in dist.support())
    pdf = dist.pdf

    def quadrature_moment(theta: float) -> float:
        b = min(theta, hi_support)
        if b <= lo_support:
            return 0.0
        # Imported here: only laws without a closed-form moment integrate.
        from scipy import integrate

        val, _ = integrate.quad(
            lambda yv: (theta - yv) * pdf(yv), lo_support, b,
            epsabs=1e-12, epsrel=1e-11, limit=200,
        )
        return val

    lower_moment = _closed_form_lower_moment(dist) or quadrature_moment

    def balance(theta: float) -> float:
        return tau * (mean - theta) + (2.0 * tau - 1.0) * lower_moment(theta)

    # balance() is strictly decreasing; expand around the mean until it
    # changes sign, then bisect with Brent's method.
    step = max(np.sqrt(var), 1.0)
    lo, hi = mean - step, mean + step
    f_lo, f_hi = balance(lo), balance(hi)
    tries = 0
    while f_lo < 0.0:
        lo -= step
        step *= 2.0
        f_lo = balance(lo)
        tries += 1
        if tries > 80:
            raise BracketFailureError("no sign change to the left of the mean")
    step = max(np.sqrt(var), 1.0)
    tries = 0
    while f_hi > 0.0:
        hi += step
        step *= 2.0
        f_hi = balance(hi)
        tries += 1
        if tries > 80:
            raise BracketFailureError("no sign change to the right of the mean")
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    root = brentq(balance, lo, hi, xtol=1e-12, rtol=8.9e-16)
    return float(root)
