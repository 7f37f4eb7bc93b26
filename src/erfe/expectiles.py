"""Scalar expectiles, cross-sectional expectile regression, distribution
expectiles and the normal quantile.

The scalar expectile is computed as the fixed point of the weighted-mean
map; the regression estimator by iterated weighted least squares.  Both
iterations terminate finitely in practice because the weights depend only
on residual signs: once the sign pattern stabilizes the next solve lands
exactly on the fixed point.  The stopping rule, here and in the panel
fits of ``estimator``, is fixed and is a safety net only: a sup-norm step
within ``TOL`` = 1e-7 and scores within ``TOL_GRAD`` * (1 + max|y|) =
1e-6 * (1 + max|y|), in at most ``MAX_ROUNDS`` = 100 rounds (the scalar
expectile has no score test).
"""

from __future__ import annotations

import math
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
    "Law",
    "chi_squared",
    "distribution_expectile",
    "expectile_regression",
    "gaussian",
    "normal_quantile",
    "sample_expectile",
    "student_t",
]


# The stopping rule of the module docstring, read at call time by every
# loop (the estimator's through this module): patching one changes all.
TOL = 1e-7
TOL_GRAD = 1e-6
MAX_ROUNDS = 100


@dataclass(frozen=True)
class ErFit:
    """Converged cross-sectional expectile regression."""

    tau: float
    beta: np.ndarray
    residuals: np.ndarray
    iterations: int
    converged: bool


def sample_expectile(values, tau) -> float:
    """Expectile of a sample, as the fixed point of the weighted-mean map.

    Starting from the sample mean, the candidate is replaced by the
    check-weighted mean of the data until it reproduces itself.  The map
    is monotone, so the loop stops after finitely many steps; the
    iteration budget is a safety net only.
    """
    tau = validate_tau(tau)
    vals = np.asarray(values, dtype=float).ravel()
    if vals.size == 0:
        raise EmptyInputError("cannot take the expectile of an empty sample")
    if not np.all(np.isfinite(vals)):
        raise ValueError("sample contains missing or non-finite values")

    theta = float(np.mean(vals))
    delta = np.inf
    for _ in range(MAX_ROUNDS):
        w = check_weight(vals - theta, tau)
        new = float(np.dot(w, vals) / np.sum(w))
        if new == theta:
            return theta
        delta = abs(new - theta)
        theta = new
    if delta <= TOL:
        return theta
    raise NoConvergenceError(
        f"sample expectile did not stabilize in {MAX_ROUNDS} iterations"
    )


def expectile_regression(X, y, tau) -> ErFit:
    """Expectile regression by iterated weighted least squares.

    Starts from the ordinary least squares solution (the tau = 0.5 case)
    and alternates between recomputing check weights at the current
    residuals and solving the weighted normal equations.  Convergence
    requires both a small sup-norm step and a small weighted-score vector.

    Raises SingularGramError when the weighted Gram matrix is numerically
    rank deficient and NoConvergenceError when the iteration budget runs
    out; the latter carries the last iterate as ``result``.
    """
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
    for r in range(1, MAX_ROUNDS + 1):
        w = check_weight(resid, tau)
        beta_new = _weighted_lstsq(X, y, w, iteration=r)
        delta = float(np.max(np.abs(beta_new - beta))) if beta.size else 0.0
        beta = beta_new
        resid = y - X @ beta
        iterations = r
        if delta <= TOL:
            grad = X.T @ (check_weight(resid, tau) * resid)
            if float(np.max(np.abs(grad), initial=0.0)) <= TOL_GRAD * grad_scale:
                converged = True
                break
    fit = ErFit(tau=tau, beta=beta, residuals=resid,
                iterations=iterations, converged=converged)
    if not converged:
        raise NoConvergenceError(
            f"expectile regression did not converge in {MAX_ROUNDS} iterations",
            result=fit,
        )
    return fit


def _weighted_lstsq(X, y, w, iteration=None):
    wX = X * w[:, None]
    return spd_solve(X.T @ wX, wX.T @ y, iteration=iteration)


# The closed forms below take Student t and chi-squared laws with integer
# degrees of freedom up to this bound: their series and products have about
# df / 2 terms, and the chi-squared series' first term, exp(-x/2),
# underflows past x = 1490, so the lower tail below the mean needs df well
# under that.
_MAX_SERIES_DF = 1000
# sqrt(1/2) as an unevaluated sum of two doubles, 2 / sqrt(pi), 1 / sqrt(2 pi).
_SQRT_HALF = (0.7071067811865476, -4.833646656726457e-17)
_TWO_OVER_SQRT_PI = 1.1283791670955126
_INV_SQRT_2PI = 0.3989422804014327
# pi to 60 digits, for the Student t moment's decimal arithmetic.
_PI_DIGITS = "3.14159265358979323846264338327950288419716939937510582097494"


@dataclass(frozen=True)
class Law:
    """The law of loc + scale * Z, Z a standard normal (``family`` "norm"),
    Student t or chi-squared law (``"t"``, ``"chi2"``, their names in
    scipy.stats) with ``shape`` degrees of freedom (None for the normal).

    ``mean``, ``var``, ``support`` and ``pdf`` (of a float) answer as a
    frozen scipy.stats law's methods do, so ``distribution_expectile``
    reads either kind alike; like scipy's, the chi-squared density at the
    edge of its support is its limit there.
    """

    family: str
    shape: float | None
    loc: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.family not in ("norm", "t", "chi2"):
            raise ValueError(f"unknown law family {self.family!r}")
        if (self.shape is None) != (self.family == "norm"):
            raise ValueError("t and chi2 laws take degrees of freedom, norm none")
        if self.shape is not None and not self.shape > 0:
            name = "student t" if self.family == "t" else "chi-squared"
            raise ValueError(f"{name} needs positive degrees of freedom")
        if not self.scale > 0:
            raise ValueError("scale must be positive")

    def mean(self) -> float:
        if self.family == "chi2":
            return self.loc + self.scale * self.shape
        return self.loc if self.family == "norm" or self.shape > 1 else math.nan

    def var(self) -> float:
        if self.family == "chi2":
            return 2.0 * self.shape * self.scale ** 2
        if self.family == "t":
            if not self.shape > 2:
                return math.inf
            return self.scale ** 2 * self.shape / (self.shape - 2.0)
        return self.scale ** 2

    def support(self) -> tuple[float, float]:
        return (self.loc if self.family == "chi2" else -math.inf), math.inf

    def pdf(self, y: float) -> float:
        z, nu = (y - self.loc) / self.scale, self.shape
        if self.family == "norm":
            return _normal_pdf(z) / self.scale
        if self.family == "t":
            const = (math.exp(math.lgamma(0.5 * (nu + 1.0)) - math.lgamma(0.5 * nu))
                     / math.sqrt(math.pi))
            kernel = math.exp(-0.5 * (nu + 1.0) * math.log1p(z * z / nu))
            return const / math.sqrt(nu) * kernel / self.scale
        if z > 0.0:
            log_density = ((0.5 * nu - 1.0) * math.log(z) - 0.5 * z
                           - 0.5 * nu * math.log(2.0) - math.lgamma(0.5 * nu))
        elif z == 0.0:
            return (math.inf if nu < 2.0 else 0.5 if nu == 2.0 else 0.0) / self.scale
        else:
            return 0.0
        return math.exp(log_density) / self.scale


def gaussian(mean: float = 0.0, sd: float = 1.0) -> Law:
    """Normal law with the given mean and standard deviation."""
    if not sd > 0:
        raise ValueError("standard deviation must be positive")
    return Law("norm", None, float(mean), float(sd))


def student_t(df: float) -> Law:
    """Student t law; requires df > 2 for a finite variance."""
    if not df > 2:
        raise ValueError("student t needs more than 2 degrees of freedom")
    return Law("t", float(df))


def chi_squared(df: float) -> Law:
    """Chi-squared law with df > 0 degrees of freedom."""
    return Law("chi2", float(df))


def _law(dist) -> Law | None:
    """``dist`` itself if it is a Law, the Law of a frozen scipy.stats
    normal, t or chi-squared law, and None for any other law."""
    if isinstance(dist, Law):
        return dist
    family = getattr(dist, "dist", None)
    name = getattr(family, "name", None)
    if name not in ("norm", "t", "chi2"):
        return None
    names = family.shapes.split(", ") if family.shapes else []
    given = dict(zip([*names, "loc", "scale"], dist.args))
    given.update(dist.kwds)
    shape = float(given[names[0]]) if names else None
    return Law(name, shape, float(given.get("loc", 0.0)), float(given.get("scale", 1.0)))


def _two_product(a: float, b: float) -> tuple[float, float]:
    """a * b as p + e exactly: the rounded product and its error (Dekker)."""
    p = a * b
    a_hi = 134217729.0 * a - (134217729.0 * a - a)
    b_hi = 134217729.0 * b - (134217729.0 * b - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _normal_cdf(z: float, central: bool = False) -> float:
    """Standard normal distribution function Phi(z), or Phi(z) - 1/2 if
    ``central``, to a few ulp: the rounding of erfc's (erf's) argument
    -z / sqrt(2) is corrected to first order."""
    w, err = _two_product(-z, _SQRT_HALF[0])
    correction = (err - z * _SQRT_HALF[1]) * _TWO_OVER_SQRT_PI * math.exp(-w * w)
    if central:
        return -0.5 * (math.erf(w) + correction)
    return 0.5 * (math.erfc(w) - correction)


def _normal_pdf(z: float) -> float:
    """Standard normal density."""
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


def normal_quantile(prob: float) -> float:
    """Quantile of the standard normal distribution, to within 2 ulp.

    Wichura's AS 241 (``statistics.NormalDist.inv_cdf``), polished by one
    Newton step on Phi(x) = prob, whose residual is taken where it carries
    no rounding of prob: Phi(x) - prob in the lower tail, (1 - prob) -
    (1 - Phi(x)) in the upper one, and (Phi(x) - 1/2) - (prob - 1/2)
    between the quartiles.
    """
    if not 0.0 < prob < 1.0:
        raise ValueError("probability must lie in (0, 1)")
    # Imported here: statistics pulls in decimal and fractions, which
    # every command but fit could do without.
    from statistics import NormalDist

    x = NormalDist().inv_cdf(prob)
    if prob < 0.25:
        residual = _normal_cdf(x) - prob
    elif prob > 0.75:
        residual = (1.0 - prob) - _normal_cdf(-x)
    else:
        residual = _normal_cdf(x, central=True) - (prob - 0.5)
    return x - residual / _normal_pdf(x)


def _t_lower_moment(z: float, nu: int) -> float:
    """E[(z - Z)+] = z F(z) + (nu + z^2) / (nu - 1) f(z) for Z Student t
    with integer nu > 1 degrees of freedom.

    With x = cos^2 theta = nu / (nu + z^2) and s = sin theta, A&S 26.7.3-4
    write 2 F(-|z|) = 1 - A as 1 - s sum_{j<J} c_j x^j (even nu, J = nu/2,
    c_j = (1/2)_j / j!) or (2/pi) atan(sqrt(nu) / |z|) - (2/pi) s sqrt(x)
    sum_{j<J} d_j x^j (odd nu, J = (nu-1)/2, d_j = (2j)!! / (2j+1)!!).
    The full series sum to 1, so 1 - A is also the series continued from
    j = J, a sum of positive terms.  The continued series is taken only
    where 1 - A < 1e-25; there x < 0.9 for every nu up to
    ``_MAX_SERIES_DF``, so it converges quickly.

    All of it is evaluated in 50-digit decimal arithmetic and rounded once.
    In doubles, the rounding of x, raised to powers up to J, and the
    cancellations in 1 - A and in the moment itself put expectiles up to
    a thousand ulp off at 1000 degrees of freedom.
    """
    # Imported here: only Student t laws take this moment.
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 50
        odd = nu % 2
        pi, z, root_nu = Decimal(_PI_DIGITS), Decimal(z), Decimal(nu).sqrt()
        r = nu + z * z
        x, s = nu / r, abs(z) / r.sqrt()
        term = 2 / pi * s * x.sqrt() if odd else s
        head = 0
        for j in range((nu - odd) // 2):
            head += term
            term *= x * (2 * j + 1 + odd) / (2 * j + 2 + odd)
        whole = 1 - 2 / pi * _decimal_atan(abs(z) / root_nu) if odd else 1
        tail, j = whole - head, (nu - odd) // 2
        if tail < Decimal("1e-25"):
            tail = 0
            while tail + term != tail:
                tail += term
                term *= x * (2 * j + 1 + odd) / (2 * j + 2 + odd)
                j += 1
        cdf = tail / 2 if z < 0 else 1 - tail / 2
        # Gamma((nu+1)/2) / (sqrt(pi) Gamma(nu/2)) = (nu-1)!! / (nu-2)!! / (pi or 2).
        ratio = Decimal(math.prod(range(nu - 1, 0, -2))) / math.prod(range(nu - 2, 0, -2))
        const = ratio / (pi if odd else 2)
        density = const / root_nu * ((nu + 1) * (r / nu).ln() / -2).exp()
        return float(z * cdf + r / (nu - 1) * density)


def _decimal_atan(u):
    """atan(u) of a non-negative Decimal, to the context's precision: the
    angle is halved, atan(u) = 2 atan(u / (1 + sqrt(1 + u^2))), until
    u <= 1/20, and the Taylor series is summed until it stops changing."""
    halvings = 0
    while 20 * u > 1:
        u /= 1 + (1 + u * u).sqrt()
        halvings += 1
    total, power, k = 0, u, 1
    while total + power / k != total:
        total += power / k
        power, k = -power * u * u, k + 2
    return total * 2 ** halvings


def _chi2_tails(x: float, k: int) -> tuple[float, float]:
    """(F_k(x), 1 - F_k(x)) of chi-squared with integer k degrees of
    freedom, x > 0.

    A&S 26.4.4-5 write the upper tail as sum_{i<J} u_i, plus erfc(sqrt(x/2))
    for odd k, with u_0 = exp(-x/2) (even k, J = k/2) or sqrt(2x/pi)
    exp(-x/2) (odd k, J = (k-1)/2) and u_{i+1} = u_i x / (2i + 2 + k % 2).
    The series continued from i = J sums to the lower tail, so each tail is
    a sum of positive terms: below the mean k the lower one is summed, from
    k on the upper one, and the other is its complement.
    """
    odd = k % 2
    term = math.sqrt(2.0 * x / math.pi) * math.exp(-0.5 * x) if odd else math.exp(-0.5 * x)
    upper = math.erfc(math.sqrt(0.5 * x)) if odd else 0.0
    for i in range((k - odd) // 2):
        upper += term
        term *= x / (2 * i + 2 + odd)
    if x >= k:
        return 1.0 - upper, upper
    lower, i = 0.0, (k - odd) // 2
    while term > 1e-18 * lower:
        lower += term
        term *= x / (2 * i + 2 + odd)
        i += 1
    return lower, 1.0 - lower


def _standard_moment(standard: Law, z: float, upper: bool) -> float:
    """E[(Z - z)+] if ``upper``, else E[(z - Z)+], for the standard law Z
    (loc 0, scale 1; integer degrees of freedom)."""
    nu = None if standard.shape is None else int(standard.shape)
    if standard.family == "chi2":
        if z <= 0.0:
            return nu - z if upper else 0.0
        (f_k, q_k), (f_wide, q_wide) = _chi2_tails(z, nu), _chi2_tails(z, nu + 2)
        return nu * q_wide - z * q_k if upper else z * f_k - nu * f_wide
    if upper:  # Z is symmetric
        z = -z
    if standard.family == "norm":
        return z * _normal_cdf(z) + standard.pdf(z)
    return _t_lower_moment(z, nu)


def _closed_form_moment(law):
    """(theta, upper) -> E[(Y - theta)+] if upper, else E[(theta - Y)+], in
    closed form for the Law Y = loc + scale * Z of a normal law, or of a
    Student t or chi-squared law with integer degrees of freedom (at most
    ``_MAX_SERIES_DF``); None for any other Law and for anything not a Law.

    With z = (theta - loc) / scale, each moment is scale times that of the
    standard law Z (distribution function F, density f), and
    E[(Z - z)+] = E[(z - Z)+] + E[Z] - z, where

    - normal: E[(z - Z)+] = z F(z) + f(z);
    - Student t with nu > 1 degrees of freedom: z F(z) + (nu + z^2) / (nu - 1) f(z);
    - chi-squared with k degrees of freedom: z F_k(z) - k F_{k+2}(z).

    Each moment is evaluated where it is small without that subtraction:
    the symmetric laws' upper moment is the lower one at -z, and the
    chi-squared upper moment is k (1 - F_{k+2}(z)) - z (1 - F_k(z)), with
    both tails from ``_chi2_tails``.
    """
    if not isinstance(law, Law):
        return None
    nu = law.shape
    if nu is not None and not (float(nu).is_integer() and nu <= _MAX_SERIES_DF):
        return None
    standard = Law(law.family, nu)

    def moment(theta: float, upper: bool) -> float:
        z = (theta - law.loc) / law.scale
        return law.scale * _standard_moment(standard, z, upper)

    return moment


def _quadrature_moment(dist):
    """The moments of ``_closed_form_moment`` for a Law or a frozen
    scipy.stats law, each by adaptive quadrature of (y - theta) times its
    density."""
    lo_support, hi_support = (float(b) for b in dist.support())
    pdf = dist.pdf

    def moment(theta: float, upper: bool) -> float:
        if upper:
            lo, hi = max(theta, lo_support), hi_support
        else:
            lo, hi = lo_support, min(theta, hi_support)
        if lo >= hi:
            return 0.0
        # Imported here: only laws without a closed-form moment integrate.
        from scipy import integrate

        sign = 1.0 if upper else -1.0
        val, _ = integrate.quad(lambda yv: sign * (yv - theta) * pdf(yv), lo, hi,
                                epsabs=1e-12, epsrel=1e-11, limit=200)
        return val

    return moment


def distribution_expectile(dist, tau) -> float:
    """Expectile of a law with a finite variance, by partial-moment root
    finding.

    ``dist`` is a Law (``gaussian``, ``student_t``, ``chi_squared``) or a
    frozen scipy.stats continuous law.  The expectile is the root theta of

        tau * E[(Y - theta)+] - (1 - tau) * E[(theta - Y)+] = 0,

    which lies above the mean for tau > 0.5 and below it for tau < 0.5.
    As E[(Y - theta)+] - E[(theta - Y)+] = mean - theta, the balance on
    each side keeps only the partial moment that is small there:

        (1 - tau) (mean - theta) + (2 tau - 1) E[(Y - theta)+]   (tau > 0.5),
        tau (mean - theta) + (2 tau - 1) E[(theta - Y)+]         (tau < 0.5),

    so that theta - mean comes out to a few ulp.  The moment is in closed
    form (``_closed_form_moment``) for normal laws and for Student t and
    chi-squared laws with integer degrees of freedom, whether given as a
    Law or as a scipy.stats law with any loc and scale, and by adaptive
    quadrature (scipy.integrate) for any other law.  The root is bracketed
    by steps away from the mean; a closed-form moment's bracket is bisected
    down to adjacent floats, and a quadrature's is narrowed by Brent's
    method (scipy.optimize) to a width of 1e-12, as quadrature is good to
    a relative 1e-11 only.  tau = 0.5 gives the mean itself.
    """
    tau = validate_tau(tau)
    dist = _law(dist) or dist
    mean, var = float(dist.mean()), float(dist.var())
    if not (math.isfinite(mean) and math.isfinite(var)):
        raise ValueError("distribution must have finite mean and variance")
    if tau == 0.5:
        return mean
    closed_form = _closed_form_moment(dist)
    moment = closed_form or _quadrature_moment(dist)
    upper = tau > 0.5
    weight, direction = (1.0 - tau, 1.0) if upper else (tau, -1.0)

    def balance(theta: float) -> float:
        return weight * (mean - theta) + (2.0 * tau - 1.0) * moment(theta, upper)

    # balance() is strictly decreasing and has the sign of direction at the
    # mean: double the step away from the mean until the sign changes.
    step = max(math.sqrt(var), 1.0)
    inner, f_inner = mean, balance(mean)
    outer = mean + direction * step
    tries = 0
    while direction * (f_outer := balance(outer)) > 0.0:
        inner, f_inner = outer, f_outer
        step *= 2.0
        outer = mean + direction * step
        tries += 1
        if tries > 80:
            side = "right" if upper else "left"
            raise BracketFailureError(f"no sign change to the {side} of the mean")
    if closed_form is None:
        # Bisection would spend some 40 quadratures on halvings below the
        # quadrature's own error; Brent's method needs about 10.
        from scipy.optimize import brentq

        return float(brentq(balance, min(inner, outer), max(inner, outer),
                            xtol=1e-12, rtol=8.9e-16))
    while (mid := 0.5 * (inner + outer)) not in (inner, outer):
        f_mid = balance(mid)
        if direction * f_mid > 0.0:
            inner, f_inner = mid, f_mid
        else:
            outer, f_outer = mid, f_mid
    return inner if abs(f_inner) < abs(f_outer) else outer
