"""Scalar expectiles, expectile regression, distribution expectiles."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

import erfe
from erfe.errors import EmptyInputError, NoConvergenceError, SingularGramError

import oracles


# ---------------------------------------------------------------------
# sample_expectile
# ---------------------------------------------------------------------

def test_midpoint_is_mean():
    assert erfe.sample_expectile([1.0, 2.0, 3.0], 0.5) == pytest.approx(2.0, abs=1e-15)


def test_two_point_upper_expectile():
    # For theta in (0, 1) the weighted mean of {0, 1} at 0.9 is
    # 0.9/(0.1 + 0.9), so the fixed point is forced analytically.
    assert erfe.sample_expectile([0.0, 1.0], 0.9) == pytest.approx(0.9, abs=1e-12)


def test_against_golden_section_minimizer():
    rng = np.random.default_rng(123)
    values = rng.standard_normal(500)
    ours = erfe.sample_expectile(values, 0.8)
    reference = oracles.golden_section_expectile(values, 0.8, tol=1e-10)
    assert ours == pytest.approx(reference, abs=1e-8)


def test_empty_sample_rejected():
    with pytest.raises(EmptyInputError):
        erfe.sample_expectile([], 0.5)


def test_non_finite_sample_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            erfe.sample_expectile([1.0, bad, 2.0], 0.7)


def test_monotone_in_tau():
    rng = np.random.default_rng(5)
    for _ in range(100):
        values = rng.standard_normal(rng.integers(2, 40))
        taus = np.sort(rng.uniform(0.02, 0.98, 3))
        outs = [erfe.sample_expectile(values, t) for t in taus]
        assert outs[0] <= outs[1] + 1e-14 and outs[1] <= outs[2] + 1e-14


def test_location_scale_equivariance():
    rng = np.random.default_rng(6)
    for _ in range(100):
        values = rng.standard_normal(rng.integers(2, 40))
        tau = rng.uniform(0.05, 0.95)
        s = rng.uniform(0.1, 10.0)
        t = rng.uniform(-5.0, 5.0)
        lhs = erfe.sample_expectile(s * values + t, tau)
        rhs = s * erfe.sample_expectile(values, tau) + t
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_value_in_sample_range():
    rng = np.random.default_rng(7)
    values = rng.uniform(-3, 5, 25)
    for tau in (0.01, 0.5, 0.99):
        e = erfe.sample_expectile(values, tau)
        assert np.min(values) <= e <= np.max(values)


def test_out_of_rounds(monkeypatch):
    values = np.random.default_rng(1).standard_normal(1001)
    fixed = erfe.sample_expectile(values, 0.9)
    assert fixed == pytest.approx(0.78388173, abs=1e-8)
    # One round from the mean of {0, 1} moves the candidate to 0.9, short of
    # reproducing it, and the step of 0.4 exceeds TOL.
    monkeypatch.setattr(erfe.expectiles, "MAX_ROUNDS", 1)
    with pytest.raises(NoConvergenceError, match="did not stabilize in 1 iterations"):
        erfe.sample_expectile([0.0, 1.0], 0.9)
    # A last step within TOL is accepted, short of the fixed point.
    monkeypatch.setattr(erfe.expectiles, "MAX_ROUNDS", 4)
    monkeypatch.setattr(erfe.expectiles, "TOL", 1e-3)
    near = erfe.sample_expectile(values, 0.9)
    assert near != fixed and abs(near - fixed) <= 1e-3


# ---------------------------------------------------------------------
# expectile_regression
# ---------------------------------------------------------------------

def test_regression_midpoint_is_ols():
    rng = np.random.default_rng(8)
    X = np.column_stack([np.ones(40), rng.standard_normal((40, 2))])
    y = X @ [1.0, -2.0, 0.5] + rng.standard_normal(40)
    fit = erfe.expectile_regression(X, y, 0.5)
    ols, *_ = np.linalg.lstsq(X, y, rcond=None)
    assert np.max(np.abs(fit.beta - ols)) <= 1e-10
    assert fit.converged


def test_intercept_only_reduces_to_sample_expectile():
    rng = np.random.default_rng(9)
    y = rng.standard_normal(30)
    for tau in (0.2, 0.5, 0.9):
        fit = erfe.expectile_regression(np.ones((30, 1)), y, tau)
        assert fit.beta[0] == pytest.approx(erfe.sample_expectile(y, tau), abs=1e-8)


def test_against_convex_minimizer():
    rng = np.random.default_rng(10)
    X = np.column_stack([np.ones(20), rng.standard_normal(20)])
    y = X @ [0.5, 1.5] + rng.standard_normal(20)
    fit = erfe.expectile_regression(X, y, 0.8)
    reference = oracles.minimize_expectile_objective(X, y, 0.8)
    assert np.max(np.abs(fit.beta - reference)) <= 1e-6


def test_gradient_condition_at_fit():
    rng = np.random.default_rng(11)
    for tau in (0.1, 0.6, 0.95):
        X = np.column_stack([np.ones(50), rng.standard_normal((50, 2))])
        y = X @ [1.0, 0.3, -0.7] + rng.standard_normal(50)
        fit = erfe.expectile_regression(X, y, tau)
        w = erfe.check_weight(fit.residuals, tau)
        score = X.T @ (w * fit.residuals)
        assert np.max(np.abs(score)) <= 1e-6 * (1.0 + np.max(np.abs(y)))


def test_residual_expectile_vanishes_with_intercept():
    rng = np.random.default_rng(12)
    X = np.column_stack([np.ones(60), rng.standard_normal(60)])
    y = X @ [2.0, 1.0] + rng.standard_normal(60)
    fit = erfe.expectile_regression(X, y, 0.7)
    assert abs(erfe.sample_expectile(fit.residuals, 0.7)) <= 1e-6


def test_singular_design_raises():
    rng = np.random.default_rng(13)
    x = rng.standard_normal(20)
    X = np.column_stack([x, 2.0 * x])
    with pytest.raises(SingularGramError):
        erfe.expectile_regression(X, x + 1.0, 0.5)


def test_no_convergence_carries_partial_result(monkeypatch):
    rng = np.random.default_rng(14)
    X = np.column_stack([np.ones(40), rng.standard_normal(40)])
    y = X @ [1.0, 1.0] + rng.standard_normal(40)
    monkeypatch.setattr(erfe.expectiles, "MAX_ROUNDS", 1)
    monkeypatch.setattr(erfe.expectiles, "TOL", 1e-16)
    with pytest.raises(NoConvergenceError) as excinfo:
        erfe.expectile_regression(X, y, 0.9)
    partial = excinfo.value.result
    assert partial is not None and not partial.converged
    assert partial.beta.shape == (2,)


def test_more_regressors_than_rows_rejected():
    with pytest.raises(ValueError):
        erfe.expectile_regression(np.ones((2, 3)), np.ones(2), 0.5)


# ---------------------------------------------------------------------
# distribution_expectile
# ---------------------------------------------------------------------

def test_gaussian_midpoint_is_mean():
    assert abs(erfe.distribution_expectile(erfe.gaussian(0, 1), 0.5)) <= 1e-9


def test_gaussian_root_satisfies_closed_form_equation():
    for tau in (0.1, 0.3, 0.8, 0.95):
        theta = erfe.distribution_expectile(erfe.gaussian(0, 1), tau)
        assert abs(oracles.standard_normal_expectile_equation(theta, tau)) <= 1e-9


def test_gaussian_location_scale():
    base = erfe.distribution_expectile(erfe.gaussian(0, 1), 0.8)
    shifted = erfe.distribution_expectile(erfe.gaussian(3.0, 2.0), 0.8)
    assert shifted == pytest.approx(3.0 + 2.0 * base, abs=1e-8)


def test_student_t_symmetry():
    t3 = erfe.student_t(3)
    for tau in (0.1, 0.25, 0.4):
        a = erfe.distribution_expectile(t3, tau)
        b = erfe.distribution_expectile(t3, 1.0 - tau)
        assert a == pytest.approx(-b, abs=1e-9)


def test_chi_squared_midpoint_is_mean():
    theta = erfe.distribution_expectile(erfe.chi_squared(3), 0.5)
    assert theta == pytest.approx(3.0, abs=1e-9)


def test_monotone_in_tau_distributional():
    dist = erfe.chi_squared(3)
    vals = [erfe.distribution_expectile(dist, t) for t in (0.1, 0.5, 0.9)]
    assert vals[0] < vals[1] < vals[2]


@pytest.mark.parametrize("dist", [stats.norm(1.5, 2.0),
                                  stats.t(3.0, loc=-1.0, scale=0.5),
                                  stats.chi2(4.0, loc=2.0, scale=3.0),
                                  stats.gamma(2.5, 1.0, 2.0)],
                         ids=["gaussian", "t3", "chi2_4", "gamma"])
def test_oracle_density_matches_scipy_pdf(dist):
    density = oracles.law_density(dist)
    for y in (-3.0, 0.5, 2.5, 4.0, 9.0, 30.0):
        assert density(y) == pytest.approx(float(dist.pdf(y)), rel=1e-13)


# The simulator's error laws: the erfe law, the equivalent scipy law, and
# the family and degrees of freedom of the mpmath oracle.
_ERROR_LAWS = {
    "gaussian": (erfe.gaussian(0, 1), stats.norm(), "norm", None),
    "t3": (erfe.student_t(3), stats.t(3), "t", 3),
    "chi2_3": (erfe.chi_squared(3), stats.chi2(3), "chi2", 3),
}


@pytest.mark.parametrize("dist", ["gaussian", "t3", "chi2_3"])
def test_one_moment_balance_matches_two_moment_form(dist):
    law, scipy_law, _, _ = _ERROR_LAWS[dist]
    for tau in (0.01, 0.1, 0.5, 0.9, 0.99):
        theta = erfe.distribution_expectile(law, tau)
        reference = oracles.two_moment_distribution_expectile(scipy_law, tau)
        assert abs(theta - reference) <= 1e-10, (tau, theta, reference)


@pytest.mark.parametrize("dist", ["gaussian", "t3", "chi2_3", "t5", "t30", "t200", "t1000"])
def test_closed_forms_are_within_4_ulp_of_mpmath(dist):
    # The t laws off the simulator's check the t moment's density constant
    # (t5) and its tail where x = df / (df + z^2) is close to 1 (t30 to t1000).
    df = int(dist[1:]) if dist[0] == "t" else None
    law, _, family, shape = _ERROR_LAWS.get(dist) or (erfe.student_t(df), None, "t", df)
    for tau in (0.001, 0.005, 0.01, 0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9, 0.99, 0.995,
                0.999):
        theta = erfe.distribution_expectile(law, tau)
        reference = oracles.mpmath_distribution_expectile(family, shape, tau, theta)
        assert abs(mpmath.mpf(theta) - reference) <= 4 * math.ulp(theta), (tau, theta)
    assert erfe.distribution_expectile(law, 0.5) == law.mean()


@pytest.mark.parametrize("scipy_law, law", [
    (stats.norm(1.5, 2.0), erfe.gaussian(1.5, 2.0)),
    (stats.t(3, -1.0, 0.5), erfe.Law("t", 3.0, -1.0, 0.5)),
    (stats.t(5.0, loc=2.0, scale=3.0), erfe.Law("t", 5.0, 2.0, 3.0)),
    (stats.chi2(4.0, loc=2.0, scale=3.0), erfe.Law("chi2", 4.0, 2.0, 3.0)),
], ids=["gaussian", "t3", "t5", "chi2_4"])
def test_scipy_laws_with_integer_df_take_the_same_closed_form(scipy_law, law):
    for tau in (0.01, 0.3, 0.5, 0.8, 0.99):
        theta = erfe.distribution_expectile(law, tau)
        assert erfe.distribution_expectile(scipy_law, tau) == theta, tau


def test_fractional_df_takes_quadrature():
    law = erfe.Law("t", 3.5, 1.0, 2.0)
    assert erfe.expectiles._closed_form_moment(law) is None
    theta = erfe.distribution_expectile(law, 0.9)
    reference = oracles.two_moment_distribution_expectile(stats.t(3.5, 1.0, 2.0), 0.9)
    assert abs(theta - reference) <= 1e-10


@pytest.mark.parametrize("dist", [stats.norm(1.5, 2.0),
                                  stats.t(5.0, loc=-1.0, scale=0.5),
                                  stats.chi2(4.0, loc=2.0, scale=3.0)],
                         ids=["gaussian", "t5", "chi2_4"])
def test_closed_form_moments_match_two_moment_quadrature(dist):
    # Normal, t and chi-squared laws take the closed-form lower partial
    # moment, with loc and scale standardised away.
    assert erfe.expectiles._closed_form_moment(erfe.expectiles._law(dist)) is not None
    for tau in (0.01, 0.5, 0.99):
        theta = erfe.distribution_expectile(dist, tau)
        reference = oracles.two_moment_distribution_expectile(dist, tau)
        assert abs(theta - reference) <= 1e-12 * abs(reference), (tau, theta, reference)


def test_other_laws_take_quadrature(monkeypatch):
    gamma = stats.gamma(2.5)
    assert erfe.expectiles._law(gamma) is None
    calls = []
    quad = integrate.quad
    monkeypatch.setattr(integrate, "quad",
                        lambda *a, **k: calls.append(1) or quad(*a, **k))
    theta = erfe.distribution_expectile(gamma, 0.8)
    # Brent's method, not a bisection to adjacent floats (some 50 calls).
    assert 0 < len(calls) <= 15
    monkeypatch.undo()
    assert abs(theta - oracles.two_moment_distribution_expectile(gamma, 0.8)) <= 1e-10


@pytest.mark.parametrize("family", ["t", "chi2"])
@pytest.mark.parametrize("shape", [0.0, -1.0, math.nan])
def test_law_rejects_nonpositive_degrees_of_freedom(family, shape):
    with pytest.raises(ValueError, match="needs positive degrees of freedom"):
        erfe.Law(family, shape)


@pytest.mark.parametrize("df", [1.0, 2.0, 3.0, 4.5])
def test_chi_squared_density_at_the_edge_of_its_support_is_scipys(df):
    law, scipy_law = erfe.Law("chi2", df, 1.0, 2.0), stats.chi2(df, 1.0, 2.0)
    for y in (0.0, 1.0, 1.5):
        assert law.pdf(y) == pytest.approx(float(scipy_law.pdf(y)), rel=1e-13), y


def test_student_t_low_df_rejected():
    with pytest.raises(ValueError):
        erfe.student_t(2.0)
    with pytest.raises(ValueError):
        erfe.student_t(1.5)
    # frozen heavy-tail distribution with infinite variance is also rejected
    with pytest.raises(ValueError):
        erfe.distribution_expectile(stats.t(2), 0.5)
