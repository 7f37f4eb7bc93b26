"""Scalar expectiles, expectile regression, distribution expectiles."""

import numpy as np
import pytest
from scipy import stats

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


def test_no_convergence_carries_partial_result():
    rng = np.random.default_rng(14)
    X = np.column_stack([np.ones(40), rng.standard_normal(40)])
    y = X @ [1.0, 1.0] + rng.standard_normal(40)
    config = erfe.IrlsConfig(tol=1e-16, max_iter=1)
    with pytest.raises(NoConvergenceError) as excinfo:
        erfe.expectile_regression(X, y, 0.9, config)
    partial = excinfo.value.result
    assert partial is not None and not partial.converged
    assert partial.beta.shape == (2,)


def test_more_regressors_than_rows_rejected():
    with pytest.raises(ValueError):
        erfe.expectile_regression(np.ones((2, 3)), np.ones(2), 0.5)


def test_irls_config_validation():
    with pytest.raises(ValueError):
        erfe.IrlsConfig(tol=0.0)
    with pytest.raises(ValueError):
        erfe.IrlsConfig(max_iter=0)
    with pytest.raises(ValueError):
        erfe.IrlsConfig(tol_grad=-1.0)


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


@pytest.mark.parametrize("dist", ["gaussian", "t3", "chi2_3"])
def test_one_moment_balance_matches_two_moment_form(dist):
    frozen = {"gaussian": erfe.gaussian(0, 1), "t3": erfe.student_t(3),
              "chi2_3": erfe.chi_squared(3)}[dist]
    for tau in (0.01, 0.1, 0.5, 0.9, 0.99):
        theta = erfe.distribution_expectile(frozen, tau)
        reference = oracles.two_moment_distribution_expectile(frozen, tau)
        assert abs(theta - reference) <= 1e-10, (tau, theta, reference)


def test_student_t_low_df_rejected():
    with pytest.raises(ValueError):
        erfe.student_t(2.0)
    with pytest.raises(ValueError):
        erfe.student_t(1.5)
    # frozen heavy-tail distribution with infinite variance is also rejected
    with pytest.raises(ValueError):
        erfe.distribution_expectile(stats.t(2), 0.5)
