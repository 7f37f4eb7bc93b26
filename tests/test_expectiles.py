"""Scalar expectiles, pooled expectile regression as the panel fit on one
subject, distribution expectiles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import erfe
from erfe.cli import main
from erfe.errors import EmptyInputError

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


def test_upper_expectile_of_a_normal_sample_is_the_loops_fixed_point():
    values = np.random.default_rng(1).standard_normal(1001)
    got = erfe.sample_expectile(values, 0.9)
    assert got == pytest.approx(0.78388173, abs=1e-8)
    assert oracles.sample_expectile_loop(values, 0.9) == (got, True)


# Samples of up to 300 values: any floats, small integers, or a few
# distinct values repeated, so that ties are common and the expectile often
# falls on a value.  Scaled by 10^-320 (subnormal values) up to 10^3, so
# that an ulp of the values stays below the loop's absolute tolerance.  The
# asymmetric points include those within a few ulp of 1/2, where the
# expectile is within rounding of the sample mean.
_SAMPLES = st.one_of(
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=300),
    st.lists(st.integers(-4, 4), min_size=1, max_size=300),
    st.tuples(st.lists(st.floats(-10, 10), min_size=1, max_size=5),
              st.lists(st.integers(0, 4), min_size=1, max_size=300)).map(
        lambda drawn: [drawn[0][i % len(drawn[0])] for i in drawn[1]]),
)


@settings(max_examples=300, deadline=None)
@example([0, 0, 0, 2, -2, -3, 4, 4, -4, -4, -4, -4, -4], 1, 1 / 3)
@example([0, -2, -1, 5, 1], 1, 0.6)
@example([-1, -2, 5, -2, -3, 1], 1, 1 / 3)
@example([0.0, 3.469563092132488e-281], -43, 0.25)
@example([-1.5e-323, -1e-323], 0, 0.9)
@example([1.2, 0.8999999999999999, 0.8999999999999999, 0.6, 0.6, -0.6], 0, 0.4999999999999999)
@example([1.0, 1.3333333333333333, 0.6666666666666666], 0, 0.4999999999999999)
@given(_SAMPLES, st.integers(-320, 3),
       st.one_of(st.floats(0.001, 0.999),
                 st.integers(-8, 8).map(lambda k: 0.5 + k * 2.0 ** -53)))
def test_exact_expectile_has_the_loops_bits_at_its_fixed_point(values, exponent, tau):
    # In the first three examples the expectile is one of the values, so
    # rounding decides which splits hold a fixed point.  In the first, the
    # prefix sums pick the split below -20, whose weighted mean rounds to
    # -20.0; the loop stops at -19.999999999999996, in the split above.  In
    # the next two, two adjacent splits hold one each (9.999999999999998
    # and 10.0; -10.000000000000002 and -10.0), and the loop stops at the
    # one on the side of the mean.  In the fourth, the values are 0 and the
    # smallest subnormal, and every weighted mean rounds to one of them.  In
    # the fifth, every weighted mean of the two negative subnormals rounds
    # to zero, and the loop stops there, above the sample: a split holds
    # only weighted means within the sample's range.  In the sixth, the
    # sample mean rounds to 0.5999999999999999, below the value 0.6 and the
    # expectile, so the loop rises although tau < 1/2.  In the seventh, the
    # sample mean, 0.9999999999999999, is a fixed point, and so is 1.0 in
    # the split above it, which the loop, falling from the mean, never sees.
    vals = np.asarray(values, dtype=float) * 10.0 ** exponent
    got = erfe.sample_expectile(vals, tau)
    if vals.min() == vals.max():
        assert got == vals[0]
        return
    ref, fixed = oracles.sample_expectile_loop(vals, tau)
    if fixed and vals.min() <= ref < vals.max():
        assert got.hex() == ref.hex()
    assert vals.min() <= got <= vals.max()
    assert abs(got - ref) <= oracles.LOOP_TOL


def test_a_sample_of_equal_values_is_its_own_expectile():
    value, tau = -0.4161686534695407, 0.7847746718130781
    # The loop ran all its rounds here and settled an ulp off the value.
    assert oracles.sample_expectile_loop([value] * 3, tau) == (-0.41616865346954074, False)
    assert erfe.sample_expectile([value] * 3, tau) == value
    assert erfe.sample_expectile([value], tau) == value


def test_cli_expectile_of_a_constant_column(tmp_path, capsys):
    path = tmp_path / "c.csv"
    path.write_text("y\n2.5\n2.5\n2.5\n")
    # The loop's fixed point here was 2.5000000000000004.
    assert oracles.sample_expectile_loop([2.5] * 3, 0.3) == (2.5000000000000004, True)
    assert main(["expectile", "--input", str(path), "--response-col", "y",
                 "--tau", "0.3"]) == 0
    assert capsys.readouterr().out == "tau,expectile\n0.29999999999999999,2.5\n"


# ---------------------------------------------------------------------
# pooled expectile regression: the panel fit on one subject
# ---------------------------------------------------------------------

def _pooled_fit(x, y, tau):
    """The expectile regression of y on an intercept and the columns of x,
    as the panel fit on one subject, whose effect is the intercept."""
    panel = erfe.build_panel(zip([0] * len(y), y, x))
    return panel, erfe.fit_erfe_single(panel, tau)


def test_against_convex_minimizer():
    rng = np.random.default_rng(10)
    X = np.column_stack([np.ones(20), rng.standard_normal(20)])
    y = X @ [0.5, 1.5] + rng.standard_normal(20)
    _, fit = _pooled_fit(X[:, 1:], y, 0.8)
    reference = oracles.minimize_expectile_objective(X, y, 0.8)
    assert np.max(np.abs(np.r_[fit.alpha, fit.beta] - reference)) <= 1e-6


def test_residual_expectile_vanishes_with_intercept():
    rng = np.random.default_rng(12)
    X = np.column_stack([np.ones(60), rng.standard_normal(60)])
    y = X @ [2.0, 1.0] + rng.standard_normal(60)
    panel, fit = _pooled_fit(X[:, 1:], y, 0.7)
    residuals = panel.y - panel.X @ fit.beta - fit.alpha[0]
    assert abs(erfe.sample_expectile(residuals, 0.7)) <= 1e-6


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
