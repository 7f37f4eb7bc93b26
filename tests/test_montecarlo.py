"""Data-generating processes and the replication harness."""

import numpy as np
import pytest
from scipy import stats

import erfe
from erfe import montecarlo
from erfe.errors import BudgetExceededError, NonincreasingTausError
from erfe.montecarlo import estimates_to_csv, metrics_to_csv


# ---------------------------------------------------------------------
# true_coefficients
# ---------------------------------------------------------------------

def test_location_shift_truth_is_constant():
    config = erfe.SimulationConfig(gamma=0.0)
    for tau in (0.1, 0.5, 0.9):
        assert erfe.true_coefficients(tau, config) == (0.6, 1.0)


def test_gaussian_midpoint_truth_unshifted():
    config = erfe.SimulationConfig(gamma=0.3, error_dist="gaussian")
    b1, b2 = erfe.true_coefficients(0.5, config)
    assert b1 == 0.6
    assert b2 == pytest.approx(1.0, abs=1e-9)


def test_chi_squared_midpoint_truth():
    config = erfe.SimulationConfig(gamma=0.3, error_dist="chi2_3")
    b1, b2 = erfe.true_coefficients(0.5, config)
    assert b1 == 0.6
    assert b2 == pytest.approx(1.9, abs=1e-8)


def test_truth_uses_distribution_expectile():
    config = erfe.SimulationConfig(gamma=0.3, error_dist="gaussian")
    _, b2 = erfe.true_coefficients(0.9, config)
    mu = erfe.distribution_expectile(erfe.gaussian(0, 1), 0.9)
    assert b2 == pytest.approx(1.0 + 0.3 * mu, abs=1e-12)


# ---------------------------------------------------------------------
# generate_dgp
# ---------------------------------------------------------------------

def test_panel_shape_and_labels():
    config = erfe.SimulationConfig(n=7, m=4, replications=1)
    panel, truth = erfe.generate_dgp(config, 0)
    assert panel.n_subjects == 7
    assert panel.n_obs == 28
    assert panel.column_names == ("x1", "x2")
    assert truth.alpha.shape == (7,)


def test_identical_keys_give_bitwise_identical_panels():
    config = erfe.SimulationConfig(n=20, m=3, replications=5, seed=17)
    a, ta = erfe.generate_dgp(config, 2)
    b, tb = erfe.generate_dgp(config, 2)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(ta.alpha, tb.alpha)
    c, _ = erfe.generate_dgp(config, 3)
    assert not np.array_equal(a.y, c.y)


def test_effect_regressor_correlation_near_half():
    config = erfe.SimulationConfig(n=2000, m=3, replications=1, seed=4)
    panel, truth = erfe.generate_dgp(config, 0)
    corr = np.corrcoef(np.repeat(truth.alpha, 3), panel.X[:, 1])[0, 1]
    assert abs(corr - 0.5) <= 0.05


def test_homoskedastic_case_uncorrelated_scale():
    config = erfe.SimulationConfig(n=1000, m=5, gamma=0.0, replications=1,
                                   seed=9)
    panel, truth = erfe.generate_dgp(config, 0)
    resid = (panel.y - panel.X @ np.array([0.6, 1.0])
             - np.repeat(truth.alpha, 5))
    corr = np.corrcoef(np.abs(resid), panel.X[:, 1])[0, 1]
    assert abs(corr) < 0.1


def test_heteroskedastic_case_scale_grows_with_regressor():
    config = erfe.SimulationConfig(n=1000, m=5, gamma=0.3, replications=1,
                                   seed=9)
    panel, truth = erfe.generate_dgp(config, 0)
    resid = (panel.y - panel.X @ np.array([0.6, 1.0])
             - np.repeat(truth.alpha, 5))
    corr = np.corrcoef(np.abs(resid), panel.X[:, 1])[0, 1]
    assert corr > 0.15


def test_first_regressor_is_noncentral_t():
    config = erfe.SimulationConfig(n=4000, m=2, replications=1, seed=77)
    panel, _ = erfe.generate_dgp(config, 0)
    x1 = panel.X[:, 0]
    reference = stats.nct(3, 1.3)
    assert np.mean(x1) == pytest.approx(reference.mean(), abs=0.1)
    assert np.median(x1) == pytest.approx(reference.median(), abs=0.05)


def test_second_regressor_moments():
    config = erfe.SimulationConfig(n=4000, m=2, replications=1, seed=78)
    panel, _ = erfe.generate_dgp(config, 0)
    x2 = panel.X[:, 1]
    assert np.mean(x2) == pytest.approx(2.0, abs=0.08)
    assert np.std(x2) == pytest.approx(1.5, abs=0.08)


def test_error_distributions_draw_from_named_laws():
    for name, check in (
        ("gaussian", lambda e: abs(np.mean(e)) < 0.1),
        ("student_t3", lambda e: abs(np.median(e)) < 0.1),
        ("chi2_3", lambda e: abs(np.mean(e) - 3.0) < 0.25),
    ):
        config = erfe.SimulationConfig(n=1500, m=2, gamma=0.0,
                                       error_dist=name, replications=1,
                                       seed=5)
        panel, truth = erfe.generate_dgp(config, 0)
        resid = (panel.y - panel.X @ np.array([0.6, 1.0])
                 - np.repeat(truth.alpha, 2))
        assert check(resid)


def test_config_validation():
    with pytest.raises(ValueError):
        erfe.SimulationConfig(error_dist="cauchy")
    with pytest.raises(ValueError):
        erfe.SimulationConfig(m=1)
    with pytest.raises(ValueError):
        erfe.SimulationConfig(seed=-3)
    with pytest.raises(NonincreasingTausError):
        erfe.SimulationConfig(taus=(0.5, 0.5))
    for gamma in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="gamma must be finite"):
            erfe.SimulationConfig(gamma=gamma)


# ---------------------------------------------------------------------
# run_monte_carlo
# ---------------------------------------------------------------------

def _small_config(**kw):
    base = dict(n=25, m=4, gamma=0.0, taus=(0.3, 0.7), replications=10,
                seed=100)
    base.update(kw)
    return erfe.SimulationConfig(**base)


def test_single_replication_degenerates():
    metrics = erfe.run_monte_carlo(_small_config(replications=1))
    for row in metrics.rows:
        assert row.sd == 0.0
        assert row.replications_used == 1
        assert row.bias == pytest.approx(row.mean_estimate - row.true_value)


def test_metrics_match_reference_aggregation():
    config = _small_config()
    metrics = erfe.run_monte_carlo(config)
    names = ("x1", "x2")
    idx = 0
    for k, tau in enumerate(config.taus):
        truth = erfe.true_coefficients(tau, config)
        for j, _name in enumerate(names):
            col = metrics.estimates[:, k, j]
            ses = metrics.standard_errors[:, k, j]
            ok = ~np.isnan(col)
            row = metrics.rows[idx]
            mean = float(np.mean(col[ok]))
            sd = float(np.sqrt(np.mean((col[ok] - mean) ** 2)))
            assert row.mean_estimate == pytest.approx(mean, abs=1e-12)
            assert row.bias == pytest.approx(mean - truth[j], abs=1e-12)
            assert row.sd == pytest.approx(sd, abs=1e-12)
            assert row.mean_se == pytest.approx(float(np.mean(ses[ok])), abs=1e-12)
            assert row.se_sd_ratio == pytest.approx(row.mean_se / row.sd, abs=1e-12)
            idx += 1


def test_reproducible_across_worker_counts():
    # Not a multiple of the block size, so the last block is a short one.
    config = _small_config(replications=montecarlo.BLOCK + 6)
    serial = erfe.run_monte_carlo(config, workers=1)
    parallel = erfe.run_monte_carlo(config, workers=3)
    assert np.array_equal(serial.estimates, parallel.estimates)
    assert np.array_equal(serial.standard_errors, parallel.standard_errors)
    assert np.array_equal(serial.iterations, parallel.iterations)
    assert metrics_to_csv(serial) == metrics_to_csv(parallel)


@pytest.mark.parametrize("joint", [False, True])
def test_each_replication_has_the_bits_of_its_own_fit(joint):
    # A block fits its replications as one stack; each must come out as
    # the one-panel fit and sandwich of its own generated panel.
    config = _small_config(replications=montecarlo.BLOCK + 3, joint=joint)
    metrics = erfe.run_monte_carlo(config)
    for rep in range(config.replications):
        panel, _ = erfe.generate_dgp(config, rep)
        if joint:
            fit = erfe.fit_erfe_multi(panel, config.taus)
            cov = erfe.sandwich_multi(panel, fit)
            betas, ses = fit.betas, cov.se.reshape(fit.betas.shape)
            iterations = [fit.iterations] * len(config.taus)
        else:
            fits = [erfe.fit_erfe_single(panel, tau) for tau in config.taus]
            betas = np.array([fit.beta for fit in fits])
            ses = np.array([erfe.sandwich_single(panel, fit).se for fit in fits])
            iterations = [fit.iterations for fit in fits]
        assert np.array_equal(metrics.estimates[rep], betas)
        assert np.array_equal(metrics.standard_errors[rep], ses)
        assert np.array_equal(metrics.iterations[rep], iterations)


# Ways to make a replication's x2 unusable: constant within subjects (the
# fits' screen rejects it) or a multiple of x1 (the Cholesky pivot does).
_BROKEN_X2 = {
    "within_constant": lambda panel: 1.0 + panel.codes,
    "collinear": lambda panel: 2.0 * panel.X[:, 0],
}


def _break_x2(monkeypatch, failing, how):
    """Replace x2 by ``_BROKEN_X2[how]`` in the replications ``failing``."""
    generate = montecarlo.generate_dgp

    def patched(config, rep):
        panel, truth = generate(config, rep)
        if rep in failing:
            X = panel.X.copy()
            X[:, 1] = _BROKEN_X2[how](panel)
            panel = erfe.build_panel(zip(panel.subject_ids, panel.y, X),
                                     panel.column_names)
        return panel, truth

    monkeypatch.setattr(montecarlo, "generate_dgp", patched)


@pytest.mark.parametrize("how", sorted(_BROKEN_X2))
@pytest.mark.parametrize("joint", [False, True])
def test_failures_are_counted_by_cause_and_leave_neighbours_alone(monkeypatch, joint,
                                                                  how):
    config = _small_config(replications=montecarlo.BLOCK + 3, joint=joint)
    clean = erfe.run_monte_carlo(config)
    failing = {2, montecarlo.BLOCK + 1}
    _break_x2(monkeypatch, failing, how)
    metrics = erfe.run_monte_carlo(config)

    assert metrics.failure_causes == ({"SingularGramError": 2},) * len(config.taus)
    assert clean.failure_causes == ({},) * len(config.taus)
    assert all(row.failures == 2 for row in metrics.rows)
    hit = np.isin(np.arange(config.replications), list(failing))
    assert np.isnan(metrics.estimates[hit]).all()
    assert np.isnan(metrics.standard_errors[hit]).all()
    assert np.isnan(metrics.iterations[hit]).all()
    for name in ("estimates", "standard_errors", "iterations"):
        assert np.array_equal(getattr(metrics, name)[~hit], getattr(clean, name)[~hit])


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("ERFE_MAX_BUDGET", "10")
    with pytest.raises(BudgetExceededError, match="override via ERFE_MAX_BUDGET\\)"):
        erfe.run_monte_carlo(_small_config())
    monkeypatch.setenv("ERFE_MAX_BUDGET", "10000000")
    erfe.run_monte_carlo(_small_config(replications=2))


def test_location_shift_slopes_stable_across_taus():
    # Under the homoskedastic design the slope truth does not move with
    # the asymmetric point; the estimated means must agree within pooled
    # Monte Carlo noise.
    config = erfe.SimulationConfig(n=60, m=5, gamma=0.0,
                                   taus=(0.2, 0.5, 0.8), replications=60,
                                   seed=200)
    metrics = erfe.run_monte_carlo(config)
    by_tau = {}
    for row in metrics.rows:
        if row.coefficient == "x2":
            by_tau[row.tau] = row
    taus = sorted(by_tau)
    for a, b in zip(taus, taus[1:]):
        ra, rb = by_tau[a], by_tau[b]
        pooled = np.sqrt(ra.sd**2 / ra.replications_used
                         + rb.sd**2 / rb.replications_used)
        assert abs(ra.mean_estimate - rb.mean_estimate) <= 3.0 * pooled


def test_fixed_effects_beat_pooled_expectile_regression():
    # The abstract's "outperforms its competitors", in the default design:
    # corr(alpha, x2) = 0.5, so a pooled expectile regression with one
    # intercept and no subject effects loads part of alpha onto x2, while
    # the fixed-effect fit concentrates alpha out.
    config = erfe.SimulationConfig(taus=(0.5,), replications=200)
    _, beta2 = erfe.true_coefficients(0.5, config)
    pooled, within = [], []
    for rep in range(config.replications):
        panel, _ = erfe.generate_dgp(config, rep)
        design = np.column_stack([np.ones(panel.n_obs), panel.X])
        pooled.append(erfe.expectile_regression(design, panel.y, 0.5).beta[2])
        within.append(erfe.fit_erfe_single(panel, 0.5).beta[1])

    def bias_z(estimates):
        estimates = np.asarray(estimates)
        mc_se = estimates.std(ddof=1) / np.sqrt(estimates.size)
        return (estimates.mean() - beta2) / mc_se

    assert abs(bias_z(pooled)) > 4.0
    assert abs(bias_z(within)) <= 4.0


def test_location_scale_slope_monotone_in_tau():
    config = erfe.SimulationConfig(n=100, m=5, gamma=0.3,
                                   taus=(0.1, 0.3, 0.5, 0.8, 0.9),
                                   replications=40, seed=300)
    metrics = erfe.run_monte_carlo(config)
    means = [row.mean_estimate for row in metrics.rows
             if row.coefficient == "x2"]
    assert all(a < b for a, b in zip(means, means[1:]))


def test_joint_mode_smoke():
    config = _small_config(replications=4, joint=True)
    metrics = erfe.run_monte_carlo(config)
    assert all(row.failures == 0 for row in metrics.rows)
    again = erfe.run_monte_carlo(config)
    assert np.array_equal(metrics.estimates, again.estimates)


# ---------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------

def test_metrics_csv_layout():
    config = _small_config(replications=3)
    metrics = erfe.run_monte_carlo(config)
    text = metrics_to_csv(metrics)
    lines = text.strip().split("\n")
    assert lines[0] == ("tau,coefficient,true_value,mean_estimate,bias,sd,"
                        "mean_se,se_sd_ratio,replications_used,failures")
    assert len(lines) == 1 + 2 * len(config.taus)
    first = lines[1].split(",")
    assert first[1] == "x1"
    assert float(first[2]) == 0.6


def test_estimates_dump_roundtrip():
    config = _small_config(replications=3)
    metrics = erfe.run_monte_carlo(config)
    text = estimates_to_csv(config, metrics)
    lines = text.strip().split("\n")
    assert lines[0] == "replication,tau,coefficient,estimate,std_error,iterations"
    assert len(lines) == 1 + 3 * len(config.taus) * 2
    rep0 = lines[1].split(",")
    assert float(rep0[3]) == metrics.estimates[0, 0, 0]


def test_replications_out_of_rounds_fail_as_no_convergence(monkeypatch):
    # One round is too few for any fit here, so every block has no
    # sandwich to build.
    monkeypatch.setattr(erfe.expectiles, "MAX_ROUNDS", 1)
    config = _small_config(replications=montecarlo.BLOCK + 3)
    metrics = erfe.run_monte_carlo(config)
    assert metrics.failure_causes == ({"NoConvergenceError": config.replications},) * 2
    assert np.isnan(metrics.estimates).all() and np.isnan(metrics.iterations).all()
    assert all(row.failures == config.replications for row in metrics.rows)
