"""Data-generating processes and the replication harness."""

import concurrent.futures
import dataclasses
import io
import re

import numpy as np
import pytest
from scipy import stats

import erfe
from erfe import montecarlo
from erfe.cli import main
from erfe.errors import BudgetExceededError, NonincreasingTausError
from erfe.montecarlo import estimates_table, metrics_table
from erfe.panel import stack_panels, write_table


def _csv(header, columns):
    """The CSV text that ``write_table`` makes of a table."""
    buf = io.StringIO()
    write_table(buf, header, columns)
    return buf.getvalue()


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


@pytest.mark.parametrize("field, value", [
    ("n", 5.5), ("m", 2.5), ("replications", 2.5), ("seed", 1.5), ("seed", "1"),
])
def test_config_counts_must_be_integers(field, value):
    with pytest.raises(TypeError, match=f"{field} must be an integer, got {value!r}"):
        erfe.SimulationConfig(**{field: value})
    erfe.SimulationConfig(**{field: np.int64(4)})


# ---------------------------------------------------------------------
# run_monte_carlo
# ---------------------------------------------------------------------

def _small_config(**kw):
    base = dict(n=25, m=4, gamma=0.0, taus=(0.3, 0.7), replications=10,
                seed=100)
    base.update(kw)
    return erfe.SimulationConfig(**base)


# Replications per block in the tests of blocks: their cells have several
# blocks, a short last one, and replications on either side of a boundary.
_BLOCK = 16


@pytest.fixture
def blocks_of_16(monkeypatch):
    """Sizes the blocks of every cell of ``_small_config``'s shape at
    ``_BLOCK`` replications, by its row budget."""
    monkeypatch.setattr(montecarlo, "BLOCK_ROWS", _BLOCK * 25 * 4)
    assert montecarlo.block_size(_small_config()) == _BLOCK


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


def test_reproducible_across_worker_counts(blocks_of_16):
    # Not a multiple of the block size, so the last block is a short one.
    config = _small_config(replications=_BLOCK + 6)
    serial = erfe.run_monte_carlo(config, workers=1)
    parallel = erfe.run_monte_carlo(config, workers=3)
    assert np.array_equal(serial.estimates, parallel.estimates)
    assert np.array_equal(serial.standard_errors, parallel.standard_errors)
    assert np.array_equal(serial.iterations, parallel.iterations)
    assert _csv(*metrics_table(serial)) == _csv(*metrics_table(parallel))


def _outputs(config, metrics):
    return (metrics.estimates, metrics.standard_errors, metrics.iterations,
            metrics.failure_causes, _csv(*metrics_table(metrics)),
            _csv(*estimates_table(config, metrics)))


@pytest.mark.parametrize("joint", [False, True])
@pytest.mark.parametrize("failing", [(), (3, 8)], ids=["clean", "failing"])
def test_a_cell_does_not_depend_on_its_row_budget(monkeypatch, joint, failing):
    # Failing replications compare failure causes and NaN too.  They are
    # made by patching ``_draw`` in this process, which a pool's worker
    # need not share, so that cell runs serially.
    _break_x2(monkeypatch, set(failing), "collinear")
    config = _small_config(replications=10, joint=joint)
    rows = config.n * config.m
    monkeypatch.setattr(montecarlo, "BLOCK_ROWS", rows * config.replications)
    assert montecarlo.block_size(config) == config.replications
    whole = _outputs(config, erfe.run_monte_carlo(config))
    assert whole[3] == ({"SingularGramError": len(failing)} if failing else {},) * 2
    # One replication per block, then blocks of 4, 4 and a short one of 2.
    for budget, size in ((1, 1), (4 * rows + rows // 2, 4)):
        monkeypatch.setattr(montecarlo, "BLOCK_ROWS", budget)
        assert montecarlo.block_size(config) == size
        for workers in (1,) if failing else (1, 3):
            outputs = _outputs(config, erfe.run_monte_carlo(config, workers=workers))
            for name, got, want in zip(("estimates", "standard_errors", "iterations"),
                                       outputs, whole):
                assert _same_bits(got, want), (budget, workers, name)
            assert outputs[3:] == whole[3:], (budget, workers)


@pytest.mark.parametrize("joint", [False, True])
def test_each_replication_has_the_bits_of_its_own_fit(blocks_of_16, joint):
    # A block fits its replications as one stack; each must come out as
    # the one-panel fit and sandwich of its own generated panel.
    config = _small_config(replications=_BLOCK + 3, joint=joint)
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


# Ways to make a replication's x2 unusable, given its subject codes and
# regressors: constant within subjects (the fits' screen rejects it) or a
# multiple of x1 (the Cholesky pivot does).
_BROKEN_X2 = {
    "within_constant": lambda codes, X: 1.0 + codes,
    "collinear": lambda codes, X: 2.0 * X[:, 0],
}


def _break_x2(monkeypatch, failing, how):
    """Replace x2 by ``_BROKEN_X2[how]`` in the replications ``failing``."""
    draw = montecarlo._draw

    def patched(config, reps):
        y, X, alpha = draw(config, reps)
        codes = np.repeat(np.arange(config.n), config.m)
        for b, rep in enumerate(reps):
            if rep in failing:
                X[b, :, 1] = _BROKEN_X2[how](codes, X[b])
        return y, X, alpha

    monkeypatch.setattr(montecarlo, "_draw", patched)


@pytest.mark.parametrize("how", sorted(_BROKEN_X2))
@pytest.mark.parametrize("joint", [False, True])
def test_failures_are_counted_by_cause_and_leave_neighbours_alone(blocks_of_16, monkeypatch,
                                                                  joint, how):
    config = _small_config(replications=_BLOCK + 3, joint=joint)
    clean = erfe.run_monte_carlo(config)
    failing = {2, _BLOCK + 1}
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


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("error_dist", sorted(montecarlo.ERROR_LAWS))
def test_a_block_is_the_stack_of_its_replications(blocks_of_16, error_dist):
    # Replications drawn straight into a stack give the stack of their own
    # generated panels, across a block boundary.
    config = _small_config(error_dist=error_dist, gamma=0.4,
                           replications=_BLOCK + 3)
    reps = range(_BLOCK - 2, _BLOCK + 3)
    y, X, alpha = montecarlo._draw(config, reps)
    codes = np.repeat(np.arange(len(reps) * config.n), config.m).reshape(len(reps), -1)
    drawn = erfe.panel.build_stack(config.n, ("x1", "x2"), y, X, codes)
    generated = [erfe.generate_dgp(config, rep) for rep in reps]
    stacked = stack_panels(panel for panel, _ in generated)
    assert drawn.column_names == stacked.column_names
    for name in ("y", "X", "codes", "demeaned", "constant"):
        assert _same_bits(getattr(drawn, name), getattr(stacked, name)), name
    for effects, (_, truth) in zip(alpha, generated):
        assert _same_bits(effects, truth.alpha)


def test_a_simulation_assembles_no_panel(blocks_of_16, monkeypatch):
    def refuse(*args):
        raise AssertionError("a replication was assembled as a panel")

    monkeypatch.setattr(montecarlo, "_assemble_panel", refuse)
    metrics = erfe.run_monte_carlo(_small_config(replications=_BLOCK + 1))
    assert all(row.failures == 0 for row in metrics.rows)


@pytest.mark.parametrize("taus, kept", [(0.5, (0.5,)), ([0.2, 0.7], (0.2, 0.7))])
def test_config_keeps_the_taus_it_validated(taus, kept):
    config = erfe.SimulationConfig(n=20, m=3, taus=taus, replications=4)
    assert config.taus == kept
    assert hash(config) == hash(dataclasses.replace(config, taus=kept))
    assert erfe.run_monte_carlo(config).estimates.shape == (4, len(kept), 2)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("ERFE_MAX_BUDGET", "10")
    with pytest.raises(BudgetExceededError, match="override via ERFE_MAX_BUDGET\\)"):
        erfe.run_monte_carlo(_small_config())
    monkeypatch.setenv("ERFE_MAX_BUDGET", "10000000")
    erfe.run_monte_carlo(_small_config(replications=2))


@pytest.mark.parametrize("value", ["1e6", ""])
def test_budget_env_must_be_an_integer(monkeypatch, capsys, value):
    monkeypatch.setenv("ERFE_MAX_BUDGET", value)
    message = f"ERFE_MAX_BUDGET must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        erfe.run_monte_carlo(_small_config(replications=2))
    assert main(["simulate", "--replications", "2"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("workers", [0, -2])
def test_workers_must_be_a_positive_integer(workers):
    with pytest.raises(ValueError, match=f"need at least 1 worker, got {workers}"):
        erfe.run_monte_carlo(_small_config(replications=2), workers=workers)
    with pytest.raises(TypeError):
        erfe.run_monte_carlo(_small_config(replications=2), workers=2.0)


def test_pool_is_no_larger_than_the_blocks(blocks_of_16, monkeypatch):
    sizes = []

    class SerialPool:
        """Records its size and maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    config = _small_config(replications=2 * _BLOCK + 1)
    serial = erfe.run_monte_carlo(config)
    assert sizes == []
    pooled = erfe.run_monte_carlo(config, workers=1000)
    assert sizes == [3]
    assert _csv(*metrics_table(pooled)) == _csv(*metrics_table(serial))
    for name in ("estimates", "standard_errors", "iterations"):
        assert np.array_equal(getattr(pooled, name), getattr(serial, name))
    # One block takes no pool at all.
    erfe.run_monte_carlo(_small_config(replications=_BLOCK), workers=8)
    assert sizes == [3]


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
        # The pooled fit is the panel fit on one subject, whose effect
        # alpha[0] is the intercept.
        one_subject = erfe.build_panel(zip([0] * panel.n_obs, panel.y, panel.X))
        pooled.append(erfe.fit_erfe_single(one_subject, 0.5).beta[1])
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
    text = _csv(*metrics_table(metrics))
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
    text = _csv(*estimates_table(config, metrics))
    lines = text.strip().split("\n")
    assert lines[0] == "replication,tau,coefficient,estimate,std_error,iterations"
    assert len(lines) == 1 + 3 * len(config.taus) * 2
    rep0 = lines[1].split(",")
    assert float(rep0[3]) == metrics.estimates[0, 0, 0]


def test_replications_out_of_rounds_fail_as_no_convergence(blocks_of_16, monkeypatch):
    # One round is too few for any fit here, so every block has no
    # sandwich to build.
    monkeypatch.setattr(erfe.estimator, "MAX_ROUNDS", 1)
    config = _small_config(replications=_BLOCK + 3)
    metrics = erfe.run_monte_carlo(config)
    assert metrics.failure_causes == ({"NoConvergenceError": config.replications},) * 2
    assert np.isnan(metrics.estimates).all() and np.isnan(metrics.iterations).all()
    assert all(row.failures == config.replications for row in metrics.rows)
