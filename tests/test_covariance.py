"""Cluster-robust sandwich covariance, intervals, normal quantiles."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

import erfe
from erfe.covariance import SandwichCovariance, sandwich_stack
from erfe.errors import ShapeMismatchError, SingularBreadError
from erfe.estimator import StackFit, fit_stack
from erfe.panel import stack_panels

import oracles


def _fitted(rng, tau=0.5, n=20, m=5, p=2):
    panel, _, _ = oracles.random_panel(rng, n, m, p)
    fit = erfe.fit_erfe_single(panel, tau)
    return panel, fit


# ---------------------------------------------------------------------
# sandwich_single
# ---------------------------------------------------------------------

def test_midpoint_sandwich_matches_clustered_ols_oracle():
    # At the midpoint the check weights are constant, so the sandwich must
    # reduce to the textbook clustered within-OLS covariance: the 20%
    # band is generous slack, the two are algebraically identical here.
    rng = np.random.default_rng(70)
    panel, fit = _fitted(rng, 0.5, n=40, m=5, p=2)
    cov = erfe.sandwich_single(panel, fit)
    beta_ref, se_ref = oracles.clustered_within_ols(
        panel.y, panel.X, panel.codes, panel.n_subjects)
    assert np.max(np.abs(fit.beta - beta_ref)) <= 1e-8
    assert np.all(np.abs(cov.se / se_ref - 1.0) <= 0.2)
    assert np.allclose(cov.se, se_ref, rtol=1e-8)


def test_meat_matches_hand_expansion_two_by_two():
    rng = np.random.default_rng(71)
    panel, fit = _fitted(rng, 0.8, n=2, m=2, p=1)
    cov = erfe.sandwich_single(panel, fit)

    psi = oracles.psi_ref(fit.residuals_star, 0.8)
    sw = erfe.subject_weights(fit.residuals_star, 0.8, panel)
    x_star = erfe.apply_within(panel.X, sw, panel)
    total = np.zeros((1, 1))
    for g in oracles.subject_rows(panel):
        score = x_star[g].T @ (psi[g] * fit.residuals_star[g])
        total += np.outer(score, score)
    assert np.max(np.abs(cov.d0_hat - total / panel.n_obs)) <= 1e-12


def test_response_scaling_scales_standard_errors():
    rng = np.random.default_rng(72)
    panel, _, _ = oracles.random_panel(rng, 15, 4, 2)
    c = 3.5
    scaled = erfe.build_panel(
        [(int(panel.subject_labels[panel.codes[i]]), float(c * panel.y[i]), panel.X[i])
         for i in range(panel.n_obs)])
    for tau in (0.5, 0.8):
        base_fit = erfe.fit_erfe_single(panel, tau)
        base_cov = erfe.sandwich_single(panel, base_fit)
        scaled_fit = erfe.fit_erfe_single(scaled, tau)
        scaled_cov = erfe.sandwich_single(scaled, scaled_fit)
        assert np.max(np.abs(scaled_fit.beta - c * base_fit.beta)) <= 1e-8
        assert np.max(np.abs(scaled_cov.se - c * base_cov.se)) <= 1e-8


def test_midpoint_bread_is_half_gram():
    rng = np.random.default_rng(73)
    panel, fit = _fitted(rng, 0.5)
    cov = erfe.sandwich_single(panel, fit)
    sw = erfe.subject_weights(fit.residuals_star, 0.5, panel)
    x_star = erfe.apply_within(panel.X, sw, panel)
    expected = 0.5 * x_star.T @ x_star / panel.n_obs
    assert np.max(np.abs(cov.d1_hat - expected)) <= 1e-12


def test_vc_symmetric_positive_semidefinite():
    rng = np.random.default_rng(74)
    for tau in (0.1, 0.5, 0.9):
        panel, fit = _fitted(rng, tau, n=25, m=4, p=3)
        cov = erfe.sandwich_single(panel, fit)
        assert np.max(np.abs(cov.vc - cov.vc.T)) <= 1e-14
        assert np.max(np.abs(cov.d0_hat - cov.d0_hat.T)) <= 1e-10
        eigs = np.linalg.eigvalsh(cov.vc)
        assert eigs.min() >= -1e-10 * np.trace(cov.vc)
        assert np.all(cov.se >= 0)


def test_vc_invariant_to_subject_relabeling():
    rng = np.random.default_rng(75)
    panel, _, _ = oracles.random_panel(rng, 12, 4, 2)
    relabeled = erfe.build_panel(
        [(f"s{int(panel.subject_labels[panel.codes[i]])}", float(panel.y[i]), panel.X[i])
         for i in range(panel.n_obs)])
    fit_a = erfe.fit_erfe_single(panel, 0.75)
    fit_b = erfe.fit_erfe_single(relabeled, 0.75)
    cov_a = erfe.sandwich_single(panel, fit_a)
    cov_b = erfe.sandwich_single(relabeled, fit_b)
    assert np.max(np.abs(cov_a.vc - cov_b.vc)) <= 1e-12


def test_meat_depends_on_cluster_structure():
    # Splitting one subject into two artificial halves must change the
    # clustered meat: the covariance really uses per-subject aggregates.
    rng = np.random.default_rng(76)
    panel, _, _ = oracles.random_panel(rng, 10, 6, 2)
    fit = erfe.fit_erfe_single(panel, 0.5)
    cov = erfe.sandwich_single(panel, fit)

    new_ids = []
    seen = {}
    for i in range(panel.n_obs):
        sid = int(panel.subject_labels[panel.codes[i]])
        seen[sid] = seen.get(sid, 0) + 1
        if sid == 0 and seen[sid] > 3:
            new_ids.append("0-b")
        else:
            new_ids.append(str(sid))
    split = erfe.build_panel(
        [(new_ids[i], float(panel.y[i]), panel.X[i])
         for i in range(panel.n_obs)])
    fit_split = erfe.fit_erfe_single(split, 0.5)
    cov_split = erfe.sandwich_single(split, fit_split)
    # same coefficients (the transform only sees more groups), new meat
    assert np.max(np.abs(cov_split.d0_hat - cov.d0_hat)) > 1e-8


def test_singular_bread_surfaced():
    # A design annihilated by the transform gives a zero bread matrix.
    codes = np.repeat(np.arange(3), 2)
    x = np.repeat([1.0, 2.0, 3.0], 2)
    y = np.arange(6.0)
    panel = erfe.build_panel(
        [(int(codes[i]), float(y[i]), [x[i]]) for i in range(6)])
    fake = erfe.FitResult(tau=0.5, beta=np.zeros(1), alpha=np.zeros(3),
                          residuals_star=np.ones(6), iterations=1,
                          converged=True, objective_value=0.0)
    with pytest.raises(SingularBreadError):
        erfe.sandwich_single(panel, fake)


def test_stacked_bread_failure_is_the_panels_own():
    # Positive residuals weigh every row by tau, so each bread is tau times
    # the demeaned Gram: x2 constant within subjects has a zero diagonal,
    # x2 = 2 x1 fails the factorization and 4e-8 of noise the pivot check.
    panels = [oracles.collinear_panel(20, eps) for eps in (1.0, 0.0, 4e-8)]
    panels.insert(1, erfe.build_panel(
        [(i // 4, float(panels[0].y[i]), [panels[0].X[i, 0], i // 4]) for i in range(24)]))
    resid = np.ones((4, 1, 24))
    fit = StackFit(taus=(0.1,), v=np.ones(1), joint=False, betas=np.zeros((4, 1, 2)),
                   residuals_star=resid, iterations=np.ones((4, 1), dtype=int),
                   errors=((None,),) * 4, systems=(None,))
    cov, errors = sandwich_stack(stack_panels(panels), fit)
    singles = [erfe.FitResult(tau=0.1, beta=np.zeros(2), alpha=np.zeros(6),
                              residuals_star=resid[b, 0], iterations=1,
                              converged=True, objective_value=0.0)
               for b in range(4)]
    healthy = erfe.sandwich_single(panels[0], singles[0])
    assert errors[0] == (None,)
    assert np.array_equal(cov.vc[0], healthy.vc)
    assert np.array_equal(cov.se[0], healthy.se)
    for b in (1, 2, 3):
        with pytest.raises(SingularBreadError) as alone:
            erfe.sandwich_single(panels[b], singles[b])
        (error,) = errors[b]
        assert type(error) is SingularBreadError
        assert str(error) == str(alone.value)
        assert np.isnan(cov.se[b]).all()
    assert len({str(row[0]) for row in errors[1:]}) == 3


@pytest.mark.parametrize("joint", [False, True])
def test_sandwich_reassembles_only_a_system_whose_signs_changed(joint, monkeypatch):
    # sandwich_stack takes each fit's last system where the final residuals
    # have the signs that system was built on.  Flipping one residual's sign
    # in one panel sends that panel's bread, and only it, to be assembled
    # once more; every sandwich must still be the one assembled from all
    # rows at the residuals it is given.
    rng = np.random.default_rng(73)
    stack = stack_panels([oracles.random_panel(rng, 15, 4, 2)[0] for _ in range(3)])
    taus = (0.2, 0.7)
    fit = fit_stack(stack, taus, joint=joint)
    assembled = []
    full_system = erfe.estimator.full_system
    monkeypatch.setattr(erfe.estimator, "full_system",
                        lambda design, *args: assembled.append(design.shape[0])
                        or full_system(design, *args))
    cov, _ = sandwich_stack(stack, fit)
    assert assembled == []
    resid = fit.residuals_star.copy()
    row = np.argmin(np.abs(resid[1, 0]))
    resid[1, 0, row] = -resid[1, 0, row]
    cov, errors = sandwich_stack(stack, dataclasses.replace(fit, residuals_star=resid))
    assert assembled == [1]
    se, vc = oracles.full_round_sandwich(stack, fit.taus, fit.v, joint, resid, fit.errors)
    assert np.array_equal(cov.se, se, equal_nan=True)
    assert np.array_equal(cov.vc, vc, equal_nan=True)


def test_sandwich_on_another_stack_assembles_its_breads(monkeypatch):
    # A fit's last systems belong to the stack it was fitted on.  Paired
    # with another stack of the same shape, every bread is assembled from
    # that stack's rows.
    rng = np.random.default_rng(74)
    stack, other = (stack_panels([oracles.random_panel(rng, 15, 4, 2)[0] for _ in range(3)])
                    for _ in range(2))
    fit = fit_stack(stack, (0.2, 0.7))
    assert all(error is None for row in fit.errors for error in row)
    assembled = []
    full_system = erfe.estimator.full_system
    monkeypatch.setattr(erfe.estimator, "full_system",
                        lambda design, *args: assembled.append(design.shape[0])
                        or full_system(design, *args))
    cov, _ = sandwich_stack(other, fit)
    assert assembled == [3, 3]
    se, vc = oracles.full_round_sandwich(other, fit.taus, fit.v, False,
                                         fit.residuals_star, fit.errors)
    assert np.array_equal(cov.se, se)
    assert np.array_equal(cov.vc, vc, equal_nan=True)


def test_sandwich_on_residuals_of_another_shape_says_so():
    # Residuals fitted on a panel of 30 rows do not fit one of 36, and a
    # joint fit's residual blocks must be one per point.
    rng = np.random.default_rng(75)
    p30, p36 = (oracles.random_panel(rng, 6, m, 2)[0] for m in (5, 6))
    with pytest.raises(ShapeMismatchError, match=r"\(1, 1, 30\).*1 point\(s\).*36 rows"):
        erfe.sandwich_single(p36, erfe.fit_erfe_single(p30, 0.7))
    multi = erfe.fit_erfe_multi(p30, (0.3, 0.7))
    with pytest.raises(ShapeMismatchError, match=r"\(1, 2, 30\).*36 rows"):
        erfe.sandwich_multi(p36, multi)
    with pytest.raises(ShapeMismatchError, match=r"\(1, 1, 30\).*2 point\(s\)"):
        erfe.sandwich_multi(p30, dataclasses.replace(
            multi, residuals_star=multi.residuals_star[:1]))


# ---------------------------------------------------------------------
# sandwich_multi
# ---------------------------------------------------------------------

def test_single_block_matches_single_sandwich():
    rng = np.random.default_rng(77)
    panel, _, _ = oracles.random_panel(rng, 15, 4, 2)
    single = erfe.fit_erfe_single(panel, 0.8)
    multi = erfe.fit_erfe_multi(panel, [0.8], [1.0])
    cov_s = erfe.sandwich_single(panel, single)
    cov_m = erfe.sandwich_multi(panel, multi)
    assert np.max(np.abs(cov_m.vc - cov_s.vc)) <= 1e-10
    assert np.max(np.abs(cov_m.se - cov_s.se)) <= 1e-10


def test_cross_blocks_are_transposes():
    rng = np.random.default_rng(78)
    panel, _, _ = oracles.random_panel(rng, 12, 5, 2)
    fit = erfe.fit_erfe_multi(panel, [0.2, 0.5, 0.8])
    cov = erfe.sandwich_multi(panel, fit)
    p = panel.n_regressors
    for k in range(3):
        for l in range(3):
            block_kl = cov.d0_hat[k * p:(k + 1) * p, l * p:(l + 1) * p]
            block_lk = cov.d0_hat[l * p:(l + 1) * p, k * p:(k + 1) * p]
            assert np.max(np.abs(block_kl - block_lk.T)) <= 1e-12


def test_matches_dense_kronecker_oracle():
    # The M-estimation sandwich of the full parameter (slopes of every
    # block and every subject effect), from the dense Jacobian of the
    # stacked estimating equations and per-subject scores, with the slope
    # block taken out: the profiled sandwich must be that block.
    rng = np.random.default_rng(79)
    panel, _, _ = oracles.random_panel(rng, 2, 3, 1)
    taus = (0.3, 0.7)
    v = np.array([1.0, 2.0])
    fit = erfe.fit_erfe_multi(panel, taus, v)
    cov = erfe.sandwich_multi(panel, fit)
    d0, d1, vc = oracles.dense_joint_sandwich(
        panel.X, panel.codes, panel.n_subjects, fit.residuals_star, taus, v)

    assert np.max(np.abs(cov.d0_hat - d0)) <= 1e-10
    assert np.max(np.abs(cov.d1_hat - d1)) <= 1e-10
    assert np.max(np.abs(cov.vc - vc)) <= 1e-10


def test_multi_vc_invariant_to_v_rescaling():
    # The influence weights enter the meat as v_k v_l and the bread as
    # v_k, so a global rescaling cancels in the assembled variance.
    rng = np.random.default_rng(80)
    panel, _, _ = oracles.random_panel(rng, 10, 4, 2)
    fit_a = erfe.fit_erfe_multi(panel, [0.3, 0.7], [1.0, 3.0])
    fit_b = erfe.fit_erfe_multi(panel, [0.3, 0.7], [2.0, 6.0])
    cov_a = erfe.sandwich_multi(panel, fit_a)
    cov_b = erfe.sandwich_multi(panel, fit_b)
    assert np.max(np.abs(fit_a.betas - fit_b.betas)) <= 1e-9
    assert np.max(np.abs(cov_a.vc - cov_b.vc)) <= 1e-9


def test_multi_vc_symmetric_psd():
    rng = np.random.default_rng(81)
    panel, _, _ = oracles.random_panel(rng, 20, 5, 2)
    fit = erfe.fit_erfe_multi(panel, [0.1, 0.5, 0.9])
    cov = erfe.sandwich_multi(panel, fit)
    assert np.max(np.abs(cov.vc - cov.vc.T)) <= 1e-14
    eigs = np.linalg.eigvalsh(cov.vc)
    assert eigs.min() >= -1e-10 * np.trace(cov.vc)


def _calibration_z(seed, replications=1000, draws=400):
    """Per (tau, coefficient), |joint SE/SD - per-tau SE/SD| over the paired
    bootstrap standard error of that difference (replications resampled,
    the same draws for both fits), on the chi-squared location-scale cell
    n = 200, m = 5, gamma = 0.3."""
    config = erfe.SimulationConfig(n=200, m=5, gamma=0.3, error_dist="chi2_3",
                                   taus=(0.1, 0.5, 0.9),
                                   replications=replications, seed=seed)
    runs = [erfe.run_monte_carlo(dataclasses.replace(config, joint=joint))
            for joint in (True, False)]
    ok = ~np.any(np.isnan([r.standard_errors for r in runs]), axis=(0, 2, 3))
    assert ok.sum() >= 0.99 * replications

    def ratios(rows):
        # rows (..., R): SE/SD per fit, with the harness's population SD.
        est, se = runs[0].estimates[ok][rows], runs[0].standard_errors[ok][rows]
        joint = np.mean(se, axis=-3) / np.std(est, axis=-3)
        est, se = runs[1].estimates[ok][rows], runs[1].standard_errors[ok][rows]
        return joint - np.mean(se, axis=-3) / np.std(est, axis=-3)

    used = int(ok.sum())
    boot = np.random.default_rng(2024).integers(0, used, (draws, used))
    spread = np.std(ratios(boot), axis=0, ddof=1)
    return np.abs(ratios(np.arange(used))) / spread


def test_joint_sandwich_calibrated_like_per_tau_sandwiches():
    # Joint and per-tau fits of the same replications estimate the same
    # slopes with similar spread, so a calibrated joint sandwich has the
    # SE/SD ratio of the per-tau ones up to Monte Carlo noise.  4.5 allows
    # for the six (tau, coefficient) comparisons.
    z = _calibration_z(21)
    assert np.max(z) <= 4.5, z


# ---------------------------------------------------------------------
# Both sandwiches against the explicit transformed design
# ---------------------------------------------------------------------

def _offset_panel(rng):
    # Unbalanced panel whose first regressor carries a large subject-level
    # offset, 100 * alpha_i, so sums over raw X would cancel badly.
    sizes = rng.integers(2, 7, int(rng.integers(4, 25)))
    codes = np.repeat(np.arange(sizes.size), sizes)
    alpha = rng.standard_normal(sizes.size)
    X = rng.standard_normal((codes.size, int(rng.integers(1, 4))))
    X[:, 0] += 100.0 * alpha[codes]
    y = X @ np.linspace(0.5, -0.5, X.shape[1]) + alpha[codes] + rng.standard_normal(codes.size)
    return erfe.build_panel([(int(codes[i]), float(y[i]), X[i])
                             for i in rng.permutation(codes.size)])


def _assert_close(got, want, tol=1e-12):
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


def test_sandwiches_match_explicit_transform_oracle():
    # Per tau, the explicit weighted within transform.  Jointly, the dense
    # full-parameter sandwich, within what a backward stable solve of the
    # joint fit's raw-X system allows: kappa, its condition number after
    # rescaling to a unit diagonal, grows with the offsets of
    # ``_offset_panel``, and 100 kappa eps is the bound of
    # ``test_joint_error_within_conditioning_bound``.
    rng = np.random.default_rng(83)
    eps = np.finfo(float).eps
    for trial in range(12):
        panel = (_offset_panel(rng) if trial % 2 else
                 oracles.unbalanced_panel(rng, rng.integers(2, 7, 10), p=2)[0])
        for tau in (0.2, 0.5, 0.9):
            fit = erfe.fit_erfe_single(panel, tau)
            cov = erfe.sandwich_single(panel, fit)
            d0, d1, vc = oracles.explicit_sandwich(
                panel.X, panel.codes, panel.n_subjects, fit.residuals_star, tau)
            _assert_close(cov.d0_hat, d0)
            _assert_close(cov.d1_hat, d1)
            _assert_close(cov.vc, vc)
        taus, v = (0.1, 0.5, 0.9), (1.0, 2.0, 0.5)
        fit = erfe.fit_erfe_multi(panel, taus, v)
        cov = erfe.sandwich_multi(panel, fit)
        _, kappa = oracles.longdouble_schur(
            panel.y, panel.X, panel.codes, panel.n_subjects, taus, v,
            fit.residuals_star)
        expected = oracles.dense_joint_sandwich(
            panel.X, panel.codes, panel.n_subjects, fit.residuals_star, taus, v)
        for got, want in zip((cov.d0_hat, cov.d1_hat, cov.vc), expected):
            _assert_close(got, want, 100.0 * kappa * eps)


# ---------------------------------------------------------------------
# conf_intervals and normal_quantile
# ---------------------------------------------------------------------

def test_normal_quantile_reference_values():
    refs = {0.9: 1.281552, 0.95: 1.644854, 0.975: 1.959964, 0.995: 2.575829}
    for prob, ref in refs.items():
        assert erfe.normal_quantile(prob) == pytest.approx(ref, abs=1e-6)
        assert erfe.normal_quantile(prob) == pytest.approx(
            oracles.normal_quantile_erfinv(prob), abs=1e-12)


def test_normal_quantile_within_2_ulp_of_mpmath():
    levels = [i / 1000 for i in range(1, 1000)] + [0.9995, 1e-10, 1 - 1e-10]
    for prob in levels:
        reference = oracles.mpmath_normal_quantile(prob)
        got = erfe.normal_quantile(prob)
        assert abs(mpmath.mpf(got) - reference) <= 2 * math.ulp(float(reference)), prob


def test_interval_reference_width():
    fit = erfe.FitResult(tau=0.5, beta=np.zeros(1), alpha=np.zeros(2),
                         residuals_star=np.zeros(4), iterations=1,
                         converged=True, objective_value=0.0)
    cov = SandwichCovariance(d0_hat=np.eye(1), d1_hat=np.eye(1),
                             vc=np.eye(1), se=np.ones(1))
    lo, hi = erfe.conf_intervals(fit, cov, 0.95)[0]
    assert lo == pytest.approx(-1.959964, abs=1e-5)
    assert hi == pytest.approx(1.959964, abs=1e-5)


def test_interval_width_monotone_in_level():
    fit = erfe.FitResult(tau=0.5, beta=np.array([1.0]), alpha=np.zeros(2),
                         residuals_star=np.zeros(4), iterations=1,
                         converged=True, objective_value=0.0)
    cov = SandwichCovariance(d0_hat=np.eye(1), d1_hat=np.eye(1),
                             vc=np.eye(1), se=np.ones(1))
    widths = []
    for level in (0.5, 0.8, 0.9, 0.99):
        lo, hi = erfe.conf_intervals(fit, cov, level)[0]
        widths.append(hi - lo)
    assert all(a < b for a, b in zip(widths, widths[1:]))
    assert widths[0] > 0.0


def test_interval_degenerate_at_zero_se():
    fit = erfe.FitResult(tau=0.5, beta=np.array([2.0]), alpha=np.zeros(2),
                         residuals_star=np.zeros(4), iterations=1,
                         converged=True, objective_value=0.0)
    cov = SandwichCovariance(d0_hat=np.zeros((1, 1)), d1_hat=np.eye(1),
                             vc=np.zeros((1, 1)), se=np.zeros(1))
    lo, hi = erfe.conf_intervals(fit, cov, 0.95)[0]
    assert lo == 2.0 and hi == 2.0


def test_interval_level_validation():
    fit = erfe.FitResult(tau=0.5, beta=np.array([1.0]), alpha=np.zeros(2),
                         residuals_star=np.zeros(4), iterations=1,
                         converged=True, objective_value=0.0)
    cov = SandwichCovariance(d0_hat=np.eye(1), d1_hat=np.eye(1),
                             vc=np.eye(1), se=np.ones(1))
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            erfe.conf_intervals(fit, cov, bad)


def test_interval_rows_follow_multi_block_order():
    rng = np.random.default_rng(82)
    panel, _, _ = oracles.random_panel(rng, 10, 4, 2)
    fit = erfe.fit_erfe_multi(panel, [0.3, 0.7])
    cov = erfe.sandwich_multi(panel, fit)
    ci = erfe.conf_intervals(fit, cov, 0.9)
    assert ci.shape == (4, 2)
    mid = (ci[:, 0] + ci[:, 1]) / 2.0
    assert np.max(np.abs(mid - fit.betas.ravel())) <= 1e-12
