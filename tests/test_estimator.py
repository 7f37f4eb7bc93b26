"""Within-OLS, single- and multi-point panel expectile fits."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import erfe
from erfe.errors import (
    NoConvergenceError,
    NonincreasingTausError,
    SingularGramError,
    WeightDimensionMismatchError,
)
from erfe.estimator import fit_stack
from erfe.panel import stack_panels

import oracles


# ---------------------------------------------------------------------
# within_ols
# ---------------------------------------------------------------------

def test_noiseless_recovery():
    rng = np.random.default_rng(40)
    n, m = 6, 3
    codes = np.repeat(np.arange(n), m)
    X = rng.standard_normal((n * m, 2))
    alpha = rng.standard_normal(n)
    beta = np.array([0.6, 1.0])
    y = X @ beta + alpha[codes]
    panel = erfe.build_panel(
        [(int(codes[i]), float(y[i]), X[i]) for i in range(n * m)])
    fit = erfe.within_ols(panel)
    assert np.max(np.abs(fit.beta - beta)) <= 1e-10
    assert np.max(np.abs(fit.alpha - alpha)) <= 1e-10
    assert fit.converged and fit.iterations == 0


def test_within_constant_regressor_raises():
    codes = np.repeat(np.arange(4), 3)
    x = np.repeat(np.arange(4.0) + 1.0, 3)
    y = np.arange(12.0)
    panel = erfe.build_panel(
        [(int(codes[i]), float(y[i]), [x[i]]) for i in range(12)])
    with pytest.raises(SingularGramError) as excinfo:
        erfe.within_ols(panel)
    assert "x1" in excinfo.value.columns


def test_matches_clustered_ols_oracle_coefficients():
    rng = np.random.default_rng(41)
    panel, _, _ = oracles.random_panel(rng, 25, 6, 3)
    fit = erfe.within_ols(panel)
    beta_ref, _ = oracles.clustered_within_ols(
        panel.y, panel.X, panel.codes, panel.n_subjects)
    assert np.max(np.abs(fit.beta - beta_ref)) <= 1e-10


# ---------------------------------------------------------------------
# fit_erfe_single
# ---------------------------------------------------------------------

def test_midpoint_collapses_to_within_ols():
    rng = np.random.default_rng(42)
    panel, _, _ = oracles.random_panel(rng, 20, 5, 2)
    ols = erfe.within_ols(panel)
    fit = erfe.fit_erfe_single(panel, 0.5)
    assert np.max(np.abs(fit.beta - ols.beta)) <= 1e-8
    assert fit.iterations <= 2


def test_iteration_count_small_on_location_shift_panel():
    rng = np.random.default_rng(43)
    panel, _, _ = oracles.random_panel(rng, 100, 5, 2)
    for tau in (0.2, 0.8):
        fit = erfe.fit_erfe_single(panel, tau)
        assert 2 <= fit.iterations <= 8
        assert fit.converged


def test_toy_fit_matches_full_parameter_minimizer():
    rng = np.random.default_rng(44)
    for trial in range(4):
        n, m, p = 3, 4, 2
        panel, _, _ = oracles.random_panel(rng, n, m, p)
        for tau in (0.2, 0.8):
            fit = erfe.fit_erfe_single(panel, tau)
            betas, alpha = oracles.joint_fixed_effects_minimum(
                panel.y, panel.X, panel.codes, n, (tau,), (1.0,))
            assert np.max(np.abs(fit.beta - betas[0])) <= 1e-5
            assert np.max(np.abs(fit.alpha - alpha)) <= 1e-5


def test_transformed_first_order_condition():
    rng = np.random.default_rng(45)
    panel, _, _ = oracles.random_panel(rng, 30, 4, 2)
    for tau in (0.1, 0.65, 0.9):
        fit = erfe.fit_erfe_single(panel, tau)
        sw = erfe.subject_weights(fit.residuals_star, tau, panel)
        x_star = erfe.apply_within(panel.X, sw, panel)
        psi = erfe.check_weight(fit.residuals_star, tau)
        score = x_star.T @ (psi * fit.residuals_star)
        assert np.max(np.abs(score)) <= 1e-6 * (1.0 + np.max(np.abs(panel.y)))


def test_converged_point_satisfies_closed_form():
    # The iterative stepping scheme and the closed-form fixed point must
    # agree: with the converged weights frozen, one weighted least squares
    # solve on the transformed data reproduces the estimate.
    rng = np.random.default_rng(46)
    panel, _, _ = oracles.random_panel(rng, 15, 5, 2)
    fit = erfe.fit_erfe_single(panel, 0.8)
    sw = erfe.subject_weights(fit.residuals_star, 0.8, panel)
    y_star = erfe.apply_within(panel.y, sw, panel)
    x_star = erfe.apply_within(panel.X, sw, panel)
    psi = erfe.check_weight(fit.residuals_star, 0.8)
    closed = np.linalg.solve(x_star.T @ (x_star * psi[:, None]),
                             x_star.T @ (psi * y_star))
    assert np.max(np.abs(closed - fit.beta)) <= 1e-8


def test_subject_constant_shift_absorbed_by_effects():
    rng = np.random.default_rng(47)
    panel, _, _ = oracles.random_panel(rng, 12, 4, 2)
    shift = rng.standard_normal(panel.n_subjects)
    shifted = erfe.build_panel(
        [(int(panel.subject_ids[i]),
          float(panel.y[i] + shift[panel.codes[i]]), panel.X[i])
         for i in range(panel.n_obs)])
    for tau in (0.3, 0.5, 0.8):
        base = erfe.fit_erfe_single(panel, tau)
        moved = erfe.fit_erfe_single(shifted, tau)
        assert np.max(np.abs(moved.beta - base.beta)) <= 1e-8
        assert np.max(np.abs((moved.alpha - base.alpha) - shift)) <= 1e-8


def test_estimates_invariant_to_subject_relabeling():
    rng = np.random.default_rng(48)
    panel, _, _ = oracles.random_panel(rng, 10, 4, 2)
    relabeled = erfe.build_panel(
        [(f"unit-{int(panel.subject_ids[i]) + 100}",
          float(panel.y[i]), panel.X[i]) for i in range(panel.n_obs)])
    for tau in (0.25, 0.8):
        a = erfe.fit_erfe_single(panel, tau)
        b = erfe.fit_erfe_single(relabeled, tau)
        assert np.max(np.abs(a.beta - b.beta)) <= 1e-10
        assert np.max(np.abs(a.alpha - b.alpha)) <= 1e-10


def test_estimates_invariant_to_within_subject_permutation():
    rng = np.random.default_rng(49)
    panel, _, _ = oracles.random_panel(rng, 8, 5, 2)
    perm = np.concatenate([rng.permutation(g) for g in oracles.subject_rows(panel)])
    permuted = erfe.build_panel(
        [(int(panel.subject_ids[i]), float(panel.y[i]), panel.X[i])
         for i in perm])
    for tau in (0.5, 0.85):
        a = erfe.fit_erfe_single(panel, tau)
        b = erfe.fit_erfe_single(permuted, tau)
        assert np.max(np.abs(a.beta - b.beta)) <= 1e-10
        assert np.max(np.abs(a.alpha - b.alpha)) <= 1e-10


def test_unbalanced_panel_supported():
    rng = np.random.default_rng(50)
    panel, _, _ = oracles.unbalanced_panel(rng, [2, 6, 3, 5, 4], p=2)
    fit = erfe.fit_erfe_single(panel, 0.7)
    assert fit.converged
    betas, alpha = oracles.joint_fixed_effects_minimum(
        panel.y, panel.X, panel.codes, panel.n_subjects, (0.7,), (1.0,))
    assert np.max(np.abs(fit.beta - betas[0])) <= 1e-5
    assert np.max(np.abs(fit.alpha - alpha)) <= 1e-5


def test_objective_value_is_pooled_loss_at_fit():
    rng = np.random.default_rng(51)
    panel, _, _ = oracles.random_panel(rng, 6, 4, 2)
    fit = erfe.fit_erfe_single(panel, 0.8)
    direct = np.sum(oracles.rho_ref(
        panel.y - panel.X @ fit.beta - fit.alpha[panel.codes], 0.8))
    assert fit.objective_value == pytest.approx(direct, rel=1e-12)


def test_no_convergence_carries_partial_fit(monkeypatch):
    rng = np.random.default_rng(52)
    panel, _, _ = oracles.random_panel(rng, 20, 4, 2)
    monkeypatch.setattr(erfe.expectiles, "MAX_ROUNDS", 1)
    monkeypatch.setattr(erfe.expectiles, "TOL", 1e-16)
    with pytest.raises(NoConvergenceError) as excinfo:
        erfe.fit_erfe_single(panel, 0.9)
    partial = excinfo.value.result
    assert partial is not None
    assert not partial.converged
    assert partial.iterations == 1


# ---------------------------------------------------------------------
# recover_fixed_effects
# ---------------------------------------------------------------------

def test_recover_midpoint_effects_are_subject_means():
    rng = np.random.default_rng(53)
    panel, _, _ = oracles.random_panel(rng, 9, 4, 2)
    fit = erfe.within_ols(panel)
    raw = panel.y - panel.X @ fit.beta
    means = np.bincount(panel.codes, weights=raw) / panel.counts
    assert np.max(np.abs(fit.alpha - means)) <= 1e-12


def test_recover_exact_on_noiseless_panel():
    rng = np.random.default_rng(54)
    n, m = 5, 3
    codes = np.repeat(np.arange(n), m)
    X = rng.standard_normal((n * m, 2))
    alpha = rng.standard_normal(n)
    beta = np.array([1.5, -0.4])
    y = X @ beta + alpha[codes]
    panel = erfe.build_panel(
        [(int(codes[i]), float(y[i]), X[i]) for i in range(n * m)])
    for tau in (0.3, 0.8):
        fit = erfe.fit_erfe_single(panel, tau)
        assert np.max(np.abs(fit.alpha - alpha)) <= 1e-10


# ---------------------------------------------------------------------
# fit_erfe_multi
# ---------------------------------------------------------------------

def test_single_block_equals_single_fit():
    # One block needs no raw X: the joint fit runs the single fit's rounds.
    rng = np.random.default_rng(55)
    panel, _, _ = oracles.random_panel(rng, 12, 4, 2)
    single = erfe.fit_erfe_single(panel, 0.8)
    multi = erfe.fit_erfe_multi(panel, [0.8], [1.0])
    assert np.array_equal(multi.betas[0], single.beta)
    assert np.array_equal(multi.residuals_star[0], single.residuals_star)
    assert multi.iterations == single.iterations


def test_midpoint_block_equals_within_ols():
    rng = np.random.default_rng(56)
    panel, _, _ = oracles.random_panel(rng, 10, 4, 2)
    ols = erfe.within_ols(panel)
    single = erfe.fit_erfe_multi(panel, [0.5])
    assert np.max(np.abs(single.betas[0] - ols.beta)) <= 1e-8


def test_toy_joint_fit_matches_pooled_minimizer():
    rng = np.random.default_rng(57)
    for v in ([1.0, 1.0], [1.0, 3.0]):
        panel, _, _ = oracles.random_panel(rng, 2, 3, 1)
        taus = (0.3, 0.7)
        fit = erfe.fit_erfe_multi(panel, taus, v)
        betas, _ = oracles.joint_fixed_effects_minimum(
            panel.y, panel.X, panel.codes, panel.n_subjects, taus, v)
        assert np.max(np.abs(fit.betas - betas)) <= 1e-5


def test_joint_fit_three_points():
    rng = np.random.default_rng(58)
    panel, _, _ = oracles.random_panel(rng, 3, 4, 2)
    taus = (0.2, 0.5, 0.8)
    v = [1.0, 2.0, 1.0]
    fit = erfe.fit_erfe_multi(panel, taus, v)
    betas, _ = oracles.joint_fixed_effects_minimum(
        panel.y, panel.X, panel.codes, panel.n_subjects, taus, v)
    assert np.max(np.abs(fit.betas - betas)) <= 1e-5


def test_joint_first_order_conditions():
    rng = np.random.default_rng(59)
    panel, _, _ = oracles.random_panel(rng, 15, 5, 2)
    taus = (0.25, 0.75)
    v = np.array([1.0, 2.0])
    fit = erfe.fit_erfe_multi(panel, taus, v)
    scale = 1.0 + np.max(np.abs(panel.y))
    effect_score = np.zeros(panel.n_subjects)
    for k, tau in enumerate(taus):
        psi = erfe.check_weight(fit.residuals_star[k], tau)
        slope_score = panel.X.T @ (psi * fit.residuals_star[k])
        assert np.max(np.abs(slope_score)) <= 1e-6 * scale
        effect_score += v[k] * np.bincount(
            panel.codes, weights=psi * fit.residuals_star[k],
            minlength=panel.n_subjects)
    assert np.max(np.abs(effect_score)) <= 1e-6 * scale


def test_decreasing_taus_rejected():
    rng = np.random.default_rng(60)
    panel, _, _ = oracles.random_panel(rng, 5, 3, 1)
    with pytest.raises(NonincreasingTausError):
        erfe.fit_erfe_multi(panel, [0.8, 0.3])


def test_repeated_taus_rejected():
    rng = np.random.default_rng(60)
    panel, _, _ = oracles.random_panel(rng, 5, 3, 1)
    with pytest.raises(NonincreasingTausError, match="strictly increasing"):
        erfe.fit_erfe_multi(panel, (0.5, 0.5))


def test_influence_weight_validation():
    rng = np.random.default_rng(61)
    panel, _, _ = oracles.random_panel(rng, 5, 3, 1)
    with pytest.raises(WeightDimensionMismatchError):
        erfe.fit_erfe_multi(panel, [0.3, 0.7], [1.0])
    with pytest.raises(ValueError):
        erfe.fit_erfe_multi(panel, [0.3, 0.7], [1.0, 0.0])
    for taus in ([0.3], [0.3, 0.7]):
        with pytest.raises(ValueError, match="joint fit only"):
            fit_stack(stack_panels([panel]), taus, np.ones(len(taus)))


@pytest.mark.parametrize("weight", [np.inf, np.nan])
def test_influence_weights_must_be_finite(weight):
    rng = np.random.default_rng(61)
    panel, _, _ = oracles.random_panel(rng, 5, 3, 1)
    with pytest.raises(ValueError, match="strictly positive"):
        erfe.fit_erfe_multi(panel, [0.3, 0.7], [weight, 1.0])


def test_multi_within_constant_regressor_raises():
    codes = np.repeat(np.arange(4), 3)
    x = np.repeat(np.arange(4.0) + 1.0, 3)
    y = np.arange(12.0) ** 1.5
    panel = erfe.build_panel(
        [(int(codes[i]), float(y[i]), [x[i]]) for i in range(12)])
    with pytest.raises(SingularGramError):
        erfe.fit_erfe_multi(panel, [0.3, 0.7])


# ---------------------------------------------------------------------
# Invariance properties of both fits over unbalanced panels
# ---------------------------------------------------------------------

@st.composite
def _panels(draw):
    """(codes, y, X, rng): 3 to 12 subjects of 2 to 6 rows, p <= 5."""
    sizes = draw(st.lists(st.integers(2, 6), min_size=3, max_size=12))
    p = draw(st.integers(1, 5))
    assume(sum(sizes) - len(sizes) >= p + 2)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = np.repeat(np.arange(len(sizes)), sizes)
    alpha = rng.standard_normal(len(sizes))
    X = rng.standard_normal((codes.size, p)) + 0.5 * alpha[codes, None]
    y = X @ rng.standard_normal(p) + alpha[codes] + rng.standard_normal(codes.size)
    return codes, y, X, rng


def _build(labels, y, X):
    return erfe.build_panel(zip(labels, y.tolist(), X))


def _fits(panel, taus, v):
    """Slopes (q x p) of the single fits at ``taus`` and of the joint fit."""
    single = np.array([erfe.fit_erfe_single(panel, t).beta for t in taus])
    return single, erfe.fit_erfe_multi(panel, taus, v).betas


_TAUS = st.sampled_from([(0.1, 0.5, 0.9), (0.2, 0.7), (0.35,)])
_PROPERTY = settings(max_examples=25, deadline=None)


def _close(a, b, tol):
    assert np.max(np.abs(a - b)) <= tol * (1.0 + np.max(np.abs(b)))


@_PROPERTY
@given(_panels(), _TAUS)
def test_reflection_negates_slopes(data, taus):
    # rho_{1-tau}(-u) = rho_tau(u): reflecting y and every tau negates the
    # slopes.  The joint fit's taus and influence weights are reversed to
    # keep the taus increasing.
    codes, y, X, _ = data
    v = np.arange(1.0, len(taus) + 1.0)
    single, joint = _fits(_build(codes, y, X), taus, v)
    mirror = _build(codes, -y, X)
    flipped = tuple(1.0 - t for t in reversed(taus))
    m_single, m_joint = _fits(mirror, flipped, v[::-1])
    _close(-m_single[::-1], single, 1e-12)
    _close(-m_joint[::-1], joint, 1e-12)


@_PROPERTY
@given(_panels(), _TAUS)
def test_invariant_to_relabeling_and_row_permutation(data, taus):
    codes, y, X, rng = data
    v = np.ones(len(taus))
    single, joint = _fits(_build(codes, y, X), taus, v)
    names = rng.permutation(codes.max() + 1)
    rows = rng.permutation(codes.size)
    moved = _build([f"s{names[c]}" for c in codes[rows]], y[rows], X[rows])
    m_single, m_joint = _fits(moved, taus, v)
    _close(m_single, single, 1e-9)
    _close(m_joint, joint, 1e-9)


@_PROPERTY
@given(_panels(), _TAUS, st.floats(0.1, 10.0))
def test_affine_equivariance_in_y(data, taus, scale):
    # y -> scale * y + X c + subject constants + b maps every slope vector
    # beta_k to scale * beta_k + c: the effects absorb the constants.
    codes, y, X, rng = data
    v = np.ones(len(taus))
    single, joint = _fits(_build(codes, y, X), taus, v)
    c = rng.standard_normal(X.shape[1])
    shift = rng.standard_normal(codes.max() + 1)[codes] + 3.0
    m_single, m_joint = _fits(_build(codes, scale * y + X @ c + shift, X),
                              taus, v)
    _close(m_single, scale * single + c, 1e-9)
    _close(m_joint, scale * joint + c, 1e-9)


# ---------------------------------------------------------------------
# The panel's shared demeaned rows
# ---------------------------------------------------------------------

def _offset_panel(rng, offset, n=12, p=2):
    """Unbalanced panel whose first regressor is offset * alpha_i + noise."""
    sizes = rng.integers(2, 7, size=n)
    codes = np.repeat(np.arange(n), sizes)
    alpha = rng.standard_normal(n)
    X = rng.standard_normal((codes.size, p))
    X[:, 0] += offset * alpha[codes]
    y = X @ (0.5 - np.arange(p)) + alpha[codes] + rng.standard_normal(codes.size)
    return codes, y, X


def test_shared_design_does_not_leak_between_fits():
    # One panel serves a joint fit, a single fit and its sandwich; each
    # must give the bits it gives on a panel of its own.  The offset makes
    # the joint fit's raw X differ from the shared demeaned X.
    codes, y, X = _offset_panel(np.random.default_rng(62), 100.0)
    shared = _build(codes, y, X)
    multi = erfe.fit_erfe_multi(shared, (0.2, 0.8))
    single = erfe.fit_erfe_single(shared, 0.7)
    cov = erfe.sandwich_single(shared, single)
    fresh_multi = erfe.fit_erfe_multi(_build(codes, y, X), (0.2, 0.8))
    fresh_single = erfe.fit_erfe_single(_build(codes, y, X), 0.7)
    fresh_cov = erfe.sandwich_single(_build(codes, y, X), fresh_single)
    for a, b in [(multi.betas, fresh_multi.betas),
                 (multi.residuals_star, fresh_multi.residuals_star),
                 (single.beta, fresh_single.beta),
                 (single.alpha, fresh_single.alpha),
                 (single.residuals_star, fresh_single.residuals_star),
                 (cov.vc, fresh_cov.vc),
                 (shared.demeaned, _build(codes, y, X).demeaned)]:
        assert np.array_equal(a, b)
    assert multi.iterations == fresh_multi.iterations
    assert single.iterations == fresh_single.iterations


def test_demeaned_rows_are_read_only():
    rng = np.random.default_rng(63)
    panel, _, _ = oracles.random_panel(rng, 5, 3, 2)
    with pytest.raises(ValueError):
        panel.demeaned[0, 0] = 1.0
    with pytest.raises(AttributeError):
        panel.demeaned = np.zeros_like(panel.demeaned)
    assert panel.demeaned is panel.demeaned


def test_demeaned_rows_match_dense_within_matrix():
    rng = np.random.default_rng(64)
    panel, _, _ = oracles.unbalanced_panel(rng, [2, 6, 3, 5, 4], p=3)
    within = oracles.dense_within_matrix(panel.codes, panel.n_subjects,
                                         np.ones(panel.n_obs))
    expected = within @ np.column_stack([panel.X, panel.y])
    assert panel.demeaned.shape == (panel.n_regressors + 1, panel.n_obs)
    assert np.max(np.abs(panel.demeaned - expected.T)) <= 1e-12


@pytest.mark.parametrize("offset", [0.0, 100.0, 1e4])
def test_joint_error_within_conditioning_bound(offset):
    # A regressor offset * alpha_i + noise makes the joint fit's raw-X
    # Schur system ill-conditioned: slopes that differ across the taus
    # are identified between subjects too, so the rescaled condition
    # number kappa grows like offset^2.  The error against an extended-
    # precision solve at the same signs must stay within what a backward
    # stable solve of that system allows.  Cholesky of an n x n system
    # (n = q p = 6 here) has backward error below (3n + 1) eps (Higham,
    # Accuracy and Stability of Numerical Algorithms, Thm 10.4), forming
    # each entry rounds a sum of at most a few dozen products, and the
    # forward error is at most kappa times the backward error: 100 kappa
    # eps covers both.
    rng = np.random.default_rng(65)
    taus, v = (0.2, 0.5, 0.8), np.ones(3)
    eps = np.finfo(float).eps
    for _ in range(5):
        panel = _build(*_offset_panel(rng, offset))
        fit = erfe.fit_erfe_multi(panel, taus, v)
        ref, kappa = oracles.longdouble_schur(
            panel.y, panel.X, panel.codes, panel.n_subjects, taus, v,
            fit.residuals_star)
        error = np.max(np.abs(fit.betas - ref)) / np.max(np.abs(ref))
        assert error <= 100.0 * kappa * eps
