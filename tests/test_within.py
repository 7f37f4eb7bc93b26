"""The weighted within transform, and the joint fit's shared subject
average, against dense oracles."""

import numpy as np
import pytest

import erfe
from erfe.errors import ShapeMismatchError
from erfe.within import apply_within, subject_weights

import oracles


def _toy_panel(rng, n=3, m=4, p=2):
    panel, _, _ = oracles.random_panel(rng, n, m, p)
    return panel


# ---------------------------------------------------------------------
# subject_weights
# ---------------------------------------------------------------------

def test_midpoint_weights_are_uniform():
    rng = np.random.default_rng(20)
    panel = _toy_panel(rng)
    sw = subject_weights(rng.standard_normal(panel.n_obs), 0.5, panel)
    assert np.allclose(sw, 1.0 / panel.counts[panel.codes], atol=1e-15)


def test_sign_split_weights():
    panel = erfe.build_panel([(1, 0.0, [0.0]), (1, 0.0, [1.0])])
    sw = subject_weights(np.array([1.0, -1.0]), 0.9, panel)
    assert np.allclose(sw, [0.9, 0.1], atol=1e-15)


def test_weights_sum_to_one_per_subject():
    rng = np.random.default_rng(21)
    panel, _, _ = oracles.unbalanced_panel(rng, [3, 5, 2, 4], p=1)
    for tau in (0.05, 0.5, 0.93):
        sw = subject_weights(rng.standard_normal(panel.n_obs), tau, panel)
        sums = np.bincount(panel.codes, weights=sw)
        assert np.max(np.abs(sums - 1.0)) <= 1e-15
        assert np.all(sw > 0) and np.all(sw < 1)


def test_residual_length_checked():
    rng = np.random.default_rng(22)
    panel = _toy_panel(rng)
    with pytest.raises(ShapeMismatchError):
        subject_weights(np.zeros(panel.n_obs + 1), 0.5, panel)
    with pytest.raises(ShapeMismatchError):
        subject_weights(np.zeros((2, panel.n_obs)), 0.5, panel)
    with pytest.raises(ValueError, match="open interval"):
        subject_weights(np.zeros(panel.n_obs), 1.0, panel)


# ---------------------------------------------------------------------
# apply_within
# ---------------------------------------------------------------------

def test_annihilates_subject_constants():
    rng = np.random.default_rng(23)
    panel, _, _ = oracles.unbalanced_panel(rng, [2, 4, 3], p=1)
    constant = rng.standard_normal(panel.n_subjects)[panel.codes]
    for tau in (0.2, 0.5, 0.8):
        sw = subject_weights(rng.standard_normal(panel.n_obs), tau, panel)
        out = apply_within(constant, sw, panel)
        assert np.max(np.abs(out)) <= 1e-12


def test_midpoint_transform_is_demeaning():
    rng = np.random.default_rng(24)
    panel = _toy_panel(rng)
    sw = subject_weights(rng.standard_normal(panel.n_obs), 0.5, panel)
    v = rng.standard_normal(panel.n_obs)
    means = np.bincount(panel.codes, weights=v) / panel.counts
    assert np.max(np.abs(apply_within(v, sw, panel) - (v - means[panel.codes]))) <= 1e-12


def test_idempotent_with_frozen_weights():
    rng = np.random.default_rng(25)
    panel = _toy_panel(rng)
    sw = subject_weights(rng.standard_normal(panel.n_obs), 0.85, panel)
    v = rng.standard_normal(panel.n_obs)
    once = apply_within(v, sw, panel)
    twice = apply_within(once, sw, panel)
    assert np.max(np.abs(twice - once)) <= 1e-12


def test_linear_in_input():
    rng = np.random.default_rng(26)
    panel = _toy_panel(rng)
    sw = subject_weights(rng.standard_normal(panel.n_obs), 0.3, panel)
    u = rng.standard_normal(panel.n_obs)
    w = rng.standard_normal(panel.n_obs)
    a, b = 2.5, -1.25
    combined = apply_within(a * u + b * w, sw, panel)
    separate = a * apply_within(u, sw, panel) + b * apply_within(w, sw, panel)
    assert np.max(np.abs(combined - separate)) <= 1e-12


def test_matrix_transform_is_columnwise():
    rng = np.random.default_rng(27)
    panel = _toy_panel(rng, p=3)
    sw = subject_weights(rng.standard_normal(panel.n_obs), 0.7, panel)
    M = rng.standard_normal((panel.n_obs, 3))
    out = apply_within(M, sw, panel)
    for j in range(3):
        assert np.array_equal(out[:, j], apply_within(M[:, j], sw, panel))


def test_permutation_equivariance():
    rng = np.random.default_rng(28)
    panel = _toy_panel(rng)
    resid = rng.standard_normal(panel.n_obs)
    v = rng.standard_normal(panel.n_obs)
    sw = subject_weights(resid, 0.8, panel)
    base = apply_within(v, sw, panel)

    # permute rows within each subject and rebuild everything
    perm = np.concatenate([rng.permutation(g) for g in oracles.subject_rows(panel)])
    records = [(int(panel.subject_labels[panel.codes[i]]), float(panel.y[i]), panel.X[i])
               for i in perm]
    permuted = erfe.build_panel(records)
    sw_p = subject_weights(resid[perm], 0.8, permuted)
    out_p = apply_within(v[perm], sw_p, permuted)
    assert np.max(np.abs(out_p - base[perm])) <= 1e-12


def test_shape_mismatch_rejected():
    rng = np.random.default_rng(29)
    panel = _toy_panel(rng)
    sw = subject_weights(np.zeros(panel.n_obs), 0.5, panel)
    with pytest.raises(ShapeMismatchError):
        apply_within(np.zeros(panel.n_obs + 2), sw, panel)
    with pytest.raises(ShapeMismatchError):
        apply_within(np.zeros((panel.n_obs, 2, 2)), sw, panel)


def test_matches_dense_projector():
    rng = np.random.default_rng(30)
    for n, m in ((2, 2), (2, 3), (3, 4)):
        panel, _, _ = oracles.random_panel(rng, n, m, 1)
        resid = rng.standard_normal(panel.n_obs)
        for tau in (0.15, 0.5, 0.9):
            psi = oracles.psi_ref(resid, tau)
            M = oracles.dense_within_matrix(panel.codes, n, psi)
            sw = subject_weights(resid, tau, panel)
            v = rng.standard_normal(panel.n_obs)
            assert np.max(np.abs(M @ v - apply_within(v, sw, panel))) <= 1e-10


# ---------------------------------------------------------------------
# the joint fit's shared subject average
# ---------------------------------------------------------------------

def test_pooled_dense_reading_discrepancy_recorded():
    """The two dense readings of the pooled annihilator disagree for
    non-uniform influence weights, and the joint fit follows the
    shared-average one.

    In the shared form the leading factor is the replicated incidence
    stack: it annihilates subject constants replicated across blocks,
    which the influence-weighted leading factor does not.  Both forms are
    idempotent, and they coincide for uniform weights.  This test records
    the discrepancy explicitly rather than hiding it behind uniform
    weights.
    """
    rng = np.random.default_rng(37)
    panel, _, _ = oracles.random_panel(rng, 3, 3, 1)
    taus = (0.3, 0.7)
    v = np.array([1.0, 3.0])
    fit = erfe.fit_erfe_multi(panel, taus, v)
    verbatim, shared, raw = oracles.joint_fit_projections(panel, fit)

    # the joint fit's residual blocks are the shared reading of y - X beta_k,
    # and not the verbatim one
    blocks = fit.residuals_star.reshape(-1)
    assert np.max(np.abs(shared @ raw - blocks)) <= 1e-10
    assert np.max(np.abs(verbatim @ raw - blocks)) > 1e-3

    # both dense forms are idempotent projections
    for M in (verbatim, shared):
        assert np.max(np.abs(M @ M - M)) <= 1e-10

    # only the shared form kills replicated subject constants
    const = rng.standard_normal(3)[panel.codes]
    rep = np.tile(const, 2)
    assert np.max(np.abs(shared @ rep)) <= 1e-10
    assert np.max(np.abs(verbatim @ rep)) > 1e-3

    # with equal influence weights the two readings coincide
    psis = np.vstack([oracles.psi_ref(r, tau) for r, tau in zip(fit.residuals_star, taus)])
    uniform, same = oracles.dense_pooled_matrices(panel.codes, 3, psis, np.ones(2))
    assert np.max(np.abs(uniform - same)) <= 1e-12
