"""Weighted within transforms, single and pooled, against dense oracles."""

import numpy as np
import pytest

import erfe
from erfe.errors import ShapeMismatchError, WeightDimensionMismatchError
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
    assert np.allclose(sw.normalized, 1.0 / panel.counts[panel.codes], atol=1e-15)


def test_sign_split_weights():
    panel = erfe.build_panel([(1, 0.0, [0.0]), (1, 0.0, [1.0])])
    sw = subject_weights(np.array([1.0, -1.0]), 0.9, panel)
    assert np.allclose(sw.normalized, [0.9, 0.1], atol=1e-15)
    assert sw.taus == (0.9,)


def test_weights_sum_to_one_per_subject():
    rng = np.random.default_rng(21)
    panel, _, _ = oracles.unbalanced_panel(rng, [3, 5, 2, 4], p=1)
    for tau in (0.05, 0.5, 0.93):
        sw = subject_weights(rng.standard_normal(panel.n_obs), tau, panel)
        sums = np.bincount(panel.codes, weights=sw.normalized)
        assert np.max(np.abs(sums - 1.0)) <= 1e-15
        assert np.all(sw.normalized > 0) and np.all(sw.normalized < 1)


def test_residual_length_checked():
    rng = np.random.default_rng(22)
    panel = _toy_panel(rng)
    with pytest.raises(ShapeMismatchError):
        subject_weights(np.zeros(panel.n_obs + 1), 0.5, panel)


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
    perm = np.concatenate([rng.permutation(g) for g in panel.groups()])
    records = [(int(panel.subject_ids[i]), float(panel.y[i]), panel.X[i])
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
# pooled transform
# ---------------------------------------------------------------------

def test_pooled_single_block_reduces_to_subject_weights():
    rng = np.random.default_rng(31)
    panel = _toy_panel(rng, p=2)
    resid = rng.standard_normal(panel.n_obs)
    pw = subject_weights(resid[None, :], (0.7,), panel, [1.0])
    sw = subject_weights(resid, 0.7, panel)
    assert np.array_equal(pw.normalized[0], sw.normalized)
    v = rng.standard_normal(panel.n_obs)
    pooled = apply_within(v[None, :], pw, panel)[0]
    single = apply_within(v, sw, panel)
    assert np.array_equal(pooled, single)
    M = rng.standard_normal((panel.n_obs, 2))
    assert np.array_equal(apply_within(M[None], pw, panel)[0],
                          apply_within(M, sw, panel))


def test_pooled_midpoint_any_v_is_demeaning():
    rng = np.random.default_rng(32)
    panel = _toy_panel(rng)
    resid = rng.standard_normal((2, panel.n_obs))
    pw = subject_weights(resid, (0.5, 0.5), panel, [0.25, 4.0])
    y = rng.standard_normal(panel.n_obs)
    rep = np.tile(y, (2, 1))
    out = apply_within(rep, pw, panel)
    means = np.bincount(panel.codes, weights=y) / panel.counts
    expected = y - means[panel.codes]
    for k in range(2):
        assert np.max(np.abs(out[k] - expected)) <= 1e-12


def test_pooled_annihilates_replicated_subject_constants():
    rng = np.random.default_rng(33)
    panel, _, _ = oracles.unbalanced_panel(rng, [3, 2, 4], p=1)
    resid = rng.standard_normal((3, panel.n_obs))
    pw = subject_weights(resid, (0.2, 0.5, 0.9), panel, [1.0, 2.0, 0.5])
    const = rng.standard_normal(panel.n_subjects)[panel.codes]
    rep = np.tile(const, (3, 1))
    out = apply_within(rep, pw, panel)
    assert np.max(np.abs(out)) <= 1e-12


def test_pooled_normalizers_positive():
    rng = np.random.default_rng(34)
    panel = _toy_panel(rng)
    resid = rng.standard_normal((2, panel.n_obs))
    pw = subject_weights(resid, (0.1, 0.9), panel, [0.5, 0.5])
    assert pw.normalized.shape == (2, panel.n_obs)
    assert np.all(pw.normalized > 0)
    sums = np.bincount(panel.codes, weights=pw.normalized.sum(axis=0))
    assert np.max(np.abs(sums - 1.0)) <= 1e-15


def test_pooled_weight_dimension_mismatch():
    rng = np.random.default_rng(35)
    panel = _toy_panel(rng)
    resid = rng.standard_normal((2, panel.n_obs))
    with pytest.raises(WeightDimensionMismatchError):
        subject_weights(resid, (0.3, 0.7), panel, [1.0])
    with pytest.raises(ValueError):
        subject_weights(resid, (0.3, 0.7), panel, [1.0, -1.0])


def test_pooled_shapes_checked():
    rng = np.random.default_rng(40)
    panel = _toy_panel(rng)
    resid = rng.standard_normal((2, panel.n_obs))
    with pytest.raises(ShapeMismatchError):
        subject_weights(resid, (0.3, 0.5, 0.7), panel)
    with pytest.raises(ShapeMismatchError):
        subject_weights(resid[:, 1:], (0.3, 0.7), panel)
    with pytest.raises(ShapeMismatchError):
        subject_weights(resid[0], (0.3, 0.7), panel)
    with pytest.raises(ValueError):
        subject_weights(resid, (0.3, 1.0), panel)
    pw = subject_weights(resid, (0.4, 0.4), panel)  # repeated taus are legal
    with pytest.raises(ShapeMismatchError):
        apply_within(rng.standard_normal(panel.n_obs), pw, panel)
    with pytest.raises(ShapeMismatchError):
        apply_within(rng.standard_normal((3, panel.n_obs)), pw, panel)
    with pytest.raises(ShapeMismatchError):
        apply_within(np.zeros((2, panel.n_obs, 2, 2)), pw, panel)


def test_pooled_matches_dense_oracle_uniform_v():
    # With equal influence weights the two published forms of the pooled
    # annihilator coincide; the O(N) implementation must match them.
    rng = np.random.default_rng(36)
    for n, m, q in ((2, 3, 2), (3, 4, 2), (3, 2, 1)):
        panel, _, _ = oracles.random_panel(rng, n, m, 1)
        taus = (0.3, 0.7)[:q]
        v = np.ones(q)
        resid = rng.standard_normal((q, panel.n_obs))
        psis = np.vstack([oracles.psi_ref(resid[k], taus[k]) for k in range(q)])
        verbatim, shared = oracles.dense_pooled_matrices(panel.codes, n, psis, v)
        assert np.max(np.abs(verbatim - shared)) <= 1e-12
        pw = subject_weights(resid, taus, panel, v)
        u = rng.standard_normal((q, panel.n_obs))
        impl = apply_within(u, pw, panel).reshape(-1)
        assert np.max(np.abs(verbatim @ u.reshape(-1) - impl)) <= 1e-10


def test_pooled_dense_reading_discrepancy_recorded():
    """The two dense readings of the pooled annihilator disagree for
    non-uniform influence weights.

    The implementation follows the shared-average form (leading factor is
    the replicated incidence stack): it annihilates subject constants
    replicated across blocks, which the influence-weighted leading factor
    does not.  Both forms are idempotent.  This test records the
    discrepancy explicitly rather than hiding it behind uniform weights.
    """
    rng = np.random.default_rng(37)
    panel, _, _ = oracles.random_panel(rng, 3, 3, 1)
    taus = (0.3, 0.7)
    v = np.array([1.0, 3.0])
    resid = rng.standard_normal((2, panel.n_obs))
    psis = np.vstack([oracles.psi_ref(resid[k], taus[k]) for k in range(2)])
    verbatim, shared = oracles.dense_pooled_matrices(panel.codes, 3, psis, v)

    pw = subject_weights(resid, taus, panel, v)
    u = rng.standard_normal((2, panel.n_obs))
    impl = apply_within(u, pw, panel).reshape(-1)

    # implementation == shared-average reading, everywhere
    assert np.max(np.abs(shared @ u.reshape(-1) - impl)) <= 1e-10
    # the verbatim reading genuinely differs for this input
    assert np.max(np.abs(verbatim @ u.reshape(-1) - impl)) > 1e-3

    # both dense forms are idempotent projections
    for M in (verbatim, shared):
        assert np.max(np.abs(M @ M - M)) <= 1e-10

    # only the shared form kills replicated subject constants
    const = rng.standard_normal(3)[panel.codes]
    rep = np.tile(const, 2)
    assert np.max(np.abs(shared @ rep)) <= 1e-10
    assert np.max(np.abs(verbatim @ rep)) > 1e-3


def test_pooled_idempotent_with_frozen_weights():
    rng = np.random.default_rng(38)
    panel = _toy_panel(rng)
    resid = rng.standard_normal((2, panel.n_obs))
    pw = subject_weights(resid, (0.25, 0.75), panel, [1.0, 2.0])
    u = rng.standard_normal((2, panel.n_obs))
    once = apply_within(u, pw, panel)
    twice = apply_within(once, pw, panel)
    assert np.max(np.abs(twice - once)) <= 1e-12


def test_pooled_matrix_blocks():
    rng = np.random.default_rng(39)
    panel = _toy_panel(rng, p=2)
    resid = rng.standard_normal((2, panel.n_obs))
    pw = subject_weights(resid, (0.4, 0.6), panel, [1.0, 1.0])
    blocks = rng.standard_normal((2, panel.n_obs, 2))
    out = apply_within(blocks, pw, panel)
    for j in range(2):
        expected = apply_within(blocks[:, :, j], pw, panel)
        assert np.array_equal(out[:, :, j], expected)
