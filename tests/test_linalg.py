"""Stacked symmetric positive definite solves and stacked panels."""

import re

import numpy as np
import pytest

import erfe
from erfe.linalg import spd_inverse, spd_solve
from erfe.panel import stack_panels

import oracles


def _spd_stack(rng, size, k):
    A = rng.standard_normal((size, k + 4, k))
    return A.transpose(0, 2, 1) @ A, rng.standard_normal((size, k))


def test_stacked_solve_gives_each_system_its_own_bits():
    G, b = _spd_stack(np.random.default_rng(1), 7, 4)
    stacked, problems = spd_solve(G, b)
    inverses, inverse_problems = spd_inverse(G)
    assert problems == inverse_problems == [None] * 7
    for i in range(7):
        assert np.array_equal(stacked[i], spd_solve(G[i], b[i])[0])
        assert np.array_equal(stacked[i], spd_solve(G[i:i + 1], b[i:i + 1])[0][0])
        assert np.array_equal(inverses[i], spd_inverse(G[i])[0])
        assert np.max(np.abs(G[i] @ stacked[i] - b[i])) <= 1e-10 * np.max(np.abs(G[i]))


@pytest.mark.parametrize("make_singular, message", [
    (lambda g: g - np.outer(g[:, 0], g[0]) / g[0, 0], "non-positive diagonal"),
    (lambda g: np.diag([-1e-17, 1.0, 1.0]), "has a non-positive diagonal entry"),
    (lambda g: np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + 2.5e-15, 0.0], [0.0, 0.0, 1.0]]),
     r"rank deficient \(pivot \d\.\d+e-08\)"),
    (lambda g: np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
     "Cholesky factorization failed"),
])
def test_a_singular_system_fails_alone(make_singular, message):
    G, b = _spd_stack(np.random.default_rng(2), 5, 3)
    good, _ = spd_solve(G, b)
    G[3] = make_singular(G[3])
    alone, (problem,) = spd_solve(G[3], b[3])
    assert re.search(message, problem) and np.isnan(alone).all()
    x, problems = spd_solve(G, b)
    assert problems == [None, None, None, problem, None]
    assert np.isnan(x[3]).all()
    keep = [0, 1, 2, 4]
    assert np.array_equal(x[keep], good[keep])


def test_stacked_panels_match_their_own_demeaned_rows():
    rng = np.random.default_rng(3)
    panels = [oracles.random_panel(rng, 6, 4, 2)[0] for _ in range(4)]
    stack = stack_panels(panels)
    assert stack.size == 4 and stack.n_subjects == 6
    for b, panel in enumerate(panels):
        alone = stack_panels([panel])
        assert np.array_equal(stack.demeaned[b], alone.demeaned[0])
        assert np.array_equal(stack.constant[b], alone.constant[0])
        assert np.array_equal(stack.codes[b] - 6 * b, panel.codes)
    idx = np.array([1, 3])
    codes, rows = stack.part(idx, stack.demeaned)
    assert np.array_equal(codes, np.stack([panels[1].codes, panels[3].codes + 6]))
    assert np.array_equal(rows, stack.demeaned[idx])
    every = np.arange(4)
    assert stack.part(every, stack.demeaned)[1] is stack.demeaned

    single = stack_panels(panels[:1])
    for name in ("y", "X", "codes"):
        assert np.shares_memory(getattr(single, name), getattr(panels[0], name))


def test_stacked_panels_must_share_their_shape():
    rng = np.random.default_rng(4)
    with pytest.raises(erfe.ShapeMismatchError):
        stack_panels([oracles.random_panel(rng, 6, 4, 2)[0],
                      oracles.random_panel(rng, 5, 4, 2)[0]])
