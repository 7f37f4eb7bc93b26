"""The pieces of a concentrated round against direct computations."""

import numpy as np

from erfe.linalg import spd_inverse, spd_solve
from erfe.panel import stack_panels
from erfe.rounds import (
    Cycles,
    check_moments,
    concentrated_system,
    error_scale,
    flip_moments,
    sign_moments,
    weighted_moments,
)

import oracles


def _stack(seed, count=4, n=7, m=4, p=2):
    rng = np.random.default_rng(seed)
    return rng, stack_panels([oracles.random_panel(rng, n, m, p)[0] for _ in range(count)])


def test_flip_moments_are_the_difference_of_two_passes():
    # The moments of the flipped rows, gathered, are the positive-row
    # moments after the flips less those before, within rounding; a panel
    # without a flip moves by exactly zero.  idx is a subset of the stack.
    rng, stack = _stack(81)
    before = rng.standard_normal(stack.y.shape) > 0
    flipped = rng.random(stack.y.shape) < 0.3
    flipped[2] = False
    after = before ^ flipped
    idx = np.array([0, 2, 3])
    codes, rows, old, new = stack.part(idx, stack.demeaned, before, after)
    d_sums, d_grams = flip_moments(stack.demeaned, stack.codes, stack.n_subjects, idx,
                                   flipped[idx], new)
    passes = [weighted_moments(rows, codes, stack.n_subjects, mask.astype(float))
              for mask in (new, old)]
    for got, now, was in zip((d_sums, d_grams), *passes):
        assert got.shape == now.shape
        assert np.max(np.abs(got - (now - was))) <= 1e-13 * np.max(np.abs(now))
        assert not got[1].any()


def test_check_moments_are_a_pass_at_the_check_weights():
    # 1 - tau times the all-rows moments plus 2 tau - 1 times the
    # positive-row ones are the moments of one pass at the check weights.
    rng, stack = _stack(82)
    signs = rng.standard_normal(stack.y.shape) > 0
    taus = (0.1, 0.5, 0.9)
    args = (stack.demeaned, stack.codes, stack.n_subjects)
    got = check_moments(weighted_moments(*args, np.ones(stack.y.shape)),
                        weighted_moments(*args, signs.astype(float)), taus)
    want = sign_moments(*args, taus, np.repeat(signs[:, None], 3, axis=1))
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


def test_sign_moments_written_in_place_keep_their_bits():
    # A round of every panel writes its moments into the fit's running
    # arrays; the Grams' np.matmul and the sums' bincounts give the bits of
    # new arrays, for a stack of several panels too.
    rng, stack = _stack(84)
    taus = (0.2, 0.5, 0.9)
    args = (stack.demeaned, stack.codes, stack.n_subjects, taus,
            rng.standard_normal((stack.size, 3, stack.y.shape[1])) > 0)
    want = sign_moments(*args)
    out = tuple(np.full(a.shape, np.nan) for a in want)
    got = sign_moments(*args, out=out)
    for a, b, into in zip(got, want, out):
        assert a is into
        assert np.array_equal(a, b)


def test_error_scale_is_its_formula():
    # u |S~|_F tr(S~^-1) rho, with S~ the system scaled to a unit diagonal
    # inverted by np.linalg.inv, and rho the largest weighted Gram diagonal
    # over the system's, from the inverse that spd_solve returns.  A system
    # that is not positive definite, or that has a negative diagonal entry,
    # gets an infinite bound, without a warning.  The bound has the bits it
    # has when tr(S~^-1) is read from spd_inverse's symmetrized inverse,
    # whose diagonal is the same.
    rng, stack = _stack(83)
    taus, v = (0.2, 0.7), np.array([0.5, 2.0])
    signs = rng.standard_normal((stack.size, 2, stack.y.shape[1])) > 0
    sums, grams = sign_moments(stack.demeaned, stack.codes, stack.n_subjects, taus, signs)
    system = concentrated_system(v, sums, grams)[0]
    k = system.shape[-1]
    system[2] = 2.0 * np.ones((k, k)) - np.eye(k)
    system[3, 1, 1] = -1e-17
    inverse = spd_solve(system, np.broadcast_to(np.eye(k), system.shape))[0]
    got = error_scale(system, inverse, grams, v)
    assert np.isposinf(got[2:]).all()
    diag = np.diagonal(system, axis1=1, axis2=2)
    gram_diag = np.concatenate([v[b] * np.diagonal(grams[:, b, :, :-1], axis1=1, axis2=2)
                                for b in range(2)], axis=1)
    with np.errstate(all="ignore"):
        scaled = system / np.sqrt(diag[:, :, None] * diag[:, None, :])
        kappa = (np.linalg.norm(scaled, axis=(1, 2))
                 * np.sum(diag * np.diagonal(spd_inverse(system)[0], axis1=1, axis2=2),
                          axis=1))
        bits = np.finfo(float).eps * kappa * np.max(gram_diag / diag, axis=1)
    assert np.array_equal(got[:2], bits[:2])
    for i in range(2):
        d = np.diag(system[i])
        scaled = system[i] / np.sqrt(np.outer(d, d))
        kappa = np.linalg.norm(scaled) * np.trace(np.linalg.inv(scaled))
        gram_diag = np.concatenate([v[b] * np.diag(grams[i, b, :, :-1]) for b in range(2)])
        want = np.finfo(float).eps * kappa * np.max(gram_diag / d)
        assert abs(got[i] - want) <= 1e-12 * want


def test_cycles_find_a_period_two_cycle():
    # The first panel's masks go a, b, c, b, c, ...: the masks before rounds
    # 4 and 5 are those before rounds 2 and 3, so round 5 repeats round 3.
    # The second panel's masks never repeat.
    masks = np.eye(6, dtype=bool)[:, None, None]
    cycles = Cycles(np.concatenate([masks[0], masks[0]]))
    every = np.arange(2)
    found = []
    for r, (a, b) in enumerate([(1, 1), (2, 2), (1, 3), (2, 4), (1, 5)], start=1):
        found.append(cycles.repeats(every, r).tolist())
        cycles.step(every, np.concatenate([masks[a], masks[b]]))
    assert found == [[0, 0]] * 4 + [[3, 0]]
    assert cycles.repeats(np.array([0]), 6).tolist() == [4]
