"""Symmetric positive definite solves with explicit rank diagnostics.

Gram systems are solved through a Cholesky factorization of the
diagonally rescaled matrix.  A system without a solution is not silently
solved by a pseudo-inverse: its solution is NaN, and the solve returns,
per system, the reason it has none, so that the caller can say which
regressors of which fit are annihilated or collinear.

Every solve takes a stack of systems on leading axes, as the fits of a
Monte Carlo block make them, and one system is the stack of one: the
factorization is one stacked ``np.linalg.cholesky`` and the triangular
solves are elementwise over the stack, so each system's solution has the
same bits whatever else is stacked with it.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularGramError

# Smallest acceptable Cholesky pivot of the unit-diagonal rescaled Gram
# matrix; below this the system is treated as numerically rank deficient.
_MIN_PIVOT = 1e-7

__all__ = ["spd_inverse", "spd_solve"]


def _factor(scaled):
    """Lower Cholesky factors of the stacked matrices ``scaled`` (B x k x k),
    and per matrix the reason it has none (None where it has one)."""
    problems = [None] * scaled.shape[0]
    try:
        return np.linalg.cholesky(scaled), problems
    except np.linalg.LinAlgError:
        pass
    # Some matrix is not positive definite: factor one by one to find it.
    factors = np.empty_like(scaled)
    for i, matrix in enumerate(scaled):
        try:
            factors[i] = np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError:
            factors[i] = np.eye(matrix.shape[0])
            problems[i] = "Cholesky factorization failed: Gram matrix is singular"
    return factors, problems


def spd_solve(G, b):
    """Solve G x = b for symmetric positive definite G.

    ``G`` is one k x k matrix or a stack (..., k, k); ``b`` holds one
    right-hand side per system, (..., k), or several, (..., k, r).  Returns
    the solutions, NaN for a system without one, and per system in C order
    the reason it has none (a non-positive diagonal entry, a failed
    factorization or a rescaled pivot below the rank threshold) or None.
    An empty (0 x 0) system raises SingularGramError.
    """
    G = np.asarray(G, dtype=float)
    b = np.asarray(b, dtype=float)
    lead, k = G.shape[:-2], G.shape[-1]
    if k == 0:
        raise SingularGramError("empty Gram matrix")
    G = G.reshape(-1, k, k)
    vector = b.ndim == len(lead) + 1
    z = b.reshape(G.shape[0], k, 1 if vector else b.shape[-1])

    # A negative diagonal entry is reported as a problem, not warned about.
    with np.errstate(invalid="ignore"):
        d = np.sqrt(np.diagonal(G, axis1=1, axis2=2))
    bad_diagonal = ~np.all(np.isfinite(d) & (d > 0.0), axis=1)
    d[bad_diagonal] = 1.0
    scaled = G / d[:, :, None] / d[:, None, :]
    scaled[bad_diagonal] = np.eye(k)
    factors, problems = _factor(scaled)
    pivots = np.min(np.diagonal(factors, axis1=1, axis2=2), axis=1)
    for i in np.flatnonzero(bad_diagonal | (pivots <= _MIN_PIVOT)).tolist():
        if bad_diagonal[i]:
            problems[i] = "Gram matrix has a non-positive diagonal entry"
        elif problems[i] is None:
            problems[i] = f"Gram matrix numerically rank deficient (pivot {pivots[i]:.2e})"

    # L L' x = b / d by forward, then backward substitution, column by
    # column across the stack.
    z = z / d[:, :, None]
    for j in range(k):
        z[:, j] /= factors[:, j, j, None]
        z[:, j + 1:] -= factors[:, j + 1:, j, None] * z[:, j, None]
    for j in reversed(range(k)):
        z[:, j] /= factors[:, j, j, None]
        z[:, :j] -= factors[:, j, :j, None] * z[:, j, None]
    x = z / d[:, :, None]
    x[[p is not None for p in problems]] = np.nan
    return x.reshape(b.shape), problems


def spd_inverse(G):
    """Inverse of a symmetric positive definite matrix, or of each matrix
    of a stack (..., k, k), symmetrized, with ``spd_solve``'s problems."""
    G = np.asarray(G, dtype=float)
    inv, problems = spd_solve(G, np.broadcast_to(np.eye(G.shape[-1]), G.shape))
    return (inv + np.swapaxes(inv, -1, -2)) / 2.0, problems
