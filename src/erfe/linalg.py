"""Symmetric positive definite solves with explicit rank diagnostics.

Gram systems are solved through a Cholesky factorization of the
diagonally rescaled matrix.  Failure is surfaced as SingularGramError
instead of silently falling back to a pseudo-inverse, so specification
errors (annihilated or collinear regressors) are diagnosable.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg as sla

from .errors import SingularGramError

# Smallest acceptable Cholesky pivot of the unit-diagonal rescaled Gram
# matrix; below this the system is treated as numerically rank deficient.
_MIN_PIVOT = 1e-7

__all__ = ["annihilated_columns", "spd_solve", "spd_inverse"]


def spd_solve(G, b, iteration=None, columns=None):
    """Solve G x = b for symmetric positive definite G.

    Raises SingularGramError when the factorization fails or the rescaled
    matrix has a pivot below the rank threshold.
    """
    G = np.asarray(G, dtype=float)
    b = np.asarray(b, dtype=float)
    d = np.sqrt(np.diag(G))
    if G.size == 0:
        raise SingularGramError("empty Gram matrix", columns=columns,
                                iteration=iteration)
    if not np.all(np.isfinite(d)) or np.any(d <= 0.0):
        raise SingularGramError(
            "Gram matrix has a non-positive diagonal entry",
            columns=columns, iteration=iteration,
        )
    scaled = G / d[:, None] / d[None, :]
    try:
        factor = sla.cho_factor(scaled, lower=True, check_finite=False)
    except sla.LinAlgError:
        raise SingularGramError(
            "Cholesky factorization failed: Gram matrix is singular",
            columns=columns, iteration=iteration,
        ) from None
    pivot = float(np.min(np.diag(factor[0])))
    if pivot <= _MIN_PIVOT:
        raise SingularGramError(
            f"Gram matrix numerically rank deficient (pivot {pivot:.2e})",
            columns=columns, iteration=iteration,
        )
    x = sla.cho_solve(factor, b / d if b.ndim == 1 else b / d[:, None],
                      check_finite=False)
    return x / d if b.ndim == 1 else x / d[:, None]


def spd_inverse(G, iteration=None, columns=None):
    """Inverse of a symmetric positive definite matrix, symmetrized."""
    eye = np.eye(G.shape[0])
    inv = spd_solve(G, eye, iteration=iteration, columns=columns)
    return (inv + inv.T) / 2.0


def annihilated_columns(transformed, reference_scale):
    """Indices of columns wiped out by a linear transform.

    ``reference_scale`` holds the pre-transform column norms; a column is
    flagged when its transformed norm is negligible relative to that.
    """
    transformed = np.asarray(transformed, dtype=float)
    norms = np.sqrt(np.einsum("ij,ij->j", transformed, transformed))
    ref = np.maximum(np.asarray(reference_scale, dtype=float), 1e-300)
    return np.nonzero(norms <= 1e-10 * ref)[0]
