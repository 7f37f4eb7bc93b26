"""Exception types shared across the package."""

from __future__ import annotations


class ErfeError(Exception):
    """Base class for every error raised by this package."""


class EmptyInputError(ErfeError, ValueError):
    """No data was supplied where at least one record is required."""


class RaggedRowError(ErfeError, ValueError):
    """Input rows do not all have the same width."""


class SingletonSubjectError(ErfeError, ValueError):
    """A subject contributes a single observation.

    The within transform of a one-row subject is identically zero, so such
    subjects carry no information and are rejected at construction.
    """


class ShapeMismatchError(ErfeError, ValueError):
    """An array argument does not conform to the panel layout."""


class WeightDimensionMismatchError(ErfeError, ValueError):
    """Influence weights do not match the number of asymmetric points."""


class NonincreasingTausError(ErfeError, ValueError):
    """A sequence of asymmetric points decreases somewhere."""


class NoConvergenceError(ErfeError, RuntimeError):
    """Iteration budget exhausted before the stopping criterion was met.

    The partially converged result, when one exists, is attached as
    ``result`` so callers can inspect or report it.  A fit whose residual
    signs cycle, so that no later round could pass the test, stops early
    with this error too: ``period`` holds the cycle's length in rounds and
    ``cycle_start`` the round it began.  Both are None for a fit that ran
    out of rounds.
    """

    def __init__(self, message, result=None, period=None, cycle_start=None):
        super().__init__(message)
        self.result = result
        self.period = period
        self.cycle_start = cycle_start


class SingularGramError(ErfeError, RuntimeError):
    """A (weighted) Gram matrix is numerically rank deficient.

    ``columns`` names the offending regressors when they can be identified,
    ``iteration`` records where in an iterative fit the failure occurred.
    A fit of a stack of panels gives each panel whose system is singular
    its own error, whose message describes that panel's system.
    """

    def __init__(self, message, columns=None, iteration=None):
        super().__init__(message)
        self.columns = tuple(columns) if columns else ()
        self.iteration = iteration


class SingularBreadError(ErfeError, RuntimeError):
    """The bread matrix of a sandwich covariance is not invertible."""


class NotPositiveSemidefiniteError(ErfeError, RuntimeError):
    """A covariance matrix has a materially negative eigenvalue."""


class BracketFailureError(ErfeError, RuntimeError):
    """Root bracketing failed while solving for a distribution expectile."""


class BudgetExceededError(ErfeError, RuntimeError):
    """A simulation request exceeds the configured size budget."""
