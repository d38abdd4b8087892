"""Exception hierarchy for the surrband package.

All package-specific failures derive from :class:`SurrbandError` so callers can
catch everything with one clause.  Input-validation failures raise
:class:`DomainError` (also a ``ValueError``); the two more specific subclasses
let callers distinguish degenerate linear algebra and infeasible band
configurations from ordinary bad arguments.
"""

from __future__ import annotations

__all__ = [
    "SurrbandError",
    "DomainError",
    "RankDeficiencyError",
    "FeasibilityError",
]


class SurrbandError(Exception):
    """Base class for every error raised by this package."""


class DomainError(SurrbandError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class RankDeficiencyError(DomainError):
    """A basis row is (numerically) linearly dependent on earlier rows."""

    def __init__(self, row: int):
        self.row = int(row)
        super().__init__(f"row {self.row} is numerically dependent on the preceding rows")


class FeasibilityError(SurrbandError):
    """The requested acceptance level gamma is below the smallest feasible one.

    The two-norm tuning radius is too small for the residual test to reject
    reliably, so no gamma below ``min_gamma`` can be certified.  ``min_gamma``
    carries the smallest level that the configuration supports.
    """

    def __init__(self, gamma: float, min_gamma: float):
        self.gamma = float(gamma)
        self.min_gamma = float(min_gamma)
        super().__init__(
            f"gamma={self.gamma:.6g} is infeasible for this configuration; "
            f"the smallest feasible gamma is {self.min_gamma:.6g}"
        )
