"""Exception types shared across the package.

Input-shaped problems (bad files, bad flags, impossible configs) and
numerical problems (collinearity, degenerate fits, domain violations)
are kept in separate branches so the command line can map them to
distinct exit codes.
"""

from __future__ import annotations


class CmcError(Exception):
    """Base class for all package errors."""


class InputError(CmcError):
    """Problems with user-supplied data or configuration."""


class NumericalError(CmcError):
    """Problems arising from the numbers themselves."""


class DimensionMismatchError(InputError):
    """Array shapes or index ranges do not line up."""


class ParseError(InputError):
    """A file cell could not be read; carries 1-based row/column."""

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        super().__init__(message)
        self.row = row
        self.col = col


class MissingResponseError(InputError):
    """The named response column is absent from the file."""


class TooFewRowsError(InputError):
    """Not enough observations for the requested fit (n <= p+1)."""


class ConstantColumnError(InputError):
    """A predictor column has zero sample variance."""


class LimitExceededError(InputError):
    """Exhaustive search requested over more than subsets.SUBSET_LIMIT predictors."""


class ConfigError(InputError):
    """Mutually inconsistent or out-of-range option values."""


class RankDeficientError(NumericalError):
    """Selected columns are collinear beyond tolerance."""


class DegenerateFitError(NumericalError):
    """Full-model residual variance is (numerically) zero."""


class DomainError(NumericalError):
    """Function argument outside its mathematical domain."""


class InconsistentStatisticError(NumericalError):
    """A submodel RSS fell below the full-model RSS by more than rounding allows."""


class InfeasibleCandidatesError(NumericalError):
    """No candidate model satisfies the constraint (possible only for explicit lists)."""
