"""Exception types with stable machine-readable codes.

Every error carries a ``code`` string that scripts can match on and an
``exit_status`` used by the command-line front end (2 for input problems,
3 for numeric/analysis failures; usage errors exit 1 and the violation
gate exits 4, both handled in the CLI itself).
"""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"
    exit_status = 3


class EmptyDataError(ToolkitError):
    code = "empty-data"


class NonFiniteError(ToolkitError):
    code = "non-finite"


class NotSymmetricError(ToolkitError):
    code = "not-symmetric"


class NoConvergenceError(ToolkitError):
    """Eigensolver ran out of sweeps; ``residual`` is the remaining
    off-diagonal Frobenius norm."""

    code = "no-convergence"

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DimMismatchError(ToolkitError):
    code = "dim-mismatch"


class FullRankInjectiveError(ToolkitError):
    code = "full-rank-injective"


class InsufficientPairsError(ToolkitError):
    code = "insufficient-pairs"


class TooManyPairsError(ToolkitError):
    code = "too-many-pairs"


class ZeroVarianceError(ToolkitError):
    code = "zero-variance"


class InsufficientRowsError(ToolkitError):
    code = "insufficient-rows"


class BadFoldsError(ToolkitError):
    code = "bad-folds"


class DegenerateLabelsError(ToolkitError):
    code = "degenerate-labels"


class DatasetIOError(ToolkitError):
    code = "io"
    exit_status = 2


class DatasetParseError(ToolkitError):
    code = "parse"
    exit_status = 2
