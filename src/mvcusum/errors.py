"""Exception taxonomy shared across the toolkit.

Every error raised deliberately by this package derives from ToolkitError,
so callers (and the CLI) can distinguish usage/data problems from genuine
bugs. Class names double as machine-readable error categories.
"""

__all__ = [
    "ToolkitError",
    "MissingColumn",
    "NonNumericCell",
    "TooShort",
    "NonFinite",
    "DomainError",
    "BandwidthTooLarge",
    "DegenerateSpectrum",
    "DimensionMismatch",
    "MissingCriticalValue",
    "GridParseError",
]


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class MissingColumn(ToolkitError):
    """A requested CSV column is absent from the header."""


class NonNumericCell(ToolkitError):
    """A selected CSV cell could not be parsed as a number."""

    def __init__(self, row, column, cell=""):
        self.row = row
        self.column = column
        self.cell = cell
        shown = repr(cell) if cell != "" else "empty cell"
        super().__init__(f"row {row}, column {column!r}: {shown} is not numeric")


class TooShort(ToolkitError):
    """The series has too few rows for the requested operation."""


class NonFinite(ToolkitError):
    """A value is NaN or infinite where a finite number is required."""

    def __init__(self, row, column):
        self.row = row
        self.column = column
        super().__init__(f"non-finite value at row {row}, column {column!r}")


class DomainError(ToolkitError):
    """An argument lies outside the documented domain."""


class BandwidthTooLarge(ToolkitError):
    """Smoothing window 2h+1 exceeds the number of Fourier ordinates."""


class DegenerateSpectrum(ToolkitError):
    """Estimated long-run covariance carries no usable signal
    (nonpositive trace; typically constant input)."""


class DimensionMismatch(ToolkitError):
    """Matrix/series dimensions do not agree."""


class MissingCriticalValue(ToolkitError):
    """No critical value available for the requested (d, alpha)."""


class GridParseError(ToolkitError):
    """A grid or simulation config is malformed. The message carries
    source:line provenance where a single line is to blame."""
