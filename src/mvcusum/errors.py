"""Exception taxonomy shared across the toolkit.

Every error raised deliberately by this package derives from ToolkitError,
so callers (and the CLI) can distinguish usage/data problems from genuine
bugs. Class names double as machine-readable error categories. The module
imports no numpy, and neither does `_open_text`, the text-file opener whose
decode and csv errors name the file, so every reader of a text file can
share it.
"""

import csv
from contextlib import contextmanager

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
    "UsageError",
    "CellFailures",
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


class UsageError(ToolkitError):
    """A command line the argument parser rejects, named by its prog."""


class CellFailures(ToolkitError):
    """Bench replications failed; the grid's outputs are written anyway."""


@contextmanager
def _open_text(path, error, newline=None):
    """``open(path, encoding="utf-8")``; a byte that is not UTF-8, or a
    record the csv module refuses (a field over its size limit), raises
    ``error`` (a ToolkitError class) with a message naming the file."""
    try:
        with open(path, newline=newline, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise error(f"{path}: not UTF-8: {exc.reason} (byte 0x{byte:02x})") from None
    except csv.Error as exc:
        raise error(f"{path}: {exc}") from None
