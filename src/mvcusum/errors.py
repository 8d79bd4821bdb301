"""Exception taxonomy shared across the toolkit.

Every error raised deliberately by this package derives from ToolkitError,
so callers (and the CLI) can distinguish usage/data problems from genuine
bugs. Class names double as machine-readable error categories. The module
imports no numpy, and neither does `_open_text`, the text-file opener whose
missing-file, decode and csv errors name the file, so every reader of a
text file can share it.

It also holds the check of each setting that needs no data, which the
library and the CLI's parser both call; `_bounds`, which builds each
integer bound; and `_MAX_VALUES`, the value budget of a setting's arrays.
"""

import csv
from contextlib import contextmanager

_ENCODING = "utf-8-sig"  # of text inputs: a leading byte-order mark is dropped

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
    """``open(path, encoding=_ENCODING)``; a missing file raises
    FileNotFoundError naming it, and a byte that is not UTF-8, or a record
    the csv module refuses (a field over its size limit), raises ``error``
    (a ToolkitError class) with a message naming the file."""
    try:
        fh = open(path, newline=newline, encoding=_ENCODING)
    except (FileNotFoundError, NotADirectoryError):  # x.csv/y names no file
        raise FileNotFoundError(f"no such input file: {path}") from None
    try:
        with fh:
            yield fh
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise error(f"{path}: not UTF-8: {exc.reason} (byte 0x{byte:02x})") from None
    except csv.Error as exc:
        raise error(f"{path}: {exc}") from None


# Most values in one array that a setting sizes: T * d in a simulated
# series, whose draw holds several float64 copies of it, 800 MB each at the
# cap, and freqs * d * d in a spectrum.
_MAX_VALUES = 100_000_000


# The checks of the settings that need no data, each raising DomainError;
# None, where a setting takes it, asks for the default and passes.
def _bounds(what, least, most=None):
    """The check that a value lies in [least, most] (no top when most is
    None), whose message names ``what`` and the bound it breaks."""
    def check(value) -> None:
        if value is not None and value < least:
            raise DomainError(f"{what} must be >= {least}, got {value}")
        if value is not None and most is not None and value > most:
            raise DomainError(f"{what} must be <= {most}, got {value}")
    return check


def _check_bandwidth(h) -> None:
    if h is None or int(h) != h or h < 1:
        raise DomainError(f"bandwidth must be a positive integer, got {h}")


def _check_level(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"level must be in (0, 1), got {alpha}")


def _check_trim(trim: float) -> None:
    if not 0.0 <= trim < 0.5:
        raise DomainError(f"trim fraction must be in [0, 0.5), got {trim}")


def _check_window(window) -> None:
    if window is not None and (int(window) != window or window < 1
                               or window % 2 == 0):
        raise DomainError(f"smoothing window must be odd and >= 1, got {window}")


def _check_prominence(prominence) -> None:
    if prominence is not None and not prominence >= 0:  # nan fails this too
        raise DomainError(f"prominence floor must be >= 0, got {prominence}")


def _check_freqs(freqs: int) -> None:
    if freqs < 2:
        raise DomainError(f"need at least 2 frequencies, got {freqs}")


_check_reps = _bounds("replication override", 1)
_check_threads = _bounds("thread cap", 1)
_check_skip_rows = _bounds("skip_rows", 0)
_check_seed = _bounds("seed", 0)
