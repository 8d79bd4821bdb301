"""The series type, CSV ingestion, and centering.

The observation container is a plain T x d float matrix with optional column
labels; a row is known by its index only. CSV dialect is fixed: comma
separated, '"' quoting, no comment character, the first record after
``skip_rows`` records is the header, '.' decimal separator, UTF-8. A date
column is left out of the values and never read. Missing values are
rejected, never imputed.
"""

from __future__ import annotations

import csv
import math
import warnings
from contextlib import contextmanager
from dataclasses import InitVar, dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, MissingColumn, NonFinite, NonNumericCell, TooShort

__all__ = [
    "MultivariateSeries",
    "load_csv",
    "write_csv",
    "center",
]


@contextmanager
def _open_text(path, error, newline=None):
    """``open(path, encoding="utf-8")``; a byte that is not UTF-8 raises
    ``error`` (a ToolkitError class) with a message naming the file."""
    try:
        with open(path, newline=newline, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise error(f"{path}: not UTF-8: {exc.reason} (byte 0x{byte:02x})") from None


def _frozen(a: np.ndarray) -> np.ndarray:
    """Write-protect an array in place and return it."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class MultivariateSeries:
    """T x d real observation matrix with optional column labels.

    Parameters
    ----------
    values : ndarray, shape (T, d)
        Observations, one row per time point. Copied and frozen.
    labels : tuple of str, optional
        Column names, length d when present.

    Notes
    -----
    Construction does not validate; `load_csv` raises typed errors at
    ingest. Instances are immutable (the values array is write-protected).
    Package code that builds a fresh float64 array and drops it passes
    ``_fresh=True``: the array is then write-protected in place, not copied.
    """

    values: np.ndarray
    labels: Optional[tuple] = None
    _fresh: InitVar[bool] = False

    def __post_init__(self, _fresh):
        if _fresh:
            values = np.asarray(self.values, dtype=np.float64)
        else:
            values = np.array(self.values, dtype=np.float64, copy=True)
        if values.ndim == 1:
            values = values[:, None]
        object.__setattr__(self, "values", _frozen(values))
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


def _pick(path, header, columns, date_column):
    """The value column names and their positions in the stripped header
    row (None when the file ends before it)."""
    if not header:
        raise MissingColumn(f"{path}: no header row")
    date = date_column
    if date is None:
        date = next((h for h in header if h.lower() == "date"), None)
    columns = tuple(columns) or tuple(h for h in header if h != date)
    if not columns:
        raise MissingColumn(f"{path}: no value columns besides the date column")
    usecols = [_index(path, header, name, "column") for name in columns]
    for name in columns:
        if header.count(name) > 1:
            raise DomainError(f"{path}: column {name!r} appears "
                              f"{header.count(name)} times in the header")
    if date_column is not None:
        _index(path, header, date_column, "date column")
    return columns, usecols


def _records(fh, skip_rows):
    """A csv.reader over fh past the skipped records and the header row,
    and the stripped header (None when the file ends first). Records, not
    lines, are counted, so a quoted newline does not shift the header."""
    reader = csv.reader(fh)
    for _ in range(skip_rows):
        next(reader, None)
    header = next(reader, None)
    return reader, None if header is None else [h.strip() for h in header]


def _index(path, header, name, what) -> int:
    if name not in header:
        raise MissingColumn(f"{path}: {what} {name!r} not in header {header}")
    return header.index(name)


def load_csv(path, columns: Sequence[str] = (), date_column: Optional[str] = None,
             skip_rows: int = 0) -> MultivariateSeries:
    """Load the numeric columns of a CSV file.

    Parameters
    ----------
    path : path-like
        CSV file: comma separated, '"' quoting, one header row, '.'
        decimals, UTF-8, no comment character.
    columns : sequence of str
        The numeric columns to load, in output order, each named once in
        the header; empty means every column but the date column.
    date_column : str, optional
        A column left out and never read; when None, one named 'date' in any
        case, if the header has one.
    skip_rows : int
        CSV records to drop before the header row, at least 0.

    Returns
    -------
    MultivariateSeries
        Rows in file order, columns in ``columns`` order (header order
        when ``columns`` is empty).

    Raises
    ------
    MissingColumn
        The file has no header row, no value column, or a requested column
        (or the named date column) is not in the header.
    NonNumericCell
        A selected cell fails to parse; reports 1-based data row and column
        name. Empty cells count as non-numeric (missing data is rejected).
    NonFinite
        A selected cell parses to NaN or +/-inf.
    TooShort
        Fewer than 2 data rows.
    DomainError
        ``skip_rows`` is negative, a selected name appears more than once in
        the header, or the file is not UTF-8.

    Notes
    -----
    numpy's C reader parses the values from the handle the header was read
    from, so a clean file is opened once. A file it cannot read in full, or
    whose values are not all finite, or that has fewer than 2 rows is read
    again cell by cell with Python's ``float``, which accepts a few more
    spellings (``1_000``, non-ASCII digits) and names the row and column of
    a bad cell.
    """
    if skip_rows < 0:
        raise DomainError(f"skip_rows must be >= 0, got {skip_rows}")
    with _open_text(path, DomainError, newline="") as fh:
        _, header = _records(fh, skip_rows)
        columns, usecols = _pick(path, header, columns, date_column)
        values = _read_values(fh, usecols)
    if values is None:
        values = _parse_cells(path, skip_rows, columns, usecols)
    return MultivariateSeries(values, labels=columns, _fresh=True)


def _read_values(fh, usecols):
    """The selected columns of the data rows left in fh, through numpy's C
    reader; None unless every value is finite and there are at least 2 rows.
    ``comments=None``: the default '#' would cut a line short silently."""
    try:
        with warnings.catch_warnings():
            # no data rows: the typed TooShort comes from the fallback
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(fh, dtype=np.float64, delimiter=",",
                                comments=None, quotechar='"',
                                usecols=usecols, ndmin=2)
    except ValueError:
        return None
    if len(values) < 2 or not np.isfinite(values).all():
        return None
    return values


def _parse_cells(path, skip_rows, columns, usecols):
    """Parse the selected cells one by one with ``float``: the reference
    reader, and the one that raises the typed errors with row and column."""
    with _open_text(path, DomainError, newline="") as fh:
        reader, _ = _records(fh, skip_rows)
        rows = []
        for i, raw in enumerate(reader, start=1):
            if not raw:  # blank line
                continue
            vals = []
            for name, j in zip(columns, usecols):
                cell = raw[j].strip() if j < len(raw) else ""  # short record
                try:
                    x = float(cell)  # float('') raises, so empty cells land here
                except ValueError:
                    raise NonNumericCell(i, name, cell) from None
                if not math.isfinite(x):
                    raise NonFinite(i, name)
                vals.append(x)
            rows.append(vals)
    if len(rows) < 2:
        raise TooShort(f"{len(rows)} data row(s); need at least 2")
    return np.array(rows, dtype=np.float64)


_CHUNK_ROWS = 10_000


def _write_table(path, header, blocks) -> None:
    """Write a CSV table: the header, then the rows of each block (a list of
    1-D or 2-D float arrays of equal length, side by side) at 17 significant
    digits, so a reload round-trips every value exactly.

    The header goes through csv.writer, for its quoting and line ends.
    Floats never need quoting, so the rows are formatted a chunk at a time;
    the columns are stacked per chunk too, so no copy of the whole table is
    made."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for columns in blocks:
            for lo in range(0, len(columns[0]), _CHUNK_ROWS):
                chunk = np.column_stack([c[lo:lo + _CHUNK_ROWS] for c in columns])
                rows, width = chunk.shape
                line = ",".join(["%.17g"] * width) + "\r\n"
                fh.write((line * rows) % tuple(chunk.ravel().tolist()))


def write_csv(series: MultivariateSeries, path) -> None:
    """Write a series as CSV with full float precision (17 significant
    digits), so a subsequent load_csv round-trips the values exactly."""
    labels = tuple(series.labels or (f"x{j}" for j in range(series.d)))
    _write_table(path, labels, [[series.values]])


def center(series: MultivariateSeries) -> MultivariateSeries:
    """Subtract the column means, keeping the labels. Column sums of the
    result vanish to within accumulated roundoff (well under 1e-9 per row)."""
    mean = series.values.mean(axis=0)
    return MultivariateSeries(series.values - mean, labels=series.labels,
                              _fresh=True)

