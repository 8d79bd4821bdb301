"""Core series types, CSV ingestion, and centering.

The observation container is a plain T x d float matrix with optional column
labels and row timestamps. CSV dialect is fixed: comma separated, '"'
quoting, no comment character, the first record after ``skip_rows`` records
is the header, '.' decimal separator, UTF-8. Missing values are rejected,
never imputed.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import InitVar, dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import MissingColumn, NonFinite, NonNumericCell, TooShort

__all__ = [
    "MultivariateSeries",
    "CenteredSeries",
    "IngestConfig",
    "load_csv",
    "write_csv",
    "center",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    """Write-protect an array in place and return it."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class MultivariateSeries:
    """T x d real observation matrix with optional metadata.

    Parameters
    ----------
    values : ndarray, shape (T, d)
        Observations, one row per time point. Copied and frozen.
    labels : tuple of str, optional
        Column names, length d when present.
    timestamps : tuple of str, optional
        Opaque row time labels, length T when present.

    Notes
    -----
    Construction does not validate; `load_csv` raises typed errors at
    ingest. Instances are immutable (the values array is write-protected).
    Package code that builds a fresh float64 array and drops it passes
    ``_fresh=True``: the array is then write-protected in place, not copied.
    """

    values: np.ndarray
    labels: Optional[tuple] = None
    timestamps: Optional[tuple] = None
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
        if self.timestamps is not None:
            object.__setattr__(self, "timestamps", tuple(self.timestamps))

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class CenteredSeries:
    """Column-centered values plus the subtracted column means. Both arrays
    are write-protected in place, not copied: `center` allocates them."""

    values: np.ndarray
    mean: np.ndarray

    def __post_init__(self):
        _frozen(self.values)
        _frozen(self.mean)

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class IngestConfig:
    """CSV ingestion settings.

    columns: ordered names of the numeric columns to load (the output column
    order). date_column: optional name of a column collected verbatim as row
    timestamps. skip_rows: CSV records to drop before the header row.
    """

    columns: Sequence[str]
    date_column: Optional[str] = None
    skip_rows: int = 0

    def _pick(self, path, header):
        """The value columns and the date column (or None) to read, given
        the stripped header row (None when the file ends before it)."""
        if not self.columns:
            raise MissingColumn("no columns requested")
        if header is None:
            raise TooShort("file has no header row")
        return tuple(self.columns), self.date_column


class _HeaderDefaults(IngestConfig):
    """The command line's choice of columns, made from the header: no
    columns given means every column but the date column, and no date
    column given means a column named 'date' (any case), if present.

    The date column is only left out of the values; it is not read, so no
    timestamps are collected. A date column named but absent is still an
    error, reported after an absent value column."""

    def _pick(self, path, header):
        if not header:
            raise MissingColumn(f"{path}: no header row")
        date = self.date_column
        if date is None:
            date = next((h for h in header if h.lower() == "date"), None)
        columns = tuple(self.columns) or tuple(h for h in header if h != date)
        if not columns:
            raise MissingColumn(f"{path}: no value columns besides the date column")
        if self.date_column is not None:
            for name in columns:
                _index(header, name, "column")
            _index(header, self.date_column, "date column")
        return columns, None


def _records(fh, skip_rows):
    """A csv.reader over fh past the skipped records and the header row,
    and the stripped header (None when the file ends first). Records, not
    lines, are counted, so a quoted newline does not shift the header."""
    reader = csv.reader(fh)
    for _ in range(skip_rows):
        next(reader, None)
    header = next(reader, None)
    return reader, None if header is None else [h.strip() for h in header]


def _index(header, name, what) -> int:
    if name not in header:
        raise MissingColumn(f"{what} {name!r} not in header {header}")
    return header.index(name)


def _cell(raw, j) -> str:
    """Cell j of a csv record, stripped; empty past the record's end."""
    return raw[j].strip() if j < len(raw) else ""


def load_csv(path, config: IngestConfig) -> MultivariateSeries:
    """Load selected numeric columns of a CSV file.

    Parameters
    ----------
    path : path-like
        CSV file: comma separated, '"' quoting, one header row, '.'
        decimals, UTF-8, no comment character.
    config : IngestConfig

    Returns
    -------
    MultivariateSeries
        Rows in file order, columns in ``config.columns`` order.

    Raises
    ------
    MissingColumn
        A requested column (or the date column) is not in the header.
    NonNumericCell
        A selected cell fails to parse; reports 1-based data row and column
        name. Empty cells count as non-numeric (missing data is rejected).
    NonFinite
        A selected cell parses to NaN or +/-inf.
    TooShort
        Fewer than 2 data rows.

    Notes
    -----
    numpy's C reader parses the values. A file it cannot read in full, or
    whose values are not all finite, or that has fewer than 2 rows is read
    again cell by cell with Python's ``float``, which accepts a few more
    spellings (``1_000``, non-ASCII digits) and names the row and column of
    a bad cell. Timestamps are always read through ``csv.reader``.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        _, header = _records(fh, config.skip_rows)
        columns, date = config._pick(path, header)
        usecols = [_index(header, name, "column") for name in columns]
        date_pos = None if date is None else _index(header, date, "date column")
        values = _read_values(fh, usecols)
    stamps = None
    if values is not None and date_pos is not None:
        with open(path, newline="", encoding="utf-8") as fh:
            stamps = [_cell(raw, date_pos)
                      for raw in _records(fh, config.skip_rows)[0] if raw]
    if values is None:
        values, stamps = _parse_cells(path, config.skip_rows, columns, usecols,
                                      date_pos)
    return MultivariateSeries(
        values,
        labels=columns,
        timestamps=None if stamps is None else tuple(stamps),
        _fresh=True,
    )


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


def _parse_cells(path, skip_rows, columns, usecols, date_pos):
    """Parse the selected cells one by one with ``float``: the reference
    reader, and the one that raises the typed errors with row and column."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader, _ = _records(fh, skip_rows)
        rows = []
        stamps = [] if date_pos is not None else None
        for i, raw in enumerate(reader, start=1):
            if not raw:  # blank line
                continue
            vals = []
            for name, j in zip(columns, usecols):
                cell = _cell(raw, j)
                try:
                    x = float(cell)  # float('') raises, so empty cells land here
                except ValueError:
                    raise NonNumericCell(i, name, cell) from None
                if not math.isfinite(x):
                    raise NonFinite(i, name)
                vals.append(x)
            rows.append(vals)
            if stamps is not None:
                stamps.append(_cell(raw, date_pos))
    if len(rows) < 2:
        raise TooShort(f"{len(rows)} data row(s); need at least 2")
    return np.array(rows, dtype=np.float64), stamps


_CHUNK_ROWS = 10_000


def _write_table(path, header, columns, first=None) -> None:
    """Write a CSV table: the header, then the rows of ``columns`` (1-D or
    2-D float arrays of equal length, side by side) at 17 significant digits,
    so a reload round-trips every value exactly. ``first`` is an optional
    leading column of strings (row timestamps).

    Quoting and line ends are csv.writer's. Floats never need quoting, so
    they are formatted a chunk of rows at a time; the columns are stacked per
    chunk too, so no copy of the whole table is made."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for lo in range(0, len(columns[0]), _CHUNK_ROWS):
            chunk = np.column_stack([c[lo:lo + _CHUNK_ROWS] for c in columns])
            rows, width = chunk.shape
            cells = tuple(chunk.ravel().tolist())
            if first is None:
                line = ",".join(["%.17g"] * width) + "\r\n"
                fh.write((line * rows) % cells)
            else:
                fields = (("%.17g " * len(cells)) % cells).split()
                stamps = first[lo:lo + _CHUNK_ROWS]
                by_column = (fields[j::width] for j in range(width))
                writer.writerows(zip(stamps, *by_column))


def write_csv(series: MultivariateSeries, path) -> None:
    """Write a series as CSV with full float precision (17 significant
    digits), so a subsequent load_csv round-trips the values exactly."""
    labels = tuple(series.labels or (f"x{j}" for j in range(series.d)))
    if series.timestamps is None:
        _write_table(path, labels, [series.values])
    else:
        _write_table(path, ("date",) + labels, [series.values], series.timestamps)


def center(series: MultivariateSeries) -> CenteredSeries:
    """Subtract the column means. Column sums of the result vanish to within
    accumulated roundoff (well under 1e-9 per row)."""
    mean = series.values.mean(axis=0)
    return CenteredSeries(series.values - mean, mean)

