"""Core series types, CSV ingestion, and centering.

The observation container is a plain T x d float matrix with optional column
labels and row timestamps. CSV dialect is fixed: comma separated, first row
(after ``skip_rows``) is the header, '.' decimal separator, UTF-8. Missing
values are rejected, never imputed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
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


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, copy=True)
    if out.ndim == 1:
        out = out[:, None]
    return _frozen(out)


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
    """

    values: np.ndarray
    labels: Optional[tuple] = None
    timestamps: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
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
    timestamps. skip_rows: lines to drop before the header row.
    """

    columns: Sequence[str]
    date_column: Optional[str] = None
    skip_rows: int = 0


def load_csv(path, config: IngestConfig) -> MultivariateSeries:
    """Load selected numeric columns of a CSV file.

    Parameters
    ----------
    path : path-like
        CSV file: comma separated, header row, '.' decimals, UTF-8.
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
    """
    if not config.columns:
        raise MissingColumn("no columns requested")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for _ in range(config.skip_rows):
            next(reader, None)
        header = next(reader, None)
        if header is None:
            raise TooShort("file has no header row")
        header = [h.strip() for h in header]
        pos = {}
        for name in config.columns:
            if name not in header:
                raise MissingColumn(f"column {name!r} not in header {header}")
            pos[name] = header.index(name)
        date_pos = None
        if config.date_column is not None:
            if config.date_column not in header:
                raise MissingColumn(
                    f"date column {config.date_column!r} not in header {header}"
                )
            date_pos = header.index(config.date_column)

        rows = []
        stamps = [] if date_pos is not None else None
        for i, raw in enumerate(reader, start=1):
            if not raw:  # blank trailing line
                continue
            vals = []
            for name in config.columns:
                j = pos[name]
                cell = raw[j].strip() if j < len(raw) else ""
                try:
                    x = float(cell)  # float('') raises, so empty cells land here
                except ValueError:
                    raise NonNumericCell(i, name, cell) from None
                if not math.isfinite(x):
                    raise NonFinite(i, name)
                vals.append(x)
            rows.append(vals)
            if stamps is not None:
                stamps.append(raw[date_pos].strip() if date_pos < len(raw) else "")

    if len(rows) < 2:
        raise TooShort(f"{len(rows)} data row(s); need at least 2")
    return MultivariateSeries(
        np.array(rows, dtype=np.float64),
        labels=tuple(config.columns),
        timestamps=tuple(stamps) if stamps is not None else None,
    )


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

