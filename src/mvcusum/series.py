"""The series type, CSV ingestion and writing, and centering.

The observation container is a plain T x d float matrix with optional column
labels; a row is known by its index only. CSV dialect is fixed: comma
separated, '"' quoting, no comment character, the first record after
``skip_rows`` records is the header, '.' decimal separator, UTF-8. A date
column is left out of the values and never read. Missing values are
rejected, never imputed.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import os
import shutil
import tempfile
import warnings
from dataclasses import InitVar, dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DomainError,
    MissingColumn,
    NonFinite,
    NonNumericCell,
    TooShort,
    _ENCODING,
    _check_skip_rows,
    _open_text,
)

__all__ = [
    "MultivariateSeries",
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
        if columns.count(name) > 1:
            raise DomainError(f"{path}: column {name!r} is selected "
                              f"{columns.count(name)} times")
        if name == date_column:
            raise DomainError(f"{path}: column {name!r} is the date column")
    if date_column is not None:
        _index(path, header, date_column, "date column")
    return columns, usecols


def _records(fh, skip_rows):
    """A csv.reader over fh past the skipped records and the header row,
    and the stripped header (None when the file ends first). Records, not
    lines, are counted, so a quoted newline does not shift the header; the
    skipping stops at the end of the file."""
    reader = csv.reader(fh)
    for _ in range(skip_rows):
        if next(reader, None) is None:
            break
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
        The numeric columns to load, in output order, each named once here
        and once in the header, and none of them ``date_column``; empty
        means every column but the date column.
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
    FileNotFoundError
        No file at ``path``: ``no such input file: <path>``.
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
        the header or in ``columns``, a selected name is ``date_column``,
        or the file is not UTF-8.

    Notes
    -----
    The path is opened once. A pipe or FIFO, which cannot be rewound, is
    first copied byte for byte into a temporary file, and then read like a
    file. A file of plain numbers (see `_parse_plain`) is read from the
    handle the header was read from. Any other file is read again from its
    start by numpy's C reader. A file that reader cannot read in full, or
    whose values are not all finite, or that has fewer than 2 rows is read
    once more cell by cell with Python's ``float``, which accepts a few more
    spellings (``1_000``, non-ASCII digits) and names the row and column of
    a bad cell. All three give every value the bits that ``float`` gives it.
    """
    _check_skip_rows(skip_rows)
    with _open_text(path, DomainError, newline="") as raw:
        fh = raw if raw.seekable() else io.TextIOWrapper(
            tempfile.TemporaryFile(), encoding=_ENCODING, newline="")
        with fh:
            if fh is not raw:  # as bytes: decoding, and naming a bad byte, stay here
                shutil.copyfileobj(raw.buffer, fh.buffer)
                fh.seek(0)
            _, header = _records(fh, skip_rows)
            columns, usecols = _pick(path, header, columns, date_column)
            values = _read_values(fh, skip_rows, len(header), usecols)
            if values is None:
                values = _parse_cells(fh, skip_rows, columns, usecols)
    return MultivariateSeries(values, labels=columns, _fresh=True)


def _read_values(fh, skip_rows, width, usecols):
    """The selected columns of the data rows left in fh, which follow a
    header of ``width`` names; None unless every value is finite and there
    are at least 2 rows. `_read_plain` reads them unless a line is outside
    its grammar; then numpy's C reader reads the file again from the header
    on. fh is seekable: `load_csv` has copied a pipe or FIFO to a file.
    ``comments=None``: the default '#' would cut a line short silently."""
    values = _read_plain(fh, width, usecols)
    if values is None:
        fh.seek(0)
        _records(fh, skip_rows)
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


_PLAIN_CHUNK = 1 << 17  # characters a chunk; its temporaries count in the peak


def _read_plain(fh, width, usecols):
    """The selected columns of the data rows left in fh, parsed by
    `_parse_plain` a chunk of whole lines at a time into one array sized
    from the file's length; None as soon as a chunk is outside its grammar
    or the text is not ASCII."""
    out, rows, tail = None, 0, ""
    while True:
        try:
            text = tail + fh.read(_PLAIN_CHUNK)
        except UnicodeDecodeError:  # the reader that raises it names the byte
            return None
        end = len(text) < len(tail) + _PLAIN_CHUNK
        cut = len(text) if end else text.rfind("\n") + 1
        if not cut and not end:  # a line longer than a chunk
            tail = text
            continue
        text, tail = text[:cut], text[cut:]
        if end and text and not text.endswith("\n"):
            text += "\n"
        if not text.isascii():
            return None
        block = _parse_plain(text.encode("ascii"), width, usecols)
        if block is None:
            return None
        if out is None:
            size = os.fstat(fh.fileno()).st_size
            guess = int(size / max(len(text), 1) * len(block) * 1.02)
            out = np.empty((max(guess, len(block)), len(usecols)))
        if rows + len(block) > len(out):
            out.resize((max(int(len(out) * 1.5), rows + len(block)),
                        len(usecols)), refcheck=False)
        out[rows:rows + len(block)] = block
        rows += len(block)
        del text, block  # the peak holds one chunk's text and temporaries
        if end:
            out.resize((rows, len(usecols)), refcheck=False)
            return out


# `_digits` reads each digit run of a cell as up to three little-endian
# uint64 words of 8 bytes, the last ending where the run ends. A byte b is
# an ASCII digit when b & 0xF0 and (b + 6) & 0xF0 are both 0x30, and the
# three multiply steps of _SWAR turn 8 digits, the first in the low byte,
# into their value (Lemire 2021, Software: Practice and Experience 51(8)).
_HIGH = np.uint64(0xF0F0F0F0F0F0F0F0)
_SIX = np.uint64(0x0606060606060606)
_SWAR = [(np.uint64(8 * n), np.uint64(10 ** n), np.uint64(mask)) for n, mask in
         ((1, 0x00FF00FF00FF00FF), (2, 0x0000FFFF0000FFFF), (4, 0xFFFFFFFF))]
_PAD = 24  # zero bytes before a chunk, so the words of a run stay inside it


@functools.cache
def _digit_tables():
    """By word (0 the last) and run length: the mask of the word's bytes in
    the run, and those bytes all '0'; and 10**n by run length n, capped at
    10**19."""
    top = [[~((1 << 8 * (8 - min(max(n - 8 * k, 0), 8))) - 1) & (1 << 64) - 1
            for n in range(25)] for k in range(3)]
    top = np.array(top, np.uint64)
    ten = np.array([10 ** min(n, 19) for n in range(25)], np.uint64)
    return top, top & np.uint64(0x3030303030303030), ten


def _digits(words, end, length):
    """The value of each run of ``length`` bytes (at most 24) that ends
    before byte ``end`` of the bytes under ``words``, a stride-1 uint64
    view; whether each run is all ASCII digits; and whether its value
    reaches 10**19, where the value returned is not exact."""
    top, zeros, _ = _digit_tables()
    value = np.zeros(len(end), np.uint64)
    bad = np.zeros(len(end), np.uint64)  # bits of the bytes that are no digit
    wide = np.zeros(len(end), bool)
    for k in range(-(-int(length.max(initial=0)) // 8)):
        w = words[end - 8 * (k + 1)]
        w &= np.take(top[k], length)
        z = np.take(zeros[k], length)
        bad |= (w & _HIGH) ^ z
        bad |= ((w + _SIX) & _HIGH) ^ z
        w -= z
        for shift, scale, keep in _SWAR:
            high = w >> shift
            w *= scale
            w += high
            w &= keep
        if k == 2:
            wide = w >= 1000
        if k:
            w *= np.uint64(10 ** (8 * k))
        value += w
    return value, bad == 0, wide


def _in_field(sep, marks):
    """Per field ended at ``sep``, the position of a byte in ``marks`` that
    lies in it, or -1; of two in one field, either."""
    if len(marks) == len(sep) and (marks < sep).all() and (marks[1:] > sep[:-1]).all():
        return marks
    at = np.full(len(sep), -1)
    at[np.searchsorted(sep, marks)] = marks
    return at


def _parse_plain(data, width, usecols):
    """The ``usecols`` cells of the lines in ``data`` as float64, bit for bit
    what ``float`` gives each; None when data is outside the grammar.

    The grammar: ASCII with no '"'; lines of exactly ``width`` fields, each
    ended by LF or CRLF (no blank line); a selected field is at most 24
    bytes of ``[+-]?digits[.digits][(e|E)[+-]?digits]`` with at least one
    mantissa digit. Unselected fields are split, never read. A cell is
    read as its decimal digits and exponent (`_decimals`), then rounded
    (`_round_decimals`); the cells that leaves undecided go through
    ``float`` one by one (`_float_cells`)."""
    if not data:
        return np.empty((0, len(usecols)))
    cells = _decimals(data, width, usecols)
    if cells is None:
        return None
    D, k, slow, neg, start, end = cells
    r = _round_decimals(D, k, slow)
    np.negative(r, out=r, where=neg)
    i = np.flatnonzero(slow)
    if len(i):
        r[i] = _float_cells(data, start[i] - _PAD, end[i] - _PAD)
    return r.reshape(-1, len(usecols))


def _decimals(data, width, usecols):
    """Per selected cell in the lines of ``data``, in row order: its digits
    D as an integer, exact where it has at most 19 after any leading
    zeros, its decimal exponent k, whether it must go through ``float``
    (more digits, or an exponent of 5 digits or more), its sign, and where
    it starts and ends, counted from `_PAD` bytes before data; None when
    data is outside the grammar of `_parse_plain`."""
    if b'"' in data:
        return None
    buf = np.zeros(_PAD + len(data), np.uint8)
    buf[_PAD:] = np.frombuffer(data, np.uint8)
    words = np.ndarray((len(buf) - 7,), "<u8", buf, strides=(1,))
    sep = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    lines, cut = divmod(len(sep), width)
    newline = buf[sep] == ord("\n")
    if cut or not newline[width - 1::width].all() or newline.sum() != lines:
        return None
    dots = _in_field(sep, np.flatnonzero(buf == ord(".")))
    es = np.flatnonzero((buf | 32) == ord("e"))  # e or E
    es = _in_field(sep, es) if len(es) else None
    start = np.empty_like(sep)
    start[0] = _PAD
    np.add(sep[:-1], 1, out=start[1:])
    end = sep
    if list(usecols) != list(range(width)):
        start, end, dots = (x.reshape(lines, width)[:, usecols].ravel()
                            for x in (start, end, dots))
        if es is not None:
            es = es.reshape(lines, width)[:, usecols].ravel()
    if b"\r" in data:  # only as CR LF; a field before it ends at the CR
        if (buf[np.flatnonzero(buf == ord("\r")) + 1] != ord("\n")).any():
            return None
        end = end - (buf[end - 1] == ord("\r"))
    if (end - start > 24).any():
        return None

    c = buf[start]
    neg = c == ord("-")
    first = start + (neg | (c == ord("+")))
    mend = end if es is None else np.where(es >= 0, es, end)
    point = (dots >= first) & (dots < mend)
    iend = np.where(point, dots, mend)
    frac = mend - iend - point
    lead = iend - first
    if not (lead + frac).all():
        return None
    I, ok, wide = _digits(words, iend, lead)
    D, ok_f, wide_f = _digits(words, mend, frac)
    ok &= ok_f
    # at most 19 digits after the leading zeros: D is exact
    slow = np.where(I == 0, wide | wide_f, lead + frac > 19)
    I *= np.take(_digit_tables()[2], frac)
    D += I
    k = -frac
    if es is not None:
        i = np.flatnonzero(es >= 0)
        x0 = es[i] + 1
        c = buf[x0]
        xneg = c == ord("-")
        x0 += xneg | (c == ord("+"))
        size = end[i] - x0
        if not size.all():
            return None
        X, ok_x, _ = _digits(words, end[i], size)
        ok[i] &= ok_x
        X = X.astype(np.int64)
        k[i] += np.where(xneg, -X, X)
        slow[i] |= size > 4
    if not ok.all():
        return None
    # D * 10**k < 10**(lead + frac + k) <= 1e300 keeps `_times_power` finite
    slow |= (k < _POWERS[0]) | (k > _POWERS[1]) | (lead + frac + k > 300)
    return D, k, slow, neg, start, end


def _round_decimals(D, k, slow):
    """D * 10**k rounded to the nearest double, for the uint64 D and int
    k; ``slow`` (updated in place) marks the values it leaves undecided.

    D = A + B, with A = float(D) and |B| <= 2**11 exact, and A * 10**k =
    p + t (`_times_power`, within about 2**-100 relative); with t += B * hi
    the sum p + t is within about 2**-94 of D * 10**k, relative, or 2**-42
    of an ulp. So r = fl(p + t) is the nearest double unless the rest
    (p - r) + t lies within 2**-30 ulp of half the gap to r's neighbour
    above, or below, which is narrower at a power of two, or r leaves
    [1e-290, 1e300). Zeros are exact whatever k is."""
    zero = (D == 0) & ~slow
    D = np.where(slow, 0, D)  # not exact: may not even convert back
    k = np.where(slow | zero, 0, k)
    A = D.astype(np.float64)
    B = (D - A.astype(np.uint64)).view(np.int64).astype(np.float64)
    powers = _format_tables()["powers"]
    p, t = _times_power(A, k, powers)
    t += B * np.take(powers[0], k - _POWERS[0])
    r = p + t
    rest = (p - r) + t
    bits = r.view(np.uint64)
    ulp = ((np.maximum(bits >> np.uint64(52), 53) - np.uint64(52))
           << np.uint64(52)).view(np.float64)
    band = ulp * 2.0 ** -30
    low = ((bits & np.uint64((1 << 52) - 1)) == 0) & (rest < 0)
    rest = np.abs(rest)
    slow |= np.abs(rest - 0.5 * ulp) <= band
    slow |= low & (np.abs(rest - 0.25 * ulp) <= band)
    slow |= (r < 1e-290) | (r >= 1e300)
    slow &= ~zero
    r[zero] = 0.0
    return r


def _float_cells(data, start, end):
    """``float`` of each cell data[start:end], the reference `_parse_plain`
    rounds against."""
    return [float(data[s:e]) for s, e in zip(start.tolist(), end.tolist())]


def _parse_cells(fh, skip_rows, columns, usecols):
    """Parse the selected cells of the seekable text handle fh, from its
    start, one by one with ``float``: the reference reader, and the one that
    raises the typed errors with row and column."""
    fh.seek(0)
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


_CHUNK_ROWS = 2_000  # the kernel's arrays stay in cache: 2x slower at 10,000 rows


def _write_table(path, header, blocks) -> None:
    """Write a CSV table: the header, then the rows of each block (a list of
    1-D or 2-D float arrays of equal length, side by side) at 17 significant
    digits, so a reload round-trips every value exactly.

    The header goes through csv.writer, for its quoting and line ends.
    Floats never need quoting, so the rows are formatted a chunk at a time
    by `_format_rows`; the columns are stacked per chunk too, so no copy of
    the whole table is made."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for columns in blocks:
            for lo in range(0, len(columns[0]), _CHUNK_ROWS):
                chunk = np.column_stack([c[lo:lo + _CHUNK_ROWS] for c in columns])
                fh.write(_format_rows(chunk))


def _format_rows_percent(chunk) -> str:
    """The rows of a 2-D array as CSV lines: each value as ``'%.17g'``
    prints it, comma separated, each row ended by CRLF. The reference for
    `_format_rows`, and its path for a chunk that holds a nan or an inf."""
    rows, width = chunk.shape
    line = ",".join(["%.17g"] * width) + "\r\n"
    return (line * rows) % tuple(chunk.ravel().tolist())


# `_format_rows` forms the 17 significant digits D and the decimal exponent
# X of every value in numpy, then lays out its text in six little-endian
# uint64 words of byte slots: [sign, '0.000' prefix, lead digit, point],
# 16 [digit, point] pairs, and [exponent, separator]. A slot where nothing
# prints holds NUL, and one bytes.translate per chunk drops the NULs.
_POWERS = (-280, 300)  # the exponents k of the 10**k table
_EXPONENTS = (-324, 308)  # every decimal exponent of a finite double
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for 53-bit doubles


@functools.cache
def _format_tables():
    """The kernel's lookup tables, built on its first call in a process."""
    # 10**k = hi + lo, each correctly rounded (CPython rounds int / int and
    # int -> float correctly), with hi's two Veltkamp halves
    hi, lo = [], []
    for k in range(_POWERS[0], _POWERS[1] + 1):
        if k >= 0:
            h = float(10 ** k)
            lo.append(float(10 ** k - int(h)))
        else:
            h = 1 / 10 ** -k
            num, den = h.as_integer_ratio()
            lo.append((den - num * 10 ** -k) / (den * 10 ** -k))
        hi.append(h)
    hi = np.array(hi)
    c = _SPLIT * hi
    head = c - (c - hi)
    powers = np.stack([hi, head, hi - head, lo])

    # digits[g]: the four digits of g, each with a '.' slot after it;
    # last[j, g]: the place (1-16) of the last nonzero digit of g as the
    # j-th group of four after the lead digit, 0 for g = 0
    g = np.arange(10_000, dtype=np.int16)
    groups = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], 1)
    digits = np.full((10_000, 8), ord("."), np.uint8)
    digits[:, 0::2] = groups + ord("0")
    nz = groups != 0
    last = np.where(nz[:, 3], 4, np.where(nz[:, 2], 3, np.where(nz[:, 1], 2, 1)))
    last = (last.astype(np.int8) + np.arange(0, 16, 4, dtype=np.int8)[:, None]) * (g > 0)
    # lead[d]: word 0 with every slot filled, d as the lead digit
    lead = np.frombuffer(b"-0.000d." * 10, np.uint8).reshape(10, 8).copy()
    lead[:, 6] = np.arange(10) + ord("0")

    # per exponent X: the notation class (0: exponential, X + 5 for the
    # fixed notation of -4 <= X <= 16), the digits the integer part prints
    # after the lead, and the exponent's text
    X = np.arange(_EXPONENTS[0], _EXPONENTS[1] + 1)
    fixed = (X >= -4) & (X <= 16)
    notation = np.where(fixed, X + 5, 0)
    integer = np.where(fixed, np.clip(X, 0, 16), 0).astype(np.int8)
    exponent = np.array([b"" if f else b"e%+03d" % x
                         for x, f in zip(X.tolist(), fixed.tolist())], "S8")

    # mask[c]: 0xFF on the slots of words 0-4 that print, for
    # c = (notation * 17 + keep) * 2 + sign, where keep is the number of
    # digits printed after the lead digit
    Xc = np.arange(-5, 17)[:, None, None, None]  # -5 stands for exponential
    keep = np.arange(17)[:, None, None]
    sign = np.arange(2)[:, None]
    slot = np.arange(40)
    place = (slot - 6) // 2  # the digit a slot holds, or follows
    point = np.where(Xc == -5, 0, np.where(Xc < 0, -1, Xc))  # the digit before '.'
    show = np.where(slot == 0, sign == 1,
           np.where(slot < 6, (-4 <= Xc) & (Xc < 0) & (slot <= 1 - Xc),
           np.where(slot % 2 == 0, place <= keep,
                    (place == point) & (place < keep))))
    mask = np.where(show, np.uint8(0xFF), np.uint8(0)).reshape(-1, 40)
    return dict(powers=powers, digits=digits.view("<u8")[:, 0], last=last,
                lead=lead.view("<u8")[:, 0], notation=notation,
                integer=integer, exponent=exponent.view("<u8"),
                mask=np.ascontiguousarray(mask.view("<u8").T))


def _times_power(a, k, powers):
    """a * 10**k as p + t for positive a: p = fl(a * hi) and t the rest.
    Dekker's product makes p + t equal a * hi exactly, so t is exact where
    10**k is a double (0 <= k <= 22), and within 1e-14 of the rest
    otherwise, wherever a * 10**k lies in [1e16, 1e17). There p is an even
    integer, as every double from 2**53 up is."""
    hi, head, tail, lo = np.take(powers, k - _POWERS[0], axis=1)
    c = _SPLIT * a
    a_head = c - (c - a)
    a_tail = a - a_head
    p = a * hi
    t = a_head * head - p
    t += a_head * tail
    t += a_tail * head
    t += a_tail * tail
    t += a * lo
    return p, t


def _off_range(p, t):
    """+1 where p + t >= 1e17, -1 where it is below 1e16, else 0."""
    return ((p - 1e17) + t >= 0).view(np.int8) - ((p - 1e16) + t < 0).view(np.int8)


def _format_rows(chunk) -> str:
    """The text of `_format_rows_percent(chunk)` for a 2-D float64 array.

    Let E = floor(log10|x|), moved by one where |x| * 10**(16-E) falls
    outside [1e16, 1e17). That product is p + t (`_times_power`), its rest t
    within 1e-14 of exact, so D = p + rint(t) are the 17 digits that
    CPython's correctly rounded dtoa prints, unless t lies within 1e-9 of a
    half (exact ties included). Such undecided values, and those outside
    [1e-275, 1e290), where the powers or products would leave the normal
    double range, take D and E from ``'%.16e'``; zeros are set apart."""
    rows, width = chunk.shape
    x = np.asarray(chunk, np.float64).ravel()
    a = np.abs(x)
    slow = ~((a >= 1e-275) & (a < 1e290))
    if slow.any():
        if not np.isfinite(x[slow]).all():
            return _format_rows_percent(chunk)
        a[slow] = 1.0
    T = _format_tables()
    E = np.floor(np.log10(a)).astype(np.intp)
    p, t = _times_power(a, 16 - E, T["powers"])
    off = _off_range(p, t)
    moved = np.flatnonzero(off)
    if len(moved):  # log10 was one off, next to a power of ten
        E[moved] += off[moved]
        p[moved], t[moved] = _times_power(a[moved], 16 - E[moved], T["powers"])
        slow[moved] |= _off_range(p[moved], t[moved]) != 0
    r = np.rint(t)
    slow |= np.abs(np.abs(t - r) - 0.5) < 1e-9
    D = p.astype(np.int64)
    D += r.astype(np.int64)
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    E += carry
    zero = x == 0
    D[zero] = E[zero] = 0
    for j in np.flatnonzero(slow & ~zero):
        s = "%.16e" % abs(x[j])
        D[j], E[j] = int(s[0] + s[2:18]), int(s[19:])

    lead = D // 10 ** 16
    rest = D - lead * 10 ** 16
    upper = rest // 10 ** 8
    lower = rest - upper * 10 ** 8
    g1, g3 = upper // 10 ** 4, lower // 10 ** 4
    groups = (g1, upper - g1 * 10 ** 4, g3, lower - g3 * 10 ** 4)
    L = T["last"]
    last = np.maximum(np.maximum(np.take(L[0], groups[0]), np.take(L[1], groups[1])),
                      np.maximum(np.take(L[2], groups[2]), np.take(L[3], groups[3])))
    X = E - _EXPONENTS[0]
    c = np.take(T["notation"], X) * 34
    c += np.maximum(last, np.take(T["integer"], X)) * 2
    c += np.signbit(x)

    words = np.empty((6, len(x)), "<u8")
    mask = T["mask"]
    np.take(T["lead"], lead, out=words[0])
    words[0] &= np.take(mask[0], c)
    for j, g in enumerate(groups, start=1):
        np.take(T["digits"], g, out=words[j])
        words[j] &= np.take(mask[j], c)
    np.take(T["exponent"], X, out=words[5])
    ends = np.full(width, ord(",") << 40, "<u8")
    ends[-1] = int.from_bytes(b"\r\n", "little") << 40
    words[5].reshape(rows, width)[:] |= ends
    return words.T.tobytes().translate(None, b"\0").decode("ascii")


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

