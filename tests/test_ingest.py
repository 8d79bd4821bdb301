"""Differential tests of CSV ingest.

``load_csv`` parses values with numpy's C reader and falls back to the
per-cell ``float`` parser when that reader fails, meets a non-finite value
or finds fewer than 2 rows.  Each case here loads one file both ways: as
``load_csv`` does, and with the fast reader switched off, so the per-cell
parser reads everything.  The two must agree bit for bit, or raise the same
typed error with the same row and column.
"""

import tracemalloc

import numpy as np
import pytest

from mvcusum import cli, series
from mvcusum.errors import ToolkitError
from mvcusum.series import IngestConfig, MultivariateSeries, load_csv, write_csv


def _outcome(path, config):
    try:
        s = load_csv(path, config)
    except ToolkitError as exc:
        return (type(exc).__name__, getattr(exc, "row", None),
                getattr(exc, "column", None), str(exc))
    return s.values.tobytes(), s.values.shape, s.labels


def _count_fallbacks(monkeypatch):
    calls = []
    parse = series._parse_cells

    def counted(*args):
        calls.append(args)
        return parse(*args)

    monkeypatch.setattr(series, "_parse_cells", counted)
    return calls


# (id, file text, columns, extra IngestConfig fields, whether the per-cell
# parser must run, and the expected outcome's first element)
CASES = [
    ("signs-exponents", "a,b\n+1E+5,-2e-3\n1e5,+0.5\n-.5,5.\n", ["a", "b"], {},
     False, None),
    ("underscore", "a,b\n1_000,2\n3,4\n", ["a", "b"], {}, True, None),
    ("padded-and-quoted", 'a,b\n 1.5 ,"2"\n"3" ,\t4\t\n', ["a", "b"], {},
     False, None),
    ("nan", "a,b\n1,2\n3,nan\n", ["a", "b"], {}, True, "NonFinite"),
    ("infinity", "a\n1\n-infinity\n2\n", ["a"], {}, True, "NonFinite"),
    ("overflow-to-inf", "a\n1\n1e400\n", ["a"], {}, True, "NonFinite"),
    ("empty-cell", "a,b\n1,\n3,4\n", ["a", "b"], {}, True, "NonNumericCell"),
    ("whitespace-cell", "a,b\n1,2\n3, \n", ["a", "b"], {}, True,
     "NonNumericCell"),
    ("whitespace-line", "a\n1\n  \n2\n", ["a"], {}, True, "NonNumericCell"),
    ("ragged-short-row", "a,b\n1,2\n3\n5,6\n", ["a", "b"], {}, True,
     "NonNumericCell"),
    ("extra-columns", "a,b\n1,2,9\n3,4\n5,6,7,8\n", ["a", "b"], {}, False,
     None),
    ("garbage-unselected", 'a,b,c\n1,junk,"x,y"\n2,,#\n', ["a"], {}, False,
     None),
    ("crlf-trailing-blank-lines", "a,b\r\n1,2\r\n3,4\r\n\r\n\r\n", ["a", "b"],
     {}, False, None),
    ("interior-blank-lines", "a,b\n1,2\n\n3,4\n\n5,6\n", ["a", "b"], {}, False,
     None),
    ("bad-cell-after-blank-line", "a\n1\n\nx\n", ["a"], {}, True,
     "NonNumericCell"),
    ("hash-in-selected-cell", "a,b\n1,2#3\n3,4\n", ["a", "b"], {}, True,
     "NonNumericCell"),
    ("hash-in-unselected-cell", "a,b\n1,#\n2,# c\n", ["a"], {}, False, None),
    ("quoted-newline-in-skipped-row", '"x\ny",z\na,b\n1,2\n3,4\n', ["a", "b"],
     {"skip_rows": 1}, False, None),
    ("quoted-newline-in-data-cell", 'a,b\n"1\n",2\n3,4\n', ["a", "b"], {},
     False, None),
    ("one-column", "x\n1.0\n2.0\n3.0\n", ["x"], {}, False, None),
    ("exactly-two-rows", "a,b\n1,2\n3,4\n", ["b", "a"], {}, False, None),
    ("one-row", "a,b\n1,2\n", ["a", "b"], {}, True, "TooShort"),
    ("header-only", "a,b\n", ["a", "b"], {}, True, "TooShort"),
    ("non-ascii-digits", "a\n١\n２\n", ["a"], {}, True, None),
    ("date-column", 'date,a\n"2020-01-01",1\n 2020-01-02 ,2\n\n2020-01-03\n',
     ["a"], {"date_column": "date"}, True, "NonNumericCell"),
    ("date-column-clean", 'date,a\n"2020-01-01",1\n 2020-01-02 ,2\n',
     ["a"], {"date_column": "date"}, False, None),
    ("duplicate-column", "a,b\n1,2\n3,4\n", ["b", "b", "a"], {}, False, None),
    ("all-but-date-column", 'a,Date,b\n1,"2020-01-01",2\n3,x,4\n', [], {},
     False, None),
    ("no-header", "", ["a"], {}, False, "MissingColumn"),
]


@pytest.mark.parametrize("text, columns, extra, falls_back, first",
                         [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_load_csv_matches_per_cell_parser(tmp_path, monkeypatch, recwarn, text,
                                          columns, extra, falls_back, first):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    config = IngestConfig(columns=columns, **extra)

    fallbacks = _count_fallbacks(monkeypatch)
    fast = _outcome(path, config)
    assert len(fallbacks) == int(falls_back)
    assert not recwarn.list  # numpy's no-data warning must not leak

    monkeypatch.setattr(series, "_read_values", lambda fh, usecols: None)
    reference = _outcome(path, config)
    assert fast == reference
    if first is None:
        assert isinstance(fast[0], bytes), fast
    else:
        assert fast[0] == first


def test_clean_file_never_reaches_per_cell_parser(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("per-cell parser called on a clean file")

    monkeypatch.setattr(series, "_parse_cells", refuse)
    x = np.random.default_rng(23).normal(size=(500, 3)) * [1e-9, 1.0, 1e12]
    lines = ["date,a,b,c"] + [f'"2021-01-01 {i:05d}",' + ",".join(map(repr, row))
                              for i, row in enumerate(x.tolist())]
    (tmp_path / "clean.csv").write_text("\n".join(lines) + "\n")
    s = load_csv(tmp_path / "clean.csv",
                 IngestConfig(columns=("c", "a"), date_column="date"))
    np.testing.assert_array_equal(s.values, x[:, [2, 0]])


def test_load_csv_peak_memory_is_one_copy(tmp_path):
    # the parsed array becomes the series' array; it is not copied again
    x = np.random.default_rng(29).normal(size=(200_000, 5))
    write_csv(MultivariateSeries(x), tmp_path / "big.csv")
    config = IngestConfig(columns=[f"x{j}" for j in range(5)])
    tracemalloc.start()
    try:
        s = load_csv(tmp_path / "big.csv", config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.values.shape == (200_000, 5)
    assert peak < 1.5 * x.nbytes


def test_cli_reads_the_header_once(tmp_path, monkeypatch, capsys):
    x = np.random.default_rng(31).normal(size=(64, 2))
    write_csv(MultivariateSeries(x), tmp_path / "in.csv")
    calls = []
    records = series._records

    def counted(fh, skip_rows):
        calls.append(skip_rows)
        return records(fh, skip_rows)

    monkeypatch.setattr(series, "_records", counted)
    assert cli.main(["detect", str(tmp_path / "in.csv")]) == 0
    assert calls == [0]


def test_constructor_copies_the_callers_array():
    x = np.arange(6.0).reshape(3, 2)
    s = MultivariateSeries(x)
    x[0, 0] = 99.0
    assert s.values[0, 0] == 0.0
    assert x.flags.writeable and not s.values.flags.writeable
