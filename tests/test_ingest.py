"""Differential tests of CSV ingest.

``load_csv`` reads a file of plain numbers with its own reader, any other
file with numpy's C reader, and falls back to the per-cell ``float`` parser
when that reader fails, meets a non-finite value or finds fewer than 2
rows.  A pipe or FIFO is copied once to a temporary file and then read the
same way.  Each case here loads one file both ways: as ``load_csv`` does,
and with the fast readers switched off, so the per-cell parser reads
everything.  The two must agree bit for bit, or raise the same typed error
with the same row and column; the same bytes read through a pipe must do
the same.
"""

import contextlib
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mvcusum import cli, series
from mvcusum.errors import ToolkitError
from mvcusum.series import MultivariateSeries, load_csv, write_csv


def _outcome(path, columns, extra):
    try:
        s = load_csv(path, columns, **extra)
    except ToolkitError as exc:
        return (type(exc).__name__, getattr(exc, "row", None),
                getattr(exc, "column", None), str(exc))
    return s.values.tobytes(), s.values.shape, s.labels


@contextlib.contextmanager
def _piped(data):
    """A path to the read end of a pipe that a thread fills with ``data``,
    so that inputs larger than the pipe's buffer get through."""
    r, w = os.pipe()

    def write():
        try:
            with open(w, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:  # the reader stopped early
            pass

    writer = threading.Thread(target=write)
    writer.start()
    try:
        yield f"/dev/fd/{r}"
    finally:
        os.close(r)
        writer.join()


def _count_fallbacks(monkeypatch):
    calls = []
    parse = series._parse_cells

    def counted(*args):
        calls.append(args)
        return parse(*args)

    monkeypatch.setattr(series, "_parse_cells", counted)
    return calls


# (id, file text, columns, other load_csv arguments, whether the per-cell
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
    # a name selected twice would read one column in two places
    ("duplicate-column", "a,b\n1,2\n3,4\n", ["b", "b", "a"], {}, False,
     "DomainError"),
    ("all-but-date-column", 'a,Date,b\n1,"2020-01-01",2\n3,x,4\n', [], {},
     False, None),
    ("no-header", "", ["a"], {}, False, "MissingColumn"),
    # a selected name must appear once in the header; others may repeat
    ("repeated-name-default", "a,a,b\n1,2,3\n4,5,6\n", [], {}, False,
     "DomainError"),
    ("repeated-name-selected", "a,a,b\n1,2,3\n4,5,6\n", ["a"], {}, False,
     "DomainError"),
    ("repeated-name-unselected", "a,a,b\n1,2,3\n4,5,6\n", ["b"], {}, False,
     None),
    ("repeated-date-column", "date,a,date\nx,1,y\nz,2,w\n", [], {}, False,
     None),
    # the edges of the plain-number reader's grammar
    ("field-24-bytes", "a,b\n-1.2345678901234567e-100,1\n2,3\n", ["a", "b"],
     {}, False, None),
    ("field-25-bytes", "a,b\n-1.23456789012345678e-100,1\n2,3\n", ["a", "b"],
     {}, False, None),
    ("twenty-decimals", "a\n0.00012345678901234567\n1\n", ["a"], {}, False,
     None),
    ("huge-exponent", "a\n9.9e+265\n7.2e-35\n", ["a"], {}, False, None),
    ("subnormal", "a\n1e-320\n1\n", ["a"], {}, False, None),
    ("negative-zero", "a,b\n-0,1\n0,-0.0\n", ["a", "b"], {}, False, None),
    ("no-final-newline", "a,b\n1,2\n3,4", ["a", "b"], {}, False, None),
    ("crlf-quoted-last-line", 'a,b\r\n1,2\r\n3,"4"\r\n', ["a", "b"], {},
     False, None),
]


@pytest.mark.parametrize("text, columns, extra, falls_back, first",
                         [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_load_csv_matches_per_cell_parser(tmp_path, monkeypatch, recwarn, text,
                                          columns, extra, falls_back, first):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    fallbacks = _count_fallbacks(monkeypatch)
    fast = _outcome(path, columns, extra)
    assert len(fallbacks) == int(falls_back)
    assert not recwarn.list  # numpy's no-data warning must not leak
    with _piped(text.encode("utf-8")) as piped:
        # the value bits, or the error's type, row and column; the message
        # of some errors names the path
        assert _outcome(piped, columns, extra)[:3] == fast[:3]

    monkeypatch.setattr(series, "_read_values", lambda *args: None)
    reference = _outcome(path, columns, extra)
    assert fast == reference
    if first is None:
        assert isinstance(fast[0], bytes), fast
    else:
        assert fast[0] == first


def test_a_fifo_with_a_bad_cell_is_reported(tmp_path):
    # in a child process, so a read that blocks fails the test, not the suite
    fifo = tmp_path / "in.fifo"
    os.mkfifo(fifo)
    script = """if True:
        import sys, threading
        from mvcusum.errors import ToolkitError
        from mvcusum.series import load_csv

        def write():
            with open(sys.argv[1], "w") as fh:
                fh.write("a,b\\n1,2\\n3,x\\n5,6\\n")

        threading.Thread(target=write, daemon=True).start()
        try:
            load_csv(sys.argv[1])
        except ToolkitError as exc:
            print(type(exc).__name__, getattr(exc, "row", None),
                  getattr(exc, "column", None))
    """
    src = str(Path(series.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run([sys.executable, "-c", script, str(fifo)], env=env,
                            capture_output=True, text=True, timeout=30)
    assert (result.returncode, result.stdout) == (0, "NonNumericCell 2 b\n"), result.stderr


def test_clean_file_never_reaches_per_cell_parser(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("per-cell parser called on a clean file")

    monkeypatch.setattr(series, "_parse_cells", refuse)
    x = np.random.default_rng(23).normal(size=(500, 3)) * [1e-9, 1.0, 1e12]
    lines = ["date,a,b,c"] + [f'"2021-01-01 {i:05d}",' + ",".join(map(repr, row))
                              for i, row in enumerate(x.tolist())]
    (tmp_path / "clean.csv").write_text("\n".join(lines) + "\n")
    s = load_csv(tmp_path / "clean.csv", ("c", "a"), date_column="date")
    np.testing.assert_array_equal(s.values, x[:, [2, 0]])


def test_plain_files_never_reach_numpys_reader(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.loadtxt called on a plain file")

    x = np.random.default_rng(37).normal(size=(3_000, 3)) * [1e-5, 1.0, 1e9]
    write_csv(MultivariateSeries(x), tmp_path / "written.csv")  # CRLF
    lines = ["a,b,c"] + [",".join("%.17g" % v for v in row) for row in x]
    (tmp_path / "lf.csv").write_text("\n".join(lines) + "\n")
    lines = ["Date,a,b,c"] + [f"2021-Dec-{i % 28 + 1:02d}," + line
                              for i, line in enumerate(lines[1:])]
    (tmp_path / "dated.csv").write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(np, "loadtxt", refuse)
    monkeypatch.setattr(series, "_PLAIN_CHUNK", 8192)  # many chunks
    for name in ("written", "lf", "dated"):
        s = load_csv(tmp_path / f"{name}.csv")
        np.testing.assert_array_equal(s.values, x)


def test_a_line_longer_than_a_chunk_is_read_whole(tmp_path, monkeypatch):
    # two unselected 70,000-character fields make the first data line longer
    # than one read: it is carried into the next, so the plain reader is
    # handed whole lines only, and the values are the per-cell parser's
    wide = "7" * 70_000
    text = f"a,b,c,d\n1.5,{wide},{wide},-2\n3,4,5,6e-3\n"
    assert len(text) > series._PLAIN_CHUNK
    path = tmp_path / "in.csv"
    path.write_text(text)
    handed = []
    parse = series._parse_plain

    def recorded(data, width, usecols):
        handed.append(data)
        return parse(data, width, usecols)

    monkeypatch.setattr(series, "_parse_plain", recorded)
    fallbacks = _count_fallbacks(monkeypatch)
    fast = _outcome(path, ["a", "d"], {})
    assert handed and all(data.endswith(b"\n") for data in handed)
    assert not fallbacks
    monkeypatch.setattr(series, "_read_values", lambda *args: None)
    assert fast == _outcome(path, ["a", "d"], {})
    assert fast[1] == (2, 2)


def test_a_quote_after_many_chunks_rereads_the_file(tmp_path, monkeypatch):
    # the lines read before the quote are read again, not kept twice
    x = np.random.default_rng(41).normal(size=(2_000, 2))
    lines = ["a,b"] + [",".join(map(repr, row)) for row in x.tolist()]
    lines[-1] = '"' + lines[-1].replace(",", '",', 1)
    (tmp_path / "in.csv").write_text("\r\n".join(lines) + "\r\n")
    monkeypatch.setattr(series, "_PLAIN_CHUNK", 4096)
    calls = []
    records = series._records

    def counted(fh, skip_rows):
        calls.append(skip_rows)
        return records(fh, skip_rows)

    monkeypatch.setattr(series, "_records", counted)
    fallbacks = _count_fallbacks(monkeypatch)
    s = load_csv(tmp_path / "in.csv")
    np.testing.assert_array_equal(s.values, x)
    assert calls == [0, 0] and not fallbacks


def test_bad_cell_before_a_byte_that_is_not_utf8_is_reported(tmp_path):
    # the byte lies in the first chunk of the plain reader but past the
    # text the per-cell parser decodes before it reaches the bad cell
    rows = "".join(f"{i}.5,{i}\n" for i in range(3_000)).encode()
    (tmp_path / "in.csv").write_bytes(b"a,b\n1,2\n3,oops\n" + rows + b"1,\xff\n")
    with pytest.raises(ToolkitError) as info:
        load_csv(tmp_path / "in.csv")
    assert (type(info.value).__name__, info.value.row) == ("NonNumericCell", 2)


@pytest.mark.parametrize("text", ["a,b\n1,2\n3,4\n", 'a,b\n1,2\n"3",4\n'])
def test_load_csv_reads_a_pipe(text):
    # a pipe cannot be rewound, so it is copied to a file and read as one
    r, w = os.pipe()
    os.write(w, text.encode())
    os.close(w)
    try:
        values = load_csv(f"/dev/fd/{r}").values
    finally:
        os.close(r)
    np.testing.assert_array_equal(values, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_peak_memory_is_one_copy(tmp_path):
    # the parsed array becomes the series' array; it is not copied again,
    # and a pipe is copied to a file a block at a time, not held in memory
    x = np.random.default_rng(29).normal(size=(200_000, 5))
    write_csv(MultivariateSeries(x), tmp_path / "big.csv")
    columns = [f"x{j}" for j in range(5)]
    data = (tmp_path / "big.csv").read_bytes()
    for source in (contextlib.nullcontext(tmp_path / "big.csv"), _piped(data)):
        with source as path:
            tracemalloc.start()
            try:
                s = load_csv(path, columns)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert s.values.shape == (200_000, 5)
        assert s.values.tobytes() == x.tobytes()
        assert peak < 1.5 * x.nbytes, path
        del s


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
