"""Compare what the command line does under two source trees of mvcusum.

Runs one fixed set of commands as ``python -m mvcusum``, once with each
``src`` root on PYTHONPATH, every run in a fresh empty directory with its
address space capped at 16 GiB (a run here needs well under 1 GiB), so a
tree that asks for an array of tens of GiB fails at once with
``MemoryError`` rather than fill the host's memory. For each command it
compares the exit code, stdout, stderr and the sha256 of every file the run
leaves behind (a directory counts too, so an output directory made before
an error shows). Prints each mismatch and exits 1 if there is any, else 0.

The inputs are written here with the standard library, so neither tree's
reader, writer or simulator decides what the commands read. A command is one
argv, or a tuple of argvs run in order in one directory; an argv whose last
element is ``<PATH`` gets that file's bytes on a pipe to stdin. The command
groups, roughly in the order of the comments in `commands`:

- Every input subcommand on a 1e5 x 5 and a 16 x 3 moving-average input
  with two mean shifts: ``detect`` plain, with ``--scan --emit-curve``,
  ``--transform diff`` and ``--columns``; ``estimate`` by both methods;
  ``scan --emit-curve``; ``spectrum`` at the defaults, ``--freqs 2``, ``--h
  7`` and ``--h 100000``, and at ``--freqs 5000`` on the large input, whose
  windows go to the periodogram in several chunks.
- The CSV reader: a CRLF file with a quoted-newline preamble, padded quoted
  ``Date`` stamps and a quoted ``n,#k`` column (with ``--skip-rows``,
  ``--date-column`` and ``--transform log``, and its bad-column and
  unskipped-preamble errors); a bad cell, ``nan``, an empty cell, one row, a
  header only, an empty file, a missing file, a missing column and a missing
  date column; a ``1_000`` cell; a dated price table, with its date column
  found by name and named, and the same table without it; a header that
  repeats a selected name; cells on or next to a rounding midpoint; a file
  without its final newline, a CRLF file whose last line holds a quoted cell
  (numpy's reader takes the whole file), a 25-byte cell and a ``1e400``
  cell; and three inputs piped to ``detect /dev/stdin``, which give what the
  same command on the path gives.
- Bad settings and failures after the input is read, most with outputs
  asked for in a new subdirectory, which must not appear: a missing or bad
  input, ``spectrum --h 100`` on 40 rows, a constant input, a level with no
  table entry, an even ``--smoothing-window``, ``--trim 0.7``,
  ``--min-prominence -1`` or ``nan``, ``--skip-rows -1``, a level outside
  (0, 1), and ``critval --table`` in a new directory, which is made.
- Numerical edges: 200 x 3 inputs scaled by 1e-160 (a long-run covariance
  whose inverse overflows) and 1e154 (a periodogram that overflows), under
  every input subcommand, and by 1e160 (a curve whose sum of squares
  overflows) under the norm_argmax estimate; a 200 x 2 input with columns at
  1e-160 and 1e-244 (a covariance singular in floating point); a 200 x 3
  input at 1e-100, whose curve and spectrum the writer forms with a power of
  ten that is no double; and a 65,537 x 3 input, whose curve ends just past
  a multiple of the 65,536-row chunk that every curve reader works in.
- ``simulate``: two draws; configs with comments and blank lines, an empty,
  repeated or unknown key; every branch of the recipe, and its errors in the
  order they are checked; the truncation depth; a d below 1; ``--d 1 --m
  12``; ``--rho 0.999``, a filter 34,521 taps deep; ``base`` at 1e-200·I and
  at 1e300·I, which the writer formats one value at a time.
- ``critval``: a cached value, misses at small budgets, and the two steps
  that the missing-critical-value hint names, run in one directory.
- ``bench``: every shipped grid, ``table1`` at its own size and the others
  at ``--reps 2`` or ``3``; grids without ``reps``, with ``reps=0``, with an
  empty key, with a name holding ``../`` or NUL, and with a cell holding
  ``/``; ``nope`` with and without a missing ``--table``; two-cell grids on
  two threads whose second cell fails when read or in every replication;
  and a grid at ``rho=0.999``. Only the grid name is part of a file name
  (``<name>.csv`` and ``<name>_hist.csv``); a cell name labels rows, and
  may hold ``/``, ``\\`` and NUL.
- Files that do not decode or parse: a CSV, a config and a grid holding a
  0xff byte; tables without the ``paths`` column, with a foreign header and
  with a non-numeric value.
- Command lines the parser rejects, each with one ``error:`` line and exit
  2: the bare ``mvcusum`` and one bad argument per subcommand; 11 commands
  that pass the removed ``--two-pass`` flag, and after them each one's twin
  without the flag, where the list lacks it; and the retired spellings,
  ``--transform center`` under ``detect`` and ``spectrum``, the
  ``--bandwidth`` alias of ``--h`` and the flag prefix ``--sc``. Also
  ``detect --help``, which exits 0.
- Budgets refused before any array is allocated: ``spectrum --freqs`` at
  1e12, and ``critval`` with a grid or a path count past its cap.
- ``--output-dir`` under ``simulate``, ``spectrum``, ``detect
  --emit-curve`` and ``scan``: only ``bench`` reads it, and the others name
  each output file with ``--out``, ``--meta`` or ``--emit-curve``.
- A field over the csv module's 131,072-character limit where that module
  reads it: a header name, an unselected field of a file whose selected
  ``nan`` sends it to the per-cell parser, and a critical-value table cell.
- Missing inputs, each reported by the reader that opens it: two faults in
  one command (a missing input with a missing ``--table``, with ``--alpha
  2`` and with ``--freqs 1``), of which the other is reported; an empty
  ``--table`` or ``--config`` path; ``bench table1 --reps 1 --output-dir
  table1`` run twice in one directory; ``bench mydir`` once ``simulate``
  has made ``mydir``; a grid piped to ``bench /dev/stdin``; and
  ``--skip-rows 3000000`` on the 16 x 3 input, whose skipping ends with
  the file.
- Names: a grid whose cell name has 300 characters, run with
  ``--always-estimate``, which writes its three files; a grid whose name
  has 300 characters, refused when it is read; and ``detect`` on the 16 x 3
  input with a column selected twice and with ``--columns X --date-column
  X``, both refused.
- A bandwidth below d/2: an iid 500 x 10 input, whose default h is 4, under
  ``detect``, ``scan`` and ``estimate`` at the default h (refused: Sigma_hat
  has rank at most 2h = 8) and at ``--h 5`` (2h = d, accepted), and under
  ``spectrum`` and the norm_argmax estimate, which read no inverse.
- Critical-value tables holding a row that ``critval`` never writes: a
  ``nan`` value, a ``-inf`` value, a repeated (d, alpha) and a level of
  1.5, each under ``detect --table`` on the 16 x 3 input, ``bench table1
  --reps 1 --table`` and ``critval --d 2 --alpha 0.05 --table`` (refused
  when the table is read); and ``detect --trim 0.7`` on an input that the
  test does not reject (refused before the input is read).
- Critical-value tables whose provenance no simulation has (paths 0, grid
  1, seed -3, stderr -0.5) or whose 5% values lie below their 10% values,
  each under the same three commands (refused when the table is read); and
  ``critval --d 1 --alpha 0.01 --paths 1 --grid 2 --seed 0 --table t.csv``
  followed by ``critval --d 1 --alpha 0.1 --paths 200 --grid 50 --table
  t.csv``, whose computed 10% value lies above the stored 1% one (refused
  before anything is printed or written).
- ``critval --d 2 --alpha 0.05 --table ""``, a level the shipped table
  holds, and ``critval --d 2 --alpha 0.3 --paths 200 --grid 50 --table
  ""``, one it lacks: an empty path names no file, as under ``detect`` and
  ``bench``, and is refused before anything is simulated.
- A missing input with one bad setting that needs no data, which is refused
  before the input is read: ``scan --trim 0.7``, ``estimate --trim 0.7``,
  ``scan --smoothing-window 4``, ``detect --scan --min-prominence -1`` and
  ``spectrum --h 0``.
- Settings checked as the parser reads them: a bad one that the command
  does not read (``estimate --method norm_argmax --h 0``, ``detect
  --smoothing-window 4 --min-prominence -1`` without ``--scan``), two in
  both orders (``--h 0 --trim 0.7``), one beside a missing ``--table`` or
  an unknown grid, and ``--h 0 --h 3``.
- The other data-free settings, refused as the parser reads them:
  ``--threads 0``, ``--skip-rows -1`` and ``critval``'s budget at a cached
  level; and a byte-order mark before a dated CSV and before a grid.

The ``rho=0.999`` filter is a convolution whose dot products OpenBLAS
splits over its threads once they are that long, so the series it draws
depend on the BLAS thread count. On a host with 2 or more cores, a tree that
leaves numpy's BLAS at its default (one thread per core) can differ from one
that loads it with one thread on two commands alone: the ``--rho 0.999``
simulate, in the last digits of the series it writes, and the bench on that
grid, in the counts and deviations it computes from its series.

Usage: python scripts/compare_outputs.py OLD_SRC NEW_SRC
  e.g. OLD_SRC = src/ of a checkout of the parent commit, NEW_SRC = src
"""

import difflib
import hashlib
import math
from decimal import Decimal
from fractions import Fraction
import os
import random
import resource
import subprocess
import sys
import tempfile

IN = "../../../inputs/"  # the inputs, seen from a run directory
MEMORY_CAP = 16 << 30  # bytes of address space per command


def _write(path, text, newline="\n"):
    with open(path, "w", encoding="utf-8", newline=newline) as fh:
        fh.write(text)


def _ma_series(T, d, seed, breaks=((0.3, 0.15), (0.7, -0.3)), order=10):
    """A unit-variance MA(order) of Gaussians with mean shifts."""
    rng = random.Random(seed)
    z = [[rng.gauss(0.0, 1.0) for _ in range(d)] for _ in range(T + order)]
    scale = 1.0 / math.sqrt(order + 1)
    rows = []
    for t in range(T):
        window = z[t : t + order + 1]
        rows.append([sum(r[j] for r in window) * scale for j in range(d)])
    for frac, shift in breaks:
        for row in rows[int(frac * T) :]:
            for j in range(d):
                row[j] += shift
    return rows


def _table(header, rows):
    lines = [",".join(header)]
    lines += [",".join(format(v, ".17g") for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def write_inputs(root):
    os.makedirs(root)

    def put(name, text, newline="\n"):
        _write(os.path.join(root, name), text, newline)

    put("big.csv", _table([f"x{j}" for j in range(5)], _ma_series(100_000, 5, 7)))
    put("small.csv", _table(["x0", "x1", "x2"], _ma_series(16, 3, 16, order=1)))

    rng = random.Random(3)
    crlf = ['"pre\namble",x', 'Date,a,"n,#k",b']
    for i in range(64):
        a, n, b = (rng.uniform(1.0, 2.0) + (0.5 if i >= 32 else 0.0)
                   for _ in range(3))
        crlf.append(f'" 2020-01-{1 + i % 28:02d} ",{a!r},"{n!r}",{b!r}')
    put("crlf.csv", "\n".join(crlf) + "\n", newline="\r\n")

    prices = []
    level = [100.0] * 5
    for i in range(2000):
        level = [v + rng.gauss(0.0, 0.05) for v in level]
        shift = 6.0 if 666 <= i < 1333 else (1.0 if i >= 1333 else 0.0)
        prices.append([f"2019-{1 + (i // 28) % 12:02d}-{1 + i % 28:02d}"]
                      + [format(v + shift, ".6f") for v in level])
    head = ["Date", "Open", "High", "Low", "Close", "Volume"]
    dated = "\n".join(",".join(r) for r in [head] + prices) + "\n"
    put("dated.csv", dated)
    put("bom_dated.csv", "\ufeff" + dated)  # Excel's "CSV UTF-8"
    put("undated.csv",
        "\n".join(",".join(r[1:]) for r in [head] + prices) + "\n")

    ok = "\n".join(f"{1 + 0.1 * (i % 7)},{2 - 0.05 * (i % 5)}" for i in range(20))
    put("badcell.csv", "a,b\n" + ok + "\n1.5,oops\n")
    put("nan.csv", "a,b\n" + ok + "\nnan,1\n")
    put("emptycell.csv", "a,b\n" + ok + "\n1.5,\n")
    put("onerow.csv", "a,b\n1,2\n")
    put("headeronly.csv", "a,b\n")
    put("empty.csv", "")
    put("underscore.csv", "a,b\n" + ok + "\n1_000,2\n")
    put("tworow.csv", "a,b\n1,2\n3,5\n")

    put("sim_ok.cfg", "# a comment\nd=2\nT=40\n\nm=1\nseed=3\n# T=50\n")
    put("sim_empty_key.cfg", "d=2\n=5\n")
    put("sim_dup.cfg", "d=2\nT=40\n\nT=50\nm=0\n")
    put("sim_unknown_key.cfg", "d=2\nT=40\nm=1\nspeed=3\n")
    put("empty_key.grid", "name=x\n=5\n")
    put("rows40.csv", "a,b\n" + "".join(
        f"{rng.gauss(0.0, 1.0)!r},{rng.gauss(0.0, 1.0)!r}\n" for _ in range(40)))
    put("constant.csv", "a,b\n" + "1,2\n" * 40)
    put("noreps.grid", "cell=a\nd=2\nT=64\nm=1\n")
    put("zero.grid", "cell=a\nd=2\nT=64\nm=1\nreps=0\n")
    for name, scale in (("tiny", 1e-160), ("huge", 1e154), ("vast", 1e160)):
        put(name + ".csv", _table(["a", "b", "c"], [
            [rng.gauss(0.0, 1.0) * scale for _ in range(3)] for _ in range(200)]))
    put("singular.grid", "name=mix\nd=2\nT=200\nm=1\nreps=3\n\n"
        "cell=good\ndelta=1,1\nk_star=0.5\n\n"
        "cell=singular\ncov=0,0,0,0\n")
    put("recipe.cfg", "d=2\nT=300\nm=2\nrho=0.7\ntol=1e-9\nbase=2,0,1,1\n"
        "seed=5\n")
    cell = "\ncell=a\nd=2\nT=64\nm=1\nreps=1\n"
    put("escape.grid", "name=../escaped\n" + cell)
    put("bom.grid", "\ufeffname=bom\n" + cell)
    put("slash.grid", "name=g\n" + cell.replace("cell=a", "cell=a/b"))
    put("nul.grid", "name=g\0x\n" + cell)
    put("long_cell.grid", "name=g\n" + cell.replace("cell=a", "cell=" + "c" * 300))
    put("long_name.grid", "name=" + "n" * 300 + "\n" + cell)
    with open(os.path.join(root, "ff.csv"), "wb") as fh:
        fh.write(b"a,b\n1,2\n3,\xff\n5,6\n")
    with open(os.path.join(root, "ff.cfg"), "wb") as fh:
        fh.write(b"d=2\nT=\xff40\nm=1\n")
    with open(os.path.join(root, "ff.grid"), "wb") as fh:
        fh.write(b"cell=a\nd=2\nT=64\nm=1\nreps=\xff1\n")
    head = "d,alpha,value,paths,grid,seed,stderr\n"
    put("t_short.csv", "d,alpha,value\n3,0.05,3\n")
    put("t_xy.csv", "x,y\n1,2\n")
    put("t_abc.csv", head + "3,0.05,abc,1,1,1,0.1\n")
    rng = random.Random(11)  # a stream of its own: the inputs above stay put
    put("mixed.csv", _table(["a", "b"], [
        [rng.gauss(0.0, 1.0) * 1e-160, rng.gauss(0.0, 1.0) * 1e-244]
        for _ in range(200)]))
    put("chunk.csv", _table(["x0", "x1", "x2"], _ma_series(65_537, 3, 65)))
    put("degenerate.grid", "name=mix\nd=2\nT=200\nm=1\nreps=3\n\n"
        "cell=good\ndelta=1,1\nk_star=0.5\n\n"
        "cell=constant\nbase=0,0,0,0\n")
    rng = random.Random(19)
    rows = [[rng.gauss(0.0, 1.0) for _ in range(3)] for _ in range(200)]
    for row in rows[100:]:
        row[1] += 3.0  # the second 'a' column shifts
    put("repeated.csv", _table(["a", "a", "b"], rows))
    put("deep.grid", "name=deep\nd=2\nT=200\nm=0\nrho=0.999\nreps=1\n\ncell=a\n")
    rng = random.Random(23)
    put("deci.csv", _table(["a", "b", "c"], [
        [rng.gauss(0.0, 1.0) * 1e-100 for _ in range(3)] for _ in range(200)]))
    for name, scale in (("tiny", "1e-200"), ("vast", "1e300")):
        put(f"base_{name}.cfg", f"d=2\nT=300\nm=2\nbase={scale},0,0,{scale}\n"
            "seed=5\n")
    rng = random.Random(29)
    rows = []
    for _ in range(200):
        x = rng.uniform(1.0, 2.0)
        mid = (Fraction(x) + Fraction(math.nextafter(x, 3.0))) / 2
        mid = Decimal(mid.numerator) / Decimal(mid.denominator)
        rows.append([str(2**53 + 2 * rng.randrange(2**40) + 1),
                     format(mid, f".{rng.randint(16, 18)}e"),
                     f"{rng.randrange(1, 2**40)}e23"])
    put("midpoint.csv", "\n".join(",".join(r) for r in [["a", "b", "c"]] + rows) + "\n")
    small = _table(["x0", "x1", "x2"], _ma_series(16, 3, 16, order=1))
    put("nonewline.csv", small.rstrip("\n"))
    rows = _ma_series(200, 3, 31)
    text = _table(["a", "b", "c"], rows).splitlines()
    a, b, c = text[-1].split(",")
    text[-1] = f'{a},"{b}",{c}'
    put("crlfquote.csv", "\n".join(text) + "\n", newline="\r\n")
    text = _table(["a", "b", "c"], rows).splitlines()
    text[7] = text[7].split(",")[0] + ",1e400," + text[7].split(",")[2]
    put("inf400.csv", "\n".join(text) + "\n")
    text = _table(["a", "b", "c"], rows).splitlines()
    text[3] = "%.22f," % -1.234 + text[3].split(",", 1)[1]  # a 25-byte cell
    put("wide.csv", "\n".join(text) + "\n")
    long = "x" * 140_000  # past the csv module's field limit
    put("long_header.csv", f"a,{long}\n1,2\n3,4\n5,6\n")
    put("long_field.csv", f"a,b,c\n1,2,{long}\nnan,3,4\n5,6,7\n")
    put("long_table.csv", head + "1,0.05," + "1" * 140_000 + ",1,1,1,0.1\n")
    rng = random.Random(37)
    put("iid10.csv", _table([f"x{j}" for j in range(10)], [
        [rng.gauss(0.0, 1.0) for _ in range(10)] for _ in range(500)]))
    # tables with a row that no table writer makes, each keyed at d = 2 (the
    # bench grids) and d = 3 (small.csv); every one holds (2, 0.05), so
    # critval answers it from the table and writes nothing
    for name, value in (("nan", "nan"), ("neginf", "-inf")):
        put(f"t_{name}.csv", head + f"2,0.05,{value},200000,10000,4,0.005\n"
            f"3,0.05,{value},200000,10000,5,0.005\n")
    good = "2,0.05,2.4,200000,10000,4,0.005\n3,0.05,2.9,200000,10000,5,0.005\n"
    put("t_repeat.csv", head + good + "2,0.05,9.9,200000,10000,4,0.005\n"
        "3,0.05,9.9,200000,10000,5,0.005\n")
    put("t_alpha.csv", head + good + "2,1.5,1,200000,10000,4,0.005\n")
    # provenance that no simulation has: each row of `good` with one cell
    # (paths, grid, seed or stderr) changed
    for name, i, cell in (("paths0", 3, "0"), ("grid1", 4, "1"),
                          ("seedneg", 5, "-3"), ("stderrneg", 6, "-0.5")):
        rows = [r.split(",") for r in good.splitlines()]
        for r in rows:
            r[i] = cell
        put(f"t_{name}.csv", head + "".join(",".join(r) + "\n" for r in rows))
    # values whose 5% point lies below their 10% point
    put("t_order.csv", head + "2,0.05,1.8,200000,10000,4,0.005\n"
        "2,0.1,2.5,200000,10000,4,0.005\n3,0.05,2.3,200000,10000,5,0.005\n"
        "3,0.1,2.9,200000,10000,5,0.005\n")


def commands():
    cmds = []
    for name in ("big", "small"):
        x = IN + name + ".csv"
        cmds += [
            ("detect", x),
            ("detect", x, "--scan", "--emit-curve", "curve.csv"),
            ("detect", x, "--two-pass", "--scan"),
            ("detect", x, "--two-pass", "--method", "norm_argmax", "--trim",
             "0.1", "--emit-curve", "curve.csv"),
            ("detect", x, "--transform", "center"),
            ("detect", x, "--transform", "diff"),
            ("detect", x, "--columns", "x2,x0"),
            ("estimate", x),
            ("estimate", x, "--method", "norm_argmax"),
            ("scan", x, "--emit-curve", "curve.csv"),
            ("spectrum", x),
            ("spectrum", x, "--freqs", "2"),
            ("spectrum", x, "--h", "7"),
            ("spectrum", x, "--h", "100000"),
        ]
    crlf = IN + "crlf.csv"
    cmds += [
        ("detect", crlf, "--skip-rows", "1", "--transform", "log"),
        ("detect", crlf, "--skip-rows", "1", "--transform", "diff", "--two-pass"),
        ("detect", crlf, "--skip-rows", "1", "--date-column", "Date"),
        ("spectrum", crlf, "--skip-rows", "1"),
        ("spectrum", crlf, "--skip-rows", "1", "--transform", "log"),
        ("detect", crlf, "--skip-rows", "1", "--columns", "a,nope"),
        ("detect", crlf),
    ]
    cmds += [("detect", IN + name + ".csv") for name in (
        "badcell", "nan", "emptycell", "onerow", "headeronly", "empty",
        "absent")]
    cmds += [
        ("detect", IN + "small.csv", "--columns", "x0,zz"),
        ("detect", IN + "dated.csv", "--date-column", "Missing"),
        ("detect", IN + "underscore.csv"),
        ("simulate", "--d", "5", "--T", "100000", "--m", "10", "--cov",
         "exch:0.5", "--delta", "0.2,0.2,0.2,0.2,0.2", "--k-star", "0.4",
         "--seed", "7"),
        ("simulate", "--d", "2", "--T", "16", "--m", "1", "--seed", "3",
         "--out", "sim/series.csv"),
        ("critval", "--d", "5", "--alpha", "0.05"),
        ("bench", "table1", "--output-dir", "grid"),
    ]
    # the date column, missing inputs, config readers
    cmds += [
        ("detect", IN + "dated.csv", "--scan"),
        ("detect", IN + "dated.csv", "--date-column", "Date", "--scan"),
        ("detect", IN + "undated.csv", "--scan"),
        ("spectrum", IN + "dated.csv", "--transform", "diff"),
        ("detect", IN + "dated.csv", "--columns", "Nope", "--date-column",
         "Missing"),
        ("detect", "absent.csv", "--emit-curve", "sub/curve.csv"),
        ("scan", "absent.csv", "--emit-curve", "sub/curve.csv"),
        ("spectrum", "absent.csv", "--out", "spec/s.csv"),
        ("simulate", "--config", "nope.cfg", "--out", "simdir/x.csv"),
        ("simulate", "--config", IN + "sim_ok.cfg", "--out", "sim/x.csv"),
        ("simulate", "--config", IN + "sim_empty_key.cfg"),
        ("simulate", "--config", IN + "sim_dup.cfg"),
        ("bench", IN + "empty_key.grid", "--output-dir", "g"),
        ("critval", "--d", "1", "--alpha", "0.3", "--paths", "2000", "--grid",
         "100", "--table", "t.csv"),
        ("critval", "--d", "2", "--alpha", "0.3", "--paths", "1000", "--grid",
         "50", "--seed", "4", "--table", "t.csv"),
        ("detect", "--help"),
    ]
    # outputs of a bad input, rejected flag values and the removed norm_argmax
    # pilot
    bad = IN + "badcell.csv"
    cmds += [
        ("detect", bad, "--emit-curve", "sub/curve.csv"),
        ("scan", bad, "--emit-curve", "sub/curve.csv"),
        ("spectrum", bad, "--out", "spec/s.csv"),
        ("simulate", "--config", IN + "sim_unknown_key.cfg", "--out",
         "simdir/x.csv"),
        ("scan", IN + "dated.csv", "--min-prominence", "nan"),
        ("detect", IN + "small.csv", "--skip-rows", "-1"),
        ("detect", IN + "tworow.csv", "--two-pass", "--method", "norm_argmax"),
        ("estimate", IN + "tworow.csv", "--method", "norm_argmax"),
        ("detect", IN + "dated.csv", "--two-pass", "--method", "norm_argmax",
         "--scan"),
    ]
    # errors after the input is parsed, critval into a new directory, and the
    # recipe and grid readers
    rows, const = IN + "rows40.csv", IN + "constant.csv"
    cmds += [
        ("spectrum", rows, "--h", "100", "--out", "spec/s.csv"),
        ("detect", const, "--emit-curve", "sub/c.csv"),
        ("scan", const, "--emit-curve", "sub/c.csv"),
        ("detect", rows, "--alpha", "0.07", "--emit-curve", "sub/c.csv"),
        ("detect", rows, "--scan", "--smoothing-window", "4", "--emit-curve",
         "sub/c.csv"),
        ("detect", rows, "--scan", "--trim", "0.7", "--emit-curve", "sub/c.csv"),
        ("detect", rows, "--scan", "--min-prominence", "-1", "--emit-curve",
         "sub/c.csv"),
        ("simulate", "--d", "2", "--T", "40", "--m", "0", "--cov", "1,2,2,1",
         "--out", "sim/x.csv"),
        ("critval", "--d", "1", "--alpha", "0.05", "--paths", "10", "--grid",
         "10", "--table", "nodir/t.csv"),
        ("bench", IN + "noreps.grid", "--output-dir", "g"),
        ("bench", IN + "zero.grid", "--output-dir", "g"),
        ("bench", "nope"),
        ("bench", "nope", "--table", "missing.csv"),
        ("bench", IN + "empty_key.grid", "--table", "missing.csv"),
        ("simulate", "--T", "40", "--m", "1"),
    ]
    # a long-run covariance too small to invert and one too large to be finite
    for name in ("tiny", "huge"):
        cmds += [("detect", IN + name + ".csv"),
                 ("spectrum", IN + name + ".csv")]
    # every other command that reads those two inputs
    for name in ("tiny", "huge"):
        x = IN + name + ".csv"
        cmds += [("scan", x),
                 ("estimate", x),
                 ("estimate", x, "--method", "norm_argmax"),
                 ("detect", x, "--scan"),
                 ("detect", x, "--two-pass", "--method", "norm_argmax")]
    # a curve whose sum of squares overflows
    vast = IN + "vast.csv"
    cmds += [("estimate", vast, "--method", "norm_argmax"),
             ("detect", vast, "--two-pass", "--method", "norm_argmax")]
    # windows in several chunks, and a grid with a failing cell run on two
    # threads
    cmds += [("spectrum", IN + "big.csv", "--freqs", "5000"),
             ("bench", IN + "singular.grid", "--output-dir", "g", "--threads",
              "2", "--always-estimate", "--keep-going")]
    # every branch of the simulation recipe, its errors in the order they are
    # checked, and the other shipped grids
    sim = ("simulate", "--d", "2", "--T", "300", "--m", "2", "--seed", "7")
    cmds += [
        sim + ("--rho", "0"),
        sim + ("--rho", "0.9", "--tol", "1e-6"),
        sim + ("--base", "identity"),
        sim + ("--base", "2,0,1,1"),
        sim + ("--rho", "0", "--base", "identity"),
        sim + ("--rho", "0.5", "--tol", "1e-12"),
        ("simulate", "--config", IN + "recipe.cfg", "--out", "sim/x.csv"),
        sim + ("--base", "1,2,3"),
        sim + ("--rho", "1"),
        sim + ("--tol", "0"),
        ("simulate", "--d", "0", "--T", "300", "--m", "2"),
        ("simulate", "--d", "2", "--T", "1", "--m", "2", "--rho", "1.5"),
        ("simulate", "--d", "0", "--T", "300", "--m", "2", "--rho", "1.5"),
        sim + ("--rho", "1.5", "--tol", "0"),
        ("simulate", "--d", "2", "--T", "1", "--m", "-1", "--tol", "0"),
        ("simulate", "--d", "2", "--T", "1", "--m", "-1", "--seed", "-1"),
        ("simulate", "--d", "2", "--T", "40", "--m", "-1"),
        ("bench", "h0", "--reps", "3", "--output-dir", "g"),
    ]
    cmds += [("bench", name, "--reps", "2", "--output-dir", "g")
             for name in ("table2", "table3", "table4")]
    # the truncation depth, a d below 1, grid names that leave the output
    # directory, and files that do not decode or parse
    cmds += [
        sim + ("--tol", "3.9"),
        ("simulate", "--d", "2", "--T", "40", "--m", "0", "--tol", "10"),
        ("simulate", "--d", "2", "--T", "40", "--m", "0", "--tol", "inf"),
        sim + ("--rho", "0.2"),
        sim + ("--rho", "0.4"),
        ("simulate", "--d", "-1", "--T", "10", "--m", "0", "--base", "identity"),
        ("simulate", "--d", "-1", "--T", "10", "--m", "0", "--cov", "1"),
        ("bench", IN + "escape.grid", "--output-dir", "out2"),
        ("bench", IN + "slash.grid", "--output-dir", "out3", "--always-estimate"),
        ("bench", IN + "nul.grid", "--output-dir", "out4"),
        ("detect", IN + "ff.csv"),
        ("simulate", "--config", IN + "ff.cfg"),
        ("bench", IN + "ff.grid"),
    ]
    cmds += [("detect", IN + "small.csv", "--table", IN + name + ".csv")
             for name in ("t_short", "t_xy", "t_abc")]
    # a covariance singular in floating point, a cell that fails at run time on
    # two threads, a deep filter, a d below 1 with a delta, and the two
    # commands of the missing-critical-value hint
    cmds += [(name, IN + "mixed.csv")
             for name in ("detect", "spectrum", "scan", "estimate")]
    cmds += [
        ("bench", IN + "degenerate.grid", "--output-dir", "g", "--threads",
         "2", "--always-estimate", "--keep-going"),
        ("simulate", "--d", "2", "--T", "100", "--m", "0", "--rho", "0.999"),
        ("simulate", "--d", "-1", "--T", "10", "--m", "0", "--delta", "1"),
        (("critval", "--d", "2", "--alpha", "0.07", "--paths", "2000",
          "--grid", "200", "--table", "t.csv"),
         ("detect", IN + "rows40.csv", "--alpha", "0.07", "--table", "t.csv")),
    ]
    # the one-column window sum, and a curve that crosses a chunk boundary
    cmds += [
        ("simulate", "--d", "1", "--T", "300", "--m", "12", "--seed", "7"),
        ("detect", IN + "chunk.csv", "--scan", "--emit-curve", "curve.csv"),
    ]
    # the norm_argmax estimate and the removed two-pass pilot, the other
    # readers of that curve
    chunk = IN + "chunk.csv"
    cmds += [
        ("estimate", chunk, "--method", "norm_argmax"),
        ("detect", chunk, "--two-pass", "--method", "norm_argmax", "--scan",
         "--emit-curve", "curve.csv"),
    ]
    # each --two-pass command without that flag, where that twin is not in the
    # list already
    twins = [tuple(a for a in cmd if a != "--two-pass") for cmd in cmds
             if "--two-pass" in cmd]
    cmds += [twin for twin in twins if twin not in cmds]
    # a selected name repeated in the header, and a level outside (0, 1)
    cmds += [
        ("detect", IN + "repeated.csv"),
        ("detect", IN + "repeated.csv", "--columns", "a"),
        ("detect", IN + "rows40.csv", "--alpha", "1.5"),
    ]
    # the bench path through a deep filter
    cmds += [("bench", IN + "deep.grid", "--reps", "2", "--output-dir", "g")]
    # written values across many decades, where 10**k is no double and, above
    # 1e290, where the writer formats one at a time
    deci = IN + "deci.csv"
    cmds += [
        ("detect", deci, "--scan", "--emit-curve", "curve.csv"),
        ("spectrum", deci, "--out", "spec.csv"),
        ("simulate", "--config", IN + "base_tiny.cfg", "--out", "sim/x.csv"),
        ("simulate", "--config", IN + "base_vast.cfg", "--out", "sim/x.csv"),
    ]
    # command lines that do not parse
    small = IN + "small.csv"
    cmds += [
        (),
        ("simulate", "--d", "x", "--T", "50", "--m", "0"),
        ("spectrum", small, "--transform", "nope"),
        ("detect", small, "--method", "nope"),
        ("estimate",),
        ("scan", small, "--bogus"),
        ("critval", "--alpha", "0.05"),
        ("bench", "table1", "--reps", "1.5"),
    ]
    # the edges of the plain-number CSV reader
    cmds += [
        ("detect", IN + "midpoint.csv", "--scan", "--emit-curve", "curve.csv"),
        ("spectrum", IN + "midpoint.csv", "--out", "spec.csv"),
        ("spectrum", IN + "nonewline.csv", "--out", "spec.csv"),
        ("spectrum", IN + "crlfquote.csv", "--out", "spec.csv"),
        ("detect", IN + "inf400.csv"),
        ("spectrum", IN + "wide.csv", "--out", "spec.csv"),
    ]
    # inputs sent on stdin through a pipe
    cmds += [("detect", "/dev/stdin", "<" + IN + name + ".csv")
             for name in ("small", "badcell", "underscore")]
    # retired spellings: a transform value, a flag alias and a flag prefix
    cmds += [
        ("spectrum", small, "--transform", "center"),
        ("spectrum", small, "--bandwidth", "3"),
        ("detect", small, "--sc"),
    ]
    # budgets refused before any array is allocated
    crit = ("critval", "--d", "2", "--alpha", "0.3")
    cmds += [
        ("spectrum", IN + "tiny.csv", "--freqs", "1000000000000"),
        crit + ("--paths", "10", "--grid", "10000000000"),
        crit + ("--paths", "1000000000000", "--grid", "2"),
    ]
    # --output-dir outside bench, and fields past the csv module's limit
    cmds += [
        ("simulate", "--d", "2", "--T", "16", "--m", "1", "--seed", "3",
         "--out", "s.csv", "--output-dir", "sim"),
        ("spectrum", small, "--output-dir", "spec"),
        ("detect", small, "--emit-curve", "curve.csv", "--output-dir", "out"),
        ("scan", small, "--output-dir", "out"),
        ("detect", IN + "long_header.csv"),
        ("detect", IN + "long_field.csv", "--columns", "a,b"),
        ("detect", IN + "rows40.csv", "--table", IN + "long_table.csv"),
    ]
    # missing inputs met by their readers, a directory named like a grid, a
    # grid on a pipe, and a skip past the end of the file
    cmds += [
        ("detect", "absent.csv", "--table", "absent_t.csv"),
        ("detect", "absent.csv", "--alpha", "2"),
        ("spectrum", "absent.csv", "--freqs", "1"),
        ("detect", small, "--table", ""),
        ("simulate", "--config", ""),
        (("bench", "table1", "--reps", "1", "--output-dir", "table1"),
         ("bench", "table1", "--reps", "1", "--output-dir", "table1")),
        (("simulate", "--d", "2", "--T", "16", "--m", "1", "--seed", "3",
          "--out", "mydir/s.csv"),
         ("bench", "mydir")),
        ("bench", "/dev/stdin", "--output-dir", "g", "<" + IN + "noreps.grid"),
        ("detect", small, "--skip-rows", "3000000"),
    ]
    # a cell name too long for a file name, a grid name too long for one,
    # and a column selected twice or as the date column
    cmds += [
        ("bench", IN + "long_cell.grid", "--output-dir", "out",
         "--always-estimate"),
        ("bench", IN + "long_name.grid", "--output-dir", "out"),
        ("detect", small, "--columns", "x0,x0"),
        ("detect", small, "--columns", "x1", "--date-column", "x1"),
    ]
    # a bandwidth below d/2, at the default h = 4 and at h = 5, where 2h = d
    iid10 = IN + "iid10.csv"
    cmds += [(name, iid10) + h for h in ((), ("--h", "5"))
             for name in ("detect", "scan", "estimate")]
    cmds += [("spectrum", iid10), ("estimate", iid10, "--method", "norm_argmax")]
    # tables with a non-finite value, a repeated (d, alpha) or a level outside
    # (0, 1), under each reader; and a trim outside [0, 0.5) on an input the
    # test does not reject
    for name in ("nan", "neginf", "repeat", "alpha"):
        t = IN + f"t_{name}.csv"
        cmds += [("detect", small, "--table", t),
                 ("bench", "table1", "--reps", "1", "--table", t,
                  "--output-dir", "g"),
                 ("critval", "--d", "2", "--alpha", "0.05", "--table", t)]
    cmds += [("detect", IN + "rows40.csv", "--trim", "0.7")]
    # tables with a path count, grid, seed or stderr that no simulation has,
    # or with values out of their order, under each reader; and a critval
    # miss whose value would put the file it extends out of order
    for name in ("paths0", "grid1", "seedneg", "stderrneg", "order"):
        t = IN + f"t_{name}.csv"
        cmds += [("detect", small, "--table", t),
                 ("bench", "table1", "--reps", "1", "--table", t,
                  "--output-dir", "g"),
                 ("critval", "--d", "2", "--alpha", "0.05", "--table", t)]
    cmds += [(("critval", "--d", "1", "--alpha", "0.01", "--paths", "1",
               "--grid", "2", "--seed", "0", "--table", "t.csv"),
              ("critval", "--d", "1", "--alpha", "0.1", "--paths", "200",
               "--grid", "50", "--table", "t.csv"))]
    # an empty --table under critval, on a hit and on a miss
    cmds += [("critval", "--d", "2", "--alpha", "0.05", "--table", ""),
             crit + ("--paths", "200", "--grid", "50", "--table", "")]
    # a missing input with one bad setting that needs no data, which is
    # refused first
    cmds += [("scan", "absent.csv", "--trim", "0.7"),
             ("estimate", "absent.csv", "--trim", "0.7"),
             ("scan", "absent.csv", "--smoothing-window", "4"),
             ("detect", "absent.csv", "--scan", "--min-prominence", "-1"),
             ("spectrum", "absent.csv", "--h", "0")]
    # settings checked as the parser reads them: one the command does not
    # read, the first of two, one ahead of a missing --table or grid, and
    # the first value of a repeated flag
    cmds += [("estimate", small, "--method", "norm_argmax", "--h", "0"),
             ("detect", small, "--smoothing-window", "4", "--min-prominence",
              "-1"),
             ("scan", "absent.csv", "--h", "0", "--trim", "0.7"),
             ("scan", "absent.csv", "--trim", "0.7", "--h", "0"),
             ("detect", "absent.csv", "--table", "absent_t.csv", "--alpha",
              "2"),
             ("bench", "nogrid", "--reps", "0"),
             ("scan", "absent.csv", "--h", "0", "--h", "3")]
    # the other data-free settings, each ahead of a missing grid or table or
    # of a table that holds the answer, and a byte-order mark before a CSV
    # and a grid
    cached = ("critval", "--d", "2", "--alpha", "0.05")
    cmds += [("bench", "nogrid", "--threads", "0"),
             ("detect", "absent.csv", "--table", "absent_t.csv",
              "--skip-rows", "-1"),
             cached + ("--paths", "0"),
             cached + ("--grid", "1"),
             cached + ("--seed", "-1"),
             ("detect", IN + "bom_dated.csv", "--scan"),
             ("bench", IN + "bom.grid", "--output-dir", "g")]
    return cmds


def _steps(cmd):
    """The argv of each step of a command: a tuple of argvs runs them in
    order in one directory."""
    return cmd if cmd and isinstance(cmd[0], tuple) else (cmd,)


def _stdin(argv, cwd):
    """argv without a last ``<path`` element, and the bytes of that file
    (relative to cwd) to send on stdin, or None."""
    if not (argv and argv[-1].startswith("<")):
        return argv, None
    with open(os.path.join(cwd, argv[-1][1:]), "rb") as fh:
        return argv[:-1], fh.read()


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run(src, cmd, cwd):
    os.makedirs(cwd)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    codes, out, err = [], b"", b""
    for argv in _steps(cmd):
        argv, data = _stdin(argv, cwd)
        proc = subprocess.run([sys.executable, "-m", "mvcusum", *argv],
                              cwd=cwd, env=env, capture_output=True,
                              input=data, timeout=900,
                              preexec_fn=_cap_memory)
        codes.append(proc.returncode)
        out, err = out + proc.stdout, err + proc.stderr
    files = {}
    for dirpath, dirnames, filenames in os.walk(cwd):
        for name in dirnames:
            files[os.path.relpath(os.path.join(dirpath, name), cwd) + "/"] = "dir"
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, cwd)] = hashlib.sha256(fh.read()).hexdigest()
    return codes[-1] if len(codes) == 1 else tuple(codes), out, err, files


def _text_diff(old, new):
    lines = difflib.unified_diff(old.decode().splitlines(),
                                 new.decode().splitlines(), "old", "new",
                                 lineterm="", n=0)
    return "\n".join("    " + line for line in list(lines)[2:12])


def compare(old, new):
    problems = []
    if old[0] != new[0]:
        problems.append(f"  exit code {old[0]} -> {new[0]}")
    for i, stream in ((1, "stdout"), (2, "stderr")):
        if old[i] != new[i]:
            problems.append(f"  {stream} differs:\n" + _text_diff(old[i], new[i]))
    for name in sorted(set(old[3]) | set(new[3])):
        a, b = old[3].get(name), new[3].get(name)
        if a != b:
            what = ("only under OLD" if b is None else "only under NEW"
                    if a is None else "sha256 differs")
            problems.append(f"  {name}: {what}")
    return problems


def main(argv):
    if len(argv) != 2:
        print("usage: python scripts/compare_outputs.py OLD_SRC NEW_SRC",
              file=sys.stderr)
        return 2
    old_src, new_src = argv
    cmds = commands()
    mismatched = succeeded = 0
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as base:
        write_inputs(os.path.join(base, "inputs"))
        for i, cmd in enumerate(cmds):
            old = run(old_src, cmd, os.path.join(base, "runs", "old", str(i)))
            new = run(new_src, cmd, os.path.join(base, "runs", "new", str(i)))
            succeeded += new[0] in (0, (0,) * len(_steps(cmd)))
            problems = compare(old, new)
            if problems:
                mismatched += 1
                print(f"[{i}] " + " && ".join(
                    "mvcusum " + " ".join(argv) for argv in _steps(cmd)))
                print("\n".join(problems))
    print(f"{len(cmds)} commands ({succeeded} exit 0 under NEW), "
          f"{mismatched} with a difference")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
