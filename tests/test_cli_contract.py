"""A seeded property test of the command line's error contract (module
docstring of `mvcusum.cli`): on generated CSV files and flags, `detect`,
`estimate`, `scan` and `spectrum` exit 0 or 2; on 2 they print exactly one
``error: <Category>: <message>`` line to stderr and write nothing; and no
command lets a warning out. Runs in-process through `cli.main`."""

import contextlib
import io
import os
import random
import re
import warnings

from mvcusum import cli

CASES = 900
ERROR_LINE = re.compile(r"error: [A-Z]\w*: [^\n]+\n")

NAMES = ["a", "b", "c", "a", "date", "Date", "", "x y", "é"]
ODD_CELLS = ["nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "1_000",
             "١٢", '"2.5"', "", " 3 ", "abc", "0x10", "1e999"]
LINE_ENDS = ["\n", "\r\n", "\r"]


def _csv_bytes(rng):
    """A CSV file: repeated, empty, date and non-ASCII header names; 0-200
    rows of numbers with a mean shift; in some files odd cells, short and
    long rows, another line end or bytes that are not UTF-8."""
    width = rng.randint(1, 4)
    header = [rng.choice(NAMES) if rng.random() < 0.15 else f"x{j}"
              for j in range(width)]
    n = rng.choice([0, 1, 2, 5] + [18, 40, 120, 200] * 3)
    dirty = rng.random() < 0.3
    scale = rng.choice([1e-160, 1e154, 1e300]) if rng.random() < 0.15 else 1.0
    lines = [",".join(header)]
    for i in range(n):
        shift = 1.5 if i >= n // 2 else 0.0
        cells = [repr((rng.gauss(0.0, 1.0) + shift) * scale) for _ in range(width)]
        if dirty and rng.random() < 0.05:
            cells[rng.randrange(width)] = rng.choice(ODD_CELLS)
        if dirty and rng.random() < 0.02:
            cells = cells[:-1] if rng.random() < 0.5 else cells + ["9"]
        lines.append(",".join(cells))
    if rng.random() < 0.1:
        lines.append(rng.choice(["", "1", ",".join(["5"] * width)]))
    end = rng.choice(LINE_ENDS) if dirty else "\n"
    data = (end.join(lines) + end).encode("utf-8")
    if dirty and rng.random() < 0.1:
        cut = rng.randrange(len(data) + 1)
        data = data[:cut] + b"\xff" + data[cut:]
    return header, data


def _flags(rng, command, header):
    argv = []
    if rng.random() < 0.2:
        argv += ["--columns", ",".join(rng.sample(header + ["zz"], 1 + (len(header) > 1)))]
    if rng.random() < 0.1:
        argv += ["--date-column", rng.choice(header + ["when"])]
    if rng.random() < 0.1:
        argv += ["--skip-rows", rng.choice(["0", "1", "-1"])]
    if rng.random() < 0.3:
        argv += ["--transform", rng.choice(["none", "center", "log", "diff"])]
    if rng.random() < 0.2:
        argv += ["--h", rng.choice(["0", "1", "3", "100", "-2"])]
    if command in ("detect", "estimate", "scan") and rng.random() < 0.2:
        argv += ["--trim", rng.choice(["0", "0.1", "0.49", "0.7", "-0.1"])]
    if command in ("detect", "estimate") and rng.random() < 0.3:
        argv += ["--method", rng.choice(["quadform_argmax", "norm_argmax"])]
    if command == "detect":
        if rng.random() < 0.2:
            argv += ["--alpha", rng.choice(["0.05", "0.1", "0.07", "1.5", "0"])]
        if rng.random() < 0.4:
            argv += ["--scan"]
    if command in ("detect", "scan"):
        if rng.random() < 0.5:
            argv += ["--emit-curve", rng.choice(["curve.csv", "out/curve.csv"])]
        if rng.random() < 0.15:
            argv += ["--smoothing-window", rng.choice(["3", "4", "7", "-1"])]
        if rng.random() < 0.15:
            argv += ["--min-prominence", rng.choice(["0.1", "-1", "nan", "inf"])]
    if command == "spectrum":
        if rng.random() < 0.3:
            argv += ["--freqs", rng.choice(["1", "2", "5", "300"])]
        argv += ["--out", rng.choice(["spec.csv", "out/spec.csv"])]
    return argv


def _files(root):
    return sorted(os.path.relpath(os.path.join(d, name), root)
                  for d, dirs, files in os.walk(root) for name in dirs + files)


def test_error_contract_holds_on_generated_inputs(tmp_path, monkeypatch):
    rng = random.Random(20240611)
    codes = {0: 0, 2: 0}
    categories = set()
    for case in range(CASES):
        command = rng.choice(["detect", "estimate", "scan", "spectrum"])
        header, data = _csv_bytes(rng)
        argv = [command, "in.csv"] + _flags(rng, command, header)
        run_dir = tmp_path / str(case)
        run_dir.mkdir()
        (run_dir / "in.csv").write_bytes(data)
        monkeypatch.chdir(run_dir)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = cli.main(argv)
        where = f"case {case}: mvcusum {' '.join(argv)}\n{data[:300]!r}"
        assert code in (0, 2), f"{where}\nexit {code}: {err.getvalue()}"
        codes[code] += 1
        if code == 0:
            assert err.getvalue() == "", f"{where}\n{err.getvalue()}"
        else:
            assert ERROR_LINE.fullmatch(err.getvalue()), f"{where}\n{err.getvalue()!r}"
            assert _files(run_dir) == ["in.csv"], where
            categories.add(err.getvalue().split(":")[1].strip())
    # the generator reaches both outcomes and most error categories
    assert min(codes.values()) > CASES // 10, codes
    assert len(categories) >= 8, categories
