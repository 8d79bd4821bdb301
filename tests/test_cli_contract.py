"""Seeded property tests of the command line's error contract (module
docstring of `mvcusum.cli`): on generated CSV files and flags, `detect`,
`estimate`, `scan` and `spectrum` exit 0 or 2; on 2 they print exactly one
``error: <Category>: <message>`` line to stderr and write nothing; and no
command lets a warning out. The same holds for command lines the parser
rejects (a `UsageError`) and for generated `simulate --config` recipes and
`bench` grids, where `CellFailures` alone writes its outputs. Runs
in-process through `cli.main`."""

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
        # none at twice the weight of each other transform
        argv += ["--transform", rng.choice(["none", "none", "log", "diff"])]
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


# ------------------------------------------------------------ usage errors

USAGE_CASES = 300
# per subcommand: its required arguments (dropped one at a time), optional
# flags with a valid value, its int and float flags, and its flags with
# choices
REQUIRED = {"simulate": [], "critval": [["--d", "2"]], "bench": [["table1"]]}
INPUT_FLAGS = [["--skip-rows", "0"], ["--transform", "none"], ["--h", "3"]]
VALID = {
    "simulate": [["--d", "2"], ["--T", "50"], ["--rho", "0.5"], ["--seed", "1"]],
    "spectrum": INPUT_FLAGS + [["--freqs", "9"]],
    "detect": INPUT_FLAGS + [["--alpha", "0.1"], ["--scan"],
                             ["--method", "norm_argmax"]],
    "estimate": INPUT_FLAGS + [["--trim", "0.1"]],
    "scan": INPUT_FLAGS + [["--smoothing-window", "5"]],
    "critval": [["--alpha", "0.1"], ["--paths", "100"], ["--grid", "50"]],
    "bench": [["--reps", "1"], ["--threads", "2"], ["--keep-going"]],
}
INT_FLAGS = {
    "simulate": ["--d", "--T", "--m", "--seed"],
    "spectrum": ["--skip-rows", "--h", "--freqs"],
    "detect": ["--skip-rows", "--h", "--smoothing-window"],
    "estimate": ["--skip-rows", "--h"],
    "scan": ["--skip-rows", "--h", "--smoothing-window"],
    "critval": ["--d", "--paths", "--grid", "--seed"],
    "bench": ["--reps", "--threads"],
}
FLOAT_FLAGS = {
    "simulate": ["--rho", "--tol"],
    "spectrum": [],
    "detect": ["--alpha", "--trim", "--min-prominence"],
    "estimate": ["--trim"],
    "scan": ["--trim", "--min-prominence"],
    "critval": ["--alpha"],
    "bench": [],
}
CHOICE_FLAGS = {"spectrum": ["--transform"], "detect": ["--transform", "--method"],
                "estimate": ["--transform", "--method"], "scan": ["--transform"]}
NOT_INTS = ["x", "1.5", "", "1e3", "0x10", "--"]
NOT_FLOATS = ["x", "", "1,5", "one", "0.1.2"]
NOT_CHOICES = ["nope", "", "NONE", "Center", "quadform"]
UNKNOWN_FLAGS = ["--two-pass", "--bogus", "--zzz", "--csv"]


def _usage_case(rng):
    """A command line with one fault the parser rejects: the subcommand
    ("" for none), the kind of fault, the argv, the prog its error line
    names and a token that line must hold."""
    command = rng.choice(["", *VALID])
    if not command:
        kind = rng.choice(["unknown", "choice", "missing"])
        argv = {"unknown": [rng.choice(UNKNOWN_FLAGS)], "missing": [],
                "choice": [rng.choice(["nope", "detekt", "Detect"])]}[kind]
        token = "invalid choice" if kind == "choice" else "subcommand"
        return command, kind, argv, "mvcusum", token
    required = REQUIRED.get(command, [["in.csv"]])
    flags = rng.sample(VALID[command], rng.randint(0, 2))
    kind = rng.choice(_kinds(command))
    prog = f"mvcusum {command}"
    if kind == "unknown":
        flag = rng.choice(UNKNOWN_FLAGS)
        flags.append([flag])
        prog, token = "mvcusum", f"unrecognized arguments: {flag}"
    elif kind == "missing":
        dropped = rng.choice(required)
        required = [arg for arg in required if arg is not dropped]
        token = "the following arguments are required"
    else:
        names, values = {"int": (INT_FLAGS[command], NOT_INTS),
                         "float": (FLOAT_FLAGS[command], NOT_FLOATS),
                         "choice": (CHOICE_FLAGS.get(command), NOT_CHOICES)}[kind]
        flag, value = rng.choice(names), rng.choice(values)
        flags = [f for f in flags if f[0] != flag] + [[flag, value]]
        token = flag if value == "--" else repr(value)
    parts = required + flags
    rng.shuffle(parts)
    return command, kind, [command] + [a for part in parts for a in part], prog, token


def _kinds(command):
    """The faults a subcommand's flags admit."""
    if not command:
        return ["unknown", "choice", "missing"]
    return (["unknown", "int"] + ["float"] * bool(FLOAT_FLAGS[command])
            + ["choice"] * (command in CHOICE_FLAGS)
            + ["missing"] * (REQUIRED.get(command) != []))


def test_usage_errors_are_one_error_line(tmp_path, monkeypatch):
    rng = random.Random(20261019)
    (tmp_path / "in.csv").write_text("a,b\n1,2\n3,5\n2,4\n")
    monkeypatch.chdir(tmp_path)
    reached = set()
    for case in range(USAGE_CASES):
        command, kind, argv, prog, token = _usage_case(rng)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = cli.main(argv)
        where = f"case {case}: mvcusum {' '.join(argv)}\n{err.getvalue()!r}"
        assert (code, out.getvalue()) == (2, ""), where
        assert ERROR_LINE.fullmatch(err.getvalue()), where
        assert err.getvalue().startswith(f"error: UsageError: {prog}: "), where
        assert token in err.getvalue(), where
        assert _files(tmp_path) == ["in.csv"], where
        reached.add((command, kind))
    # every subcommand, the bare command included, with every fault it admits
    assert reached == {(c, k) for c in ["", *VALID] for k in _kinds(c)}


# ------------------------------------------- simulate recipes and bench grids

RECIPE_CASES = 160
NOT_INT_VALUES = ["x", "2.5", "", "1e2", "-3", "0"]
BAD_NAMES = ["a/b", "../up", "x\0y", "w\\v"]


def _numbers(rng, size):
    return ",".join(str(rng.choice([0.5, 1, -0.25, 2])) for _ in range(size))


def _recipe(rng, d):
    """A small valid recipe of dimension d: key -> raw value."""
    kv = {"d": str(d), "T": str(rng.choice([5, 20, 60, 200])),
          "m": str(rng.randint(0, 3))}
    if rng.random() < 0.5:
        kv["rho"] = rng.choice(["0", "0.3", "0.9"])
    if rng.random() < 0.3:
        kv["base"] = rng.choice(["unit_gain", "identity", _numbers(rng, d * d)])
    if rng.random() < 0.3:
        kv["cov"] = rng.choice(["eye", "exch:0.3", ",".join(
            "1" if i % (d + 1) == 0 else "0" for i in range(d * d))])
    if rng.random() < 0.5:
        kv["delta"] = _numbers(rng, d)
        kv["k_star"] = rng.choice(["0.5", "0.25", "none"])
    if rng.random() < 0.3:
        kv["seed"] = str(rng.randint(0, 99))
    return kv


def _fault(rng, kv, d, grid):
    """Put one fault in a recipe (a grid cell's when ``grid``); return the
    lines to append to its block, which hold the fault of a duplicate or a
    header-only key."""
    fault = rng.choice(["int", "base", "cov", "delta", "exch", "duplicate",
                        "header", "m_cap"] + ["name"] * grid)
    if fault == "int":
        kv[rng.choice(["d", "T", "m", "seed"] + ["reps"] * grid)] = \
            rng.choice(NOT_INT_VALUES)
    elif fault in ("base", "cov"):
        kv[fault] = _numbers(rng, d * d + rng.choice([-1, 1]))
    elif fault == "delta":
        kv["delta"] = _numbers(rng, d + 1)
        kv["k_star"] = "0.5"
    elif fault == "exch":
        kv["cov"] = "exch:" + rng.choice(["1", "1.5", "-1", "x"])
    elif fault == "m_cap":
        kv["rho"], kv["m"] = rng.choice([("0", "1000001"), ("0.5", "999990")])
    elif fault == "name":
        kv["cell"] = rng.choice(BAD_NAMES)
    elif fault == "duplicate":
        key = rng.choice(sorted(kv))
        return [f"{key}={kv[key]}"]
    else:
        return [rng.choice(["name=x", "alpha=0.1"])]
    return []


def _lines(kv):
    return [f"{key}={value}" for key, value in kv.items()]


def _config_bytes(rng):
    """A simulate --config file, with a fault in most."""
    d = rng.randint(1, 3)
    kv = _recipe(rng, d)
    extra = _fault(rng, kv, d, grid=False) if rng.random() < 0.6 else []
    lines = _lines(kv)
    rng.shuffle(lines)
    return _encode(rng, lines + extra)


def _grid_bytes(rng):
    """A bench grid of one or two cells, with a fault in most: in one cell,
    or in the header's name or level."""
    d = rng.randint(1, 3)
    header = {"name": "g", "alpha": rng.choice(["0.05", "0.1"])}
    if rng.random() < 0.15:
        header[rng.choice(["name", "alpha"])] = rng.choice(
            BAD_NAMES + ["0.07", "1.5", "x"])
    cells = rng.randint(1, 2)
    faulty = rng.randrange(cells) if rng.random() < 0.5 else None
    lines = _lines(header) + [""]
    for i in range(cells):
        kv = {"cell": f"c{i}", "reps": "1", **_recipe(rng, d)}
        extra = _fault(rng, kv, d, grid=True) if i == faulty else []
        lines += _lines(kv) + extra + [""]
    return _encode(rng, lines)


def _encode(rng, lines):
    """The file's bytes; in some files a byte that is not UTF-8."""
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if rng.random() < 0.08:
        cut = rng.randrange(len(data) + 1)
        data = data[:cut] + b"\xff" + data[cut:]
    return data


def test_error_contract_holds_on_generated_recipes_and_grids(tmp_path, monkeypatch):
    rng = random.Random(20261020)
    codes = {0: 0, 2: 0}
    categories = set()
    for case in range(RECIPE_CASES):
        if rng.random() < 0.5:
            name, data = "r.cfg", _config_bytes(rng)
            argv = ["simulate", "--config", name, "--out", "out/s.csv"]
        else:
            name, data = "g.grid", _grid_bytes(rng)
            argv = ["bench", name, "--reps", "1", "--output-dir", "out"]
        run_dir = tmp_path / str(case)
        run_dir.mkdir()
        (run_dir / name).write_bytes(data)
        monkeypatch.chdir(run_dir)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = cli.main(argv)
        where = f"case {case}: mvcusum {' '.join(argv)}\n{data!r}"
        assert code in (0, 2), f"{where}\nexit {code}: {err.getvalue()}"
        codes[code] += 1
        if code == 0:
            assert err.getvalue() == "", f"{where}\n{err.getvalue()}"
            continue
        assert ERROR_LINE.fullmatch(err.getvalue()), f"{where}\n{err.getvalue()!r}"
        category = err.getvalue().split(":")[1].strip()
        categories.add(category)
        if category != "CellFailures":  # whose outputs record the failures
            assert (out.getvalue(), _files(run_dir)) == ("", [name]), where
    assert min(codes.values()) > RECIPE_CASES // 10, codes
    assert {"GridParseError", "DomainError", "CellFailures"} <= categories, categories
