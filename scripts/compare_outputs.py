"""Compare what the command line does under two source trees of mvcusum.

Runs one fixed set of commands as ``python -m mvcusum``, once with each
``src`` root on PYTHONPATH, every run in a fresh empty directory. For each
command it compares the exit code, stdout, stderr and the sha256 of every
file the run leaves behind (a directory counts too, so an output directory
made before an error shows). Prints each mismatch and exits 1 if there is
any, else 0.

The command set: detect (plain, ``--scan --emit-curve``, two ``--two-pass``
variants, ``--transform center|diff``, ``--columns``), estimate (both
methods), ``scan --emit-curve`` and spectrum (default, ``--freqs 2``,
``--h 7``, ``--h 100000``) on a 1e5 x 5 and a 16 x 3 input; detect and
spectrum with ``--skip-rows 1`` on a CRLF input with a quoted-newline
preamble, padded quoted ``Date`` stamps and a quoted ``n,#k`` column, and
its bad-column and unskipped-preamble errors; the errors of a bad cell,
``nan``, an empty cell, 1 row, a header only, an empty file, a missing
file, a missing column and a missing date column; a ``1_000`` input; two
simulates; a cached critval; ``bench table1``. Then: a dated price table
(date column found by name and named by ``--date-column``) and the same
table without its date column; missing inputs with outputs in a
subdirectory; simulate configs with blank and comment lines, an empty key
and a key repeated across a blank line; a grid with an empty key; critval
misses at a small Monte Carlo budget; ``detect --help``. Last: a bad cell
and an unknown simulate key with outputs in a subdirectory, ``scan
--min-prominence nan``, ``--skip-rows -1``, and a ``--two-pass --method
norm_argmax`` pilot on a 2-row and a dated input.

The inputs are written here with the standard library, so neither tree's
reader, writer or simulator decides what the commands read.

Usage: python scripts/compare_outputs.py OLD_SRC NEW_SRC
  e.g. OLD_SRC = src/ of a checkout of the parent commit, NEW_SRC = src
"""

import difflib
import hashlib
import math
import os
import random
import subprocess
import sys
import tempfile

IN = "../../../inputs/"  # the inputs, seen from a run directory


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
    put("dated.csv", "\n".join(",".join(r) for r in [head] + prices) + "\n")
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
    # beyond the 49 above: the date column, missing inputs, config readers
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
    # beyond the 65 above: outputs of a bad input, rejected flag values and
    # the norm_argmax pilot
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
    return cmds


def run(src, argv, cwd):
    os.makedirs(cwd)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-m", "mvcusum", *argv], cwd=cwd,
                          env=env, capture_output=True, timeout=900)
    files = {}
    for dirpath, dirnames, filenames in os.walk(cwd):
        for name in dirnames:
            files[os.path.relpath(os.path.join(dirpath, name), cwd) + "/"] = "dir"
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, cwd)] = hashlib.sha256(fh.read()).hexdigest()
    return proc.returncode, proc.stdout, proc.stderr, files


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
            succeeded += new[0] == 0
            problems = compare(old, new)
            if problems:
                mismatched += 1
                print(f"[{i}] mvcusum {' '.join(cmd)}")
                print("\n".join(problems))
    print(f"{len(cmds)} commands ({succeeded} exit 0 under NEW), "
          f"{mismatched} with a difference")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
