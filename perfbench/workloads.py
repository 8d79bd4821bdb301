"""The three workloads: the commands each pass runs, and the correctness
properties of each command's output.

Every command runs with the pass's output directory as its working
directory and names its files by relative paths, so stdout and file digests
do not depend on where the checkout lives.  The generated input sits one
level up, as ``../in.csv``.

A check returns the problems it found in one command's output; that
command is one operation.  ``check_bench`` returns ``(attempted, failed,
problems)`` instead, because each replication is an operation too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

_KEY_LINE = re.compile(r"^(\w+)=(.*)$")
_CELL_FAILURES = re.compile(
    r"^cell \S+: reject \d+/\d+ mean_abs_dev=\S+ failures=(\d+)$")

TEST_KEYS = ("statistic", "critical_value", "alpha", "reject", "d", "h_used",
             "ridge_applied", "sigma_diag")
ESTIMATE_KEYS = ("t_hat", "k_hat", "method", "curve_value")
SCAN_KEYS = ("smoothing_window", "min_prominence", "extrema_count")

# Shipped grid table1: 10 cells x 30 replications, T = 8000, d = 2.
GRID_CELLS = 10
GRID_REPS = 30
GRID_T, GRID_D = 8000, 2
CLI_T = 100_000


@dataclass(frozen=True)
class Outcome:
    code: int
    stdout: str
    outdir: Path


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple
    check: Callable  # (Outcome, ctx) -> problems, or (attempted, failed, problems)


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json says why each was chosen."""

    name: str
    input_T: int | None  # rows of the generated ../in.csv (None: no input)
    commands: Callable  # (seed) -> tuple of Command


def _key_values(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        m = _KEY_LINE.match(line)
        if m:
            out[m.group(1)] = m.group(2)
    return out


def _line_count(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def _require(outcome: Outcome, keys) -> tuple[dict, list]:
    problems = [] if outcome.code == 0 else [f"exit code {outcome.code}"]
    kv = _key_values(outcome.stdout)
    problems += [f"missing {k}=" for k in keys if k not in kv]
    return kv, problems


def _file_lines(outdir: Path, name: str, expected: int) -> list:
    path = outdir / name
    if not path.is_file():
        return [f"missing file {name}"]
    n = _line_count(path)
    return [] if n == expected else [f"{name}: {n} lines, expected {expected}"]


def _near_break(kv, T, breaks) -> list:
    try:
        t_hat = int(kv["t_hat"])
    except (KeyError, ValueError):
        return ["no integer t_hat"]
    if min(abs(t_hat - b) for b in breaks) > 0.005 * T:
        return [f"t_hat={t_hat} not within 0.5% of T of a break in {breaks}"]
    return []


def _check_detect(outcome, keys):
    kv, problems = _require(outcome, TEST_KEYS + ESTIMATE_KEYS + SCAN_KEYS + keys)
    if kv.get("reject") != "true":
        problems.append(f"reject={kv.get('reject')}, expected true")
    if not kv.get("extrema_count", "0").isdigit() or int(kv["extrema_count"]) < 1:
        problems.append(f"extrema_count={kv.get('extrema_count')}, expected >= 1")
    return kv, problems


def check_detect_scan(outcome, ctx):
    """detect --scan: also the estimate within 0.5% of T of a planted break.
    The estimate's error does not shrink with T (at most 814 rows over 16
    seeds at T = 1e6, above 500 on 11 of 100 seeds at 1e5), so this check
    is made at T = 1e6 only."""
    kv, problems = _check_detect(outcome, ())
    return problems + _near_break(kv, ctx["T"], ctx["break_rows"])


def check_detect_curve(outcome, ctx):
    """detect --scan --emit-curve: the curve file has N + 1 rows and a header."""
    _, problems = _check_detect(outcome, ("curve",))
    return problems + _file_lines(outcome.outdir, "curve.csv", ctx["T"] + 2)


def check_simulate(outcome, ctx):
    _, problems = _require(outcome, ("series", "meta", "T", "d", "t_star"))
    problems += _file_lines(outcome.outdir, "series.csv", ctx["T"] + 1)
    if not (outcome.outdir / "series.csv.meta").is_file():
        problems.append("missing file series.csv.meta")
    return problems


def check_spectrum(outcome, ctx):
    d = ctx["d"]
    keys = ("T", "d", "h_used", "ridge_applied", "spectrum") + tuple(
        f"sigma_{i}" for i in range(d))
    _, problems = _require(outcome, keys)
    return problems + _file_lines(outcome.outdir, "spec.csv", 258)


def check_critval(outcome, ctx):
    kv, problems = _require(outcome, ("d", "alpha", "value", "paths", "grid",
                                      "seed", "stderr_estimate", "source"))
    if kv.get("source") != "cache":
        problems.append(f"source={kv.get('source')}, expected cache")
    return problems


def check_bench(outcome, ctx):
    """One operation for the command and one per replication.  A replication
    fails when its cell reports it failed, or when its cell line is absent."""
    kv, problems = _require(outcome, ("grid", "completed"))
    cell_failures = [int(m.group(1)) for m in map(_CELL_FAILURES.match,
                                                  outcome.stdout.splitlines()) if m]
    if len(cell_failures) != GRID_CELLS:
        problems.append(f"{len(cell_failures)} cell lines, expected {GRID_CELLS}")
    for name in ("table1.csv", "summary.txt"):
        if not (outcome.outdir / "grid" / name).is_file():
            problems.append(f"missing file grid/{name}")
    failed_reps = sum(cell_failures)
    failed_reps += GRID_REPS * max(0, GRID_CELLS - len(cell_failures))
    if not failed_reps and kv.get("completed") != f"{GRID_CELLS}/{GRID_CELLS}":
        problems.append(f"completed={kv.get('completed')}, expected "
                        f"{GRID_CELLS}/{GRID_CELLS}")
    failed = int(bool(problems)) + failed_reps
    if failed_reps:
        problems.append(f"{failed_reps} failed replications")
    return 1 + GRID_CELLS * GRID_REPS, failed, problems


def _detect_1m(seed):
    return (Command("detect", ("detect", "../in.csv", "--scan"), check_detect_scan),)


def _grid_table1(seed):
    return (Command("bench", ("bench", "table1", "--threads", "1",
                              "--output-dir", "grid"), check_bench),)


def _cli_1e5(seed):
    return (
        Command("simulate", ("simulate", "--d", "5", "--T", str(CLI_T), "--m", "10",
                             "--cov", "exch:0.5", "--delta", "0.2,0.2,0.2,0.2,0.2",
                             "--k-star", "0.4", "--seed", str(seed)),
                check_simulate),
        Command("detect", ("detect", "../in.csv", "--scan", "--emit-curve",
                           "curve.csv"),
                check_detect_curve),
        Command("spectrum", ("spectrum", "../in.csv", "--out", "spec.csv"),
                check_spectrum),
        Command("critval", ("critval", "--d", "5", "--alpha", "0.05"),
                check_critval),
    )


WORKLOADS = {
    w.name: w for w in (
        Workload("detect_1m", 1_000_000, _detect_1m),
        Workload("grid_table1", None, _grid_table1),
        Workload("cli_1e5", CLI_T, _cli_1e5),
    )
}
