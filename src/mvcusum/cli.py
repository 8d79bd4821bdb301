"""Command-line pipeline around the detection toolkit.

One executable, seven subcommands: ``simulate`` draws synthetic series from
the linear-process model, ``spectrum`` reports the long-run covariance and
exports a smoothed-spectrum grid, ``detect`` runs the mean-shift test (and
optionally the change-point estimate, the multi-break scan, and the curve
export), ``estimate`` and ``scan`` expose those two pieces alone,
``critval`` queries or extends a critical-value table, and ``bench`` runs a
benchmark grid of simulation cells.

Exit codes: 0 success, 1 stdout closed by its reader, 2 usage or data
problems (every deliberate toolkit error), 3 unexpected internal failures.
Errors print one machine-parseable line to stderr: ``error: <Category>:
<message>``.  `main` alone picks the exit code and prints that line: the
parser raises `UsageError` rather than print its usage, and a ``cmd_*``
returns nothing or raises (`bench` raises `CellFailures` once its outputs
are written).  Stdout writes a character its encoding lacks as its
backslash escape, so no line fails to print.  All file outputs are plain
CSV or key=value text, and every subcommand is bit-reproducible given the
same flags and seed.

Each setting that needs no data is checked as the parser reads it (its
argparse type calls the setting's check in `errors`), in command-line
order before any file is opened; a check that needs the data runs once the
input is read.

The module imports only the standard library, `errors` and `critical`, and
each ``cmd_*`` imports the modules it runs, so ``--help``, a usage error and
a ``critval`` answered from the table never load numpy.
"""

from __future__ import annotations

import argparse
import codecs
import os
import sys
from dataclasses import replace
from typing import TYPE_CHECKING

from .critical import (
    DEFAULT_GRID,
    DEFAULT_PATHS,
    SHIPPED_GRIDS,
    CriticalValueTable,
    critical_value,
    default_table,
)
from .errors import (_MAX_VALUES, CellFailures, DomainError, ToolkitError,
                     TooShort, UsageError, _check_bandwidth, _check_freqs,
                     _check_level, _check_prominence, _check_reps,
                     _check_trim, _check_window)

if TYPE_CHECKING:
    from .series import MultivariateSeries

__all__ = ["build_parser", "main"]

_TRANSFORMS = ("none", "log", "diff")


def _apply_transform(series: MultivariateSeries, name: str) -> MultivariateSeries:
    """Pre-analysis value transform: none, log, or diff.

    ``diff`` drops the first row; ``log`` insists on strictly positive
    values rather than silently producing -inf.
    """
    import numpy as np

    from .series import MultivariateSeries

    if name == "none":
        return series
    if name == "log":
        if np.any(series.values <= 0.0):
            raise DomainError("log transform needs strictly positive values")
        return MultivariateSeries(np.log(series.values), labels=series.labels,
                                  _fresh=True)
    if series.T < 3:  # diff: the parser's choices admit no other name
        raise TooShort(
            f"differencing needs at least 3 observations, got {series.T}"
        )
    return MultivariateSeries(np.diff(series.values, axis=0),
                              labels=series.labels, _fresh=True)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _fmt_floats(arr) -> str:
    import numpy as np

    return ",".join(_fmt(v) for v in np.asarray(arr, dtype=float).ravel())


def _resolve_out(path) -> str:
    """Make an output path's directory; a relative path is shown as ./path."""
    p = os.fspath(path)
    if not os.path.isabs(p):
        p = os.path.join(".", p)
    os.makedirs(os.path.dirname(p), exist_ok=True)
    return p


def _load_table(path) -> CriticalValueTable:
    return default_table() if path is None else CriticalValueTable.load_csv(path)


def _load_input(args) -> MultivariateSeries:
    """Load the input CSV per --columns, --date-column and --skip-rows, then
    apply --transform."""
    from .series import load_csv

    columns = ()
    if args.columns:
        columns = tuple(c.strip() for c in args.columns.split(","))
    series = load_csv(args.input, columns, args.date_column, args.skip_rows)
    return _apply_transform(series, args.transform)


def _print_estimate(est) -> None:
    print(f"t_hat={est.t_hat}")
    print(f"k_hat={_fmt(est.k_hat)}")
    print(f"method={est.method}")
    print(f"curve_value={_fmt(est.curve_value)}")


def _print_scan(scan) -> None:
    print(f"smoothing_window={scan.smoothing_window}")
    print(f"min_prominence={_fmt(scan.min_prominence)}")
    for e in scan.extrema:
        print(f"extremum index={e.index} kind={e.kind} "
              f"value={_fmt(e.value)} prominence={_fmt(e.prominence)}")
    print(f"extrema_count={len(scan.extrema)}")


# ------------------------------------------------------------------ simulate


def _write_sim_meta(path, spec, t_star) -> None:
    lines = [
        f"d={spec.d}",
        f"T={spec.T}",
        f"m={spec.m}",
        "kind=geometric",
        f"rho={_fmt(spec.rho)}",
        f"k_max={spec.K_max}",
        f"seed={spec.seed}",
        f"k_star={'none' if spec.k_star is None else _fmt(spec.k_star)}",
        f"t_star={'none' if t_star is None else t_star}",
        f"delta={_fmt_floats(spec.delta)}",
        f"innovation_cov={_fmt_floats(spec.innovation_cov)}",
        f"base={_fmt_floats(spec.base)}",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_simulate(args) -> None:
    """Draw one series from the recipe in --config, overridden by the
    recipe flags (their dests are the recipe keys), and write it with its
    .meta sidecar once it is drawn."""
    from .experiments import _read_spec
    from .series import write_csv
    from .simulate import gen_series

    spec = _read_spec(args.config, vars(args))
    series, t_star = gen_series(spec)
    out = _resolve_out(args.out)
    meta_out = _resolve_out(args.meta) if args.meta else out + ".meta"
    write_csv(series, out)
    _write_sim_meta(meta_out, spec, t_star)
    print(f"series={out}")
    print(f"meta={meta_out}")
    print(f"T={spec.T}")
    print(f"d={spec.d}")
    print(f"t_star={'none' if t_star is None else t_star}")


# ------------------------------------------------------------------ spectrum


def cmd_spectrum(args) -> None:
    from .spectral import _spectrum_and_covariance, export_spectrum_csv

    series = _load_input(args)
    if args.freqs * series.d ** 2 > _MAX_VALUES:
        raise DomainError(f"{args.freqs} frequencies times d*d={series.d ** 2} "
                          f"exceeds {_MAX_VALUES} spectrum values; lower --freqs")
    omegas, spectrum, lr = _spectrum_and_covariance(series, args.h, args.freqs)
    out = _resolve_out(args.out)
    export_spectrum_csv(out, omegas, spectrum)
    print(f"T={series.T}")
    print(f"d={series.d}")
    print(f"h_used={lr.h_used}")
    print(f"ridge_applied={_fmt(lr.ridge_applied)}")
    for i in range(series.d):
        print(f"sigma_{i}={_fmt_floats(lr.sigma[i])}")
    print(f"spectrum={out}")


# -------------------------------------------------------------------- detect


def _print_test(result) -> None:
    print(f"statistic={_fmt(result.statistic)}")
    print(f"critical_value={_fmt(result.critical_value)}")
    print(f"alpha={_fmt(result.alpha)}")
    print(f"reject={'true' if result.reject else 'false'}")
    print(f"d={result.d}")
    print(f"h_used={result.sigma.h_used}")
    print(f"ridge_applied={_fmt(result.sigma.ridge_applied)}")
    print(f"sigma_diag={_fmt_floats(result.sigma.sigma.diagonal())}")


def _write_curve(args, curve):
    """Write the curve to --emit-curve and return the path, or None without
    the flag. Called once every statistic is computed, so a failed run
    leaves no directory behind."""
    from . import engine

    if not args.emit_curve:
        return None
    out = _resolve_out(args.emit_curve)
    engine.export_curve_csv(curve, out)
    return out


def cmd_detect(args) -> None:
    """Test, then estimate (on rejection) and scan (with --scan). Every
    result is computed and the curve written before the first line is
    printed, so a failing step prints nothing and writes nothing."""
    from . import engine

    table = _load_table(args.table)
    series = _load_input(args)
    result = engine.test(series, args.alpha, table, h=args.h)
    est = scan = None
    if result.reject:
        est = engine.estimate_changepoint(result.curve, method=args.method,
                                          trim=args.trim)
    if args.scan:
        scan = engine.scan_extrema(result.curve, args.smoothing_window,
                                   args.min_prominence, args.trim)
    curve_out = _write_curve(args, result.curve)
    _print_test(result)
    if result.reject:
        _print_estimate(est)
    if args.scan:
        _print_scan(scan)
    if curve_out:
        print(f"curve={curve_out}")


# --------------------------------------------------------- estimate and scan


def cmd_estimate(args) -> None:
    """Only ``quadform_argmax`` reads the long-run covariance and the
    quadratic form, so only it studentizes the curve and reads --h."""
    from . import engine

    series = _load_input(args)
    if args.method == "quadform_argmax":
        curve = engine.studentize(series, args.h)[1]
    else:
        curve = engine.cusum(series)
    _print_estimate(engine.estimate_changepoint(curve, method=args.method,
                                                trim=args.trim))


def cmd_scan(args) -> None:
    from . import engine

    series = _load_input(args)
    curve = engine.studentize(series, args.h)[1]
    scan = engine.scan_extrema(curve, args.smoothing_window,
                               args.min_prominence, args.trim)
    curve_out = _write_curve(args, curve)
    _print_scan(scan)
    if curve_out:
        print(f"curve={curve_out}")


# ------------------------------------------------------------------- critval


def cmd_critval(args) -> None:
    if args.table and not os.path.exists(args.table):
        table = CriticalValueTable()  # a new --table file starts empty
    else:
        table = _load_table(args.table)
    cached = table.get(args.d, args.alpha) is not None
    critical_value(args.d, args.alpha, table, args.paths, args.grid, args.seed)
    entry = table.get(args.d, args.alpha)
    if args.table and not cached:
        _resolve_out(args.table)  # makes the table's directory
        table.save_csv(args.table)
    print(f"d={args.d}")
    print(f"alpha={_fmt(args.alpha)}")
    print(f"value={_fmt(entry.value)}")
    print(f"paths={entry.paths}")
    print(f"grid={entry.grid}")
    print(f"seed={entry.seed}")
    print(f"stderr_estimate={_fmt(entry.stderr_estimate)}")
    print(f"source={'cache' if cached else 'computed'}")
    if args.table:
        print(f"table={args.table}")


# --------------------------------------------------------------------- bench


def cmd_bench(args) -> None:
    from .experiments import (
        load_grid,
        load_shipped_grid,
        run_grid,
        write_grid_outputs,
    )

    path = args.grid  # a file, a pipe or a FIFO, else a shipped grid's name
    grid = (load_grid(path) if os.path.exists(path) and not os.path.isdir(path)
            else load_shipped_grid(path))
    table = _load_table(args.table)
    if args.reps is not None:
        grid = replace(grid, cells=tuple(
            replace(cell, replications=args.reps) for cell in grid.cells
        ))
    rows = run_grid(grid, table, always_estimate=args.always_estimate,
                    threads=args.threads)
    paths = write_grid_outputs(grid, rows, args.output_dir or ".")
    failures = 0
    for row in rows:
        failures += len(row.failures)
        print(f"cell {row.cell_id}: reject {row.reject_count}/{row.replications} "
              f"mean_abs_dev={_fmt(row.abs_deviation)} "
              f"failures={len(row.failures)}")
    print(f"grid={grid.name}")
    for path in paths:
        print(f"wrote {path}")
    completed = sum(1 for row in rows if not row.failures)
    print(f"completed={completed}/{len(rows)}")
    if failures and not args.keep_going:
        raise CellFailures(f"{failures} failed replications across the grid")


# -------------------------------------------------------------------- parser


def _add_input_flags(sub) -> None:
    sub.add_argument("input", help="input CSV file (header row, comma separated)")
    sub.add_argument("--columns", default=None, metavar="NAMES",
                     help="comma-separated column names to load (default: "
                          "every column except the date column)")
    sub.add_argument("--date-column", default=None, metavar="NAME",
                     help="date column, left out of the values (default: "
                          "a column named 'date', if present)")
    sub.add_argument("--skip-rows", type=int, default=0, metavar="N",
                     help="CSV records to skip before the header row "
                          "(default: 0)")
    sub.add_argument("--transform", choices=_TRANSFORMS, default="none",
                     help="pre-analysis transform (default: none)")


def _checked(parse, check):
    """An argparse type: ``parse`` the text, then ``check`` the value. It
    carries ``parse``'s name, so bad text reads ``invalid int value``."""
    def convert(text):
        value = parse(text)
        check(value)
        return value
    convert.__name__ = parse.__name__
    return convert


def _add_bandwidth_flag(sub) -> None:
    sub.add_argument("--h", type=_checked(int, _check_bandwidth),
                     default=None, metavar="H",
                     help="periodogram smoothing half-width (default: "
                          "integer fourth root of T)")


def _add_seed_flag(sub) -> None:
    sub.add_argument("--seed", type=int, default=None,
                     help="integer seed override (default: per-command "
                          "deterministic default)")


def _add_scan_flags(sub) -> None:
    sub.add_argument("--smoothing-window", type=_checked(int, _check_window),
                     default=None, metavar="W",
                     help="odd moving-average width for the scan (default: "
                          "2*floor(T^(1/4))+1)")
    sub.add_argument("--min-prominence",
                     type=_checked(float, _check_prominence),
                     default=None, metavar="P",
                     help="prominence floor for scan extrema (default: 10%% "
                          "of the smoothed curve's range)")


class _Parser(argparse.ArgumentParser):
    """Raises usage errors for `main` to report and takes each flag only as
    spelled in full; subparsers share the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mvcusum",
        description="Offline mean-shift detection for multivariate series: "
                    "CUSUM test, change-point estimates, spectral long-run "
                    "covariance, Monte Carlo critical values, simulation "
                    "benchmarks.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True,
                                 metavar="subcommand")

    sim = subs.add_parser(
        "simulate",
        help="draw one synthetic series and write it as CSV",
        description="Draw one series from the geometric linear-process "
                    "model with m-dependent Gaussian innovations and an "
                    "optional mean shift; writes the series CSV plus a "
                    "key=value .meta sidecar.")
    sim.add_argument("--config", default=None, metavar="FILE",
                     help="key=value file with the simulation keys "
                          "(d, T, m, rho, tol, base, cov, delta, k_star, "
                          "seed); flags override it")
    sim.add_argument("--d", type=int, default=None, help="dimension")
    sim.add_argument("--T", type=int, default=None, help="series length")
    sim.add_argument("--m", type=int, default=None,
                     help="innovation dependence range")
    sim.add_argument("--rho", type=float, default=None,
                     help="filter decay rate (default: 0.5)")
    sim.add_argument("--tol", type=float, default=None,
                     help="filter truncation tolerance (default: 1e-12)")
    sim.add_argument("--base", default=None,
                     help="filter base matrix: unit_gain, identity, or d*d "
                          "comma-separated values (default: unit_gain)")
    sim.add_argument("--cov", default=None,
                     help="innovation covariance: eye, exch:OFF, or d*d "
                          "comma-separated values (default: eye)")
    sim.add_argument("--delta", default=None,
                     help="mean-shift vector, comma separated (default: none)")
    sim.add_argument("--k-star", dest="k_star", default=None,
                     help="break fraction in (0,1), or none (default: none)")
    sim.add_argument("--out", default="series.csv", metavar="FILE",
                     help="output series CSV (default: series.csv)")
    sim.add_argument("--meta", default=None, metavar="FILE",
                     help="metadata sidecar path (default: <out>.meta)")
    _add_seed_flag(sim)
    sim.set_defaults(func=cmd_simulate)

    spec = subs.add_parser(
        "spectrum",
        help="long-run covariance and smoothed-spectrum export",
        description="Estimate the smoothed spectral density of a series, "
                    "print the long-run covariance (2*pi times the real "
                    "part at frequency zero), and export the spectrum over "
                    "an evenly spaced frequency grid.")
    _add_input_flags(spec)
    _add_bandwidth_flag(spec)
    spec.add_argument("--freqs", type=_checked(int, _check_freqs),
                      default=257, metavar="N",
                      help="number of grid frequencies in [0, pi] "
                           "(default: 257)")
    spec.add_argument("--out", default="spectrum.csv", metavar="FILE",
                      help="output spectrum CSV (default: spectrum.csv)")
    spec.set_defaults(func=cmd_spectrum)

    det = subs.add_parser(
        "detect",
        help="mean-shift test, with optional estimate, scan, and curve export",
        description="Run the CUSUM mean-shift test on a series; on "
                    "rejection also print the change-point estimate. "
                    "--scan adds the local-extrema reading for multiple "
                    "breaks, --emit-curve exports the test curve.")
    _add_input_flags(det)
    _add_bandwidth_flag(det)
    det.add_argument("--alpha", type=_checked(float, _check_level),
                     default=0.05, help="significance level (default: 0.05)")
    det.add_argument("--table", default=None, metavar="FILE",
                     help="critical-value table CSV (default: the shipped "
                          "table)")
    det.add_argument("--method", choices=("quadform_argmax", "norm_argmax"),
                     default="quadform_argmax",
                     help="change-point estimator (default: quadform_argmax)")
    det.add_argument("--trim", type=_checked(float, _check_trim), default=0.0,
                     help="fraction of the grid excluded at each end for "
                          "estimates and scans (default: 0)")
    det.add_argument("--scan", action="store_true",
                     help="also list local extrema of the test curve")
    det.add_argument("--emit-curve", default=None, metavar="FILE",
                     help="write the test curve to this CSV")
    _add_scan_flags(det)
    det.set_defaults(func=cmd_detect)

    est = subs.add_parser(
        "estimate",
        help="change-point estimate without the test",
        description="Argmax change-point estimate on a series (no "
                    "hypothesis test).")
    _add_input_flags(est)
    _add_bandwidth_flag(est)
    est.add_argument("--method", choices=("quadform_argmax", "norm_argmax"),
                     default="quadform_argmax",
                     help="estimator (default: quadform_argmax)")
    est.add_argument("--trim", type=_checked(float, _check_trim), default=0.0,
                     help="fraction of the grid excluded at each end "
                          "(default: 0)")
    est.set_defaults(func=cmd_estimate)

    scn = subs.add_parser(
        "scan",
        help="local extrema of the test curve (multiple breaks)",
        description="Smooth the studentized test curve and list its local "
                    "extrema, a reading surface for multiple mean shifts.")
    _add_input_flags(scn)
    _add_bandwidth_flag(scn)
    _add_scan_flags(scn)
    scn.add_argument("--trim", type=_checked(float, _check_trim), default=0.0,
                     help="fraction of the grid excluded at each end "
                          "(default: 0)")
    scn.add_argument("--emit-curve", default=None, metavar="FILE",
                     help="write the test curve to this CSV (the same file "
                          "as detect --emit-curve)")
    scn.set_defaults(func=cmd_scan)

    crit = subs.add_parser(
        "critval",
        help="look up or compute a critical value",
        description="Look up the critical value for (d, alpha) in a table, "
                    "simulating it at the given Monte Carlo budget on a "
                    "miss; with --table the result is persisted back to "
                    "the file.")
    crit.add_argument("--d", type=int, required=True, help="dimension")
    crit.add_argument("--alpha", type=_checked(float, _check_level),
                      default=0.05, help="significance level (default: 0.05)")
    crit.add_argument("--paths", type=int, default=DEFAULT_PATHS,
                      help=f"Monte Carlo paths (default: {DEFAULT_PATHS})")
    crit.add_argument("--grid", type=int, default=DEFAULT_GRID,
                      help=f"time-grid resolution (default: {DEFAULT_GRID})")
    crit.add_argument("--table", default=None, metavar="FILE",
                      help="table CSV to read and extend (default: the "
                           "shipped table, read-only)")
    _add_seed_flag(crit)
    crit.set_defaults(func=cmd_critval)

    ben = subs.add_parser(
        "bench",
        help="run a benchmark grid of simulation cells",
        description="Run every cell of a benchmark grid (a file, or a "
                    "shipped name: " + ", ".join(SHIPPED_GRIDS) + ") and "
                    "write the per-cell table, one histogram file of the "
                    "break estimates, and a summary into the output "
                    "directory.")
    ben.add_argument("grid", help="grid file path or shipped grid name")
    ben.add_argument("--reps", type=_checked(int, _check_reps), default=None,
                     help="override the replication count of every cell")
    ben.add_argument("--table", default=None, metavar="FILE",
                     help="critical-value table CSV (default: the shipped "
                          "table)")
    ben.add_argument("--always-estimate", action="store_true",
                     help="estimate the break on every replication, not "
                          "only on rejections")
    ben.add_argument("--keep-going", action="store_true",
                     help="exit 0 even when some replications fail")
    ben.add_argument("--threads", type=int, default=1,
                     help="worker thread cap for bench cells (default: 1)")
    ben.add_argument("--output-dir", default=None, metavar="DIR",
                     help="directory for <name>.csv, <name>_hist.csv and "
                          "summary.txt, where <name> is the grid's name "
                          "(default: current directory)")
    ben.set_defaults(func=cmd_bench)
    return parser


def _escape_unencodable(exc):
    """Error handler for stdout: a character its encoding lacks (a
    non-ASCII cell name under the C locale) is written as its backslash
    escape, and a lone surrogate that carries an undecodable byte of a
    command-line path as that byte, as ``surrogateescape`` writes it."""
    out = b""
    for ch in exc.object[exc.start:exc.end]:
        if "\udc80" <= ch <= "\udcff":
            out += bytes([ord(ch) - 0xDC00])
        else:
            out += ch.encode("ascii", "backslashreplace")
    return out, exc.end


codecs.register_error("mvcusum.stdout", _escape_unencodable)


def main(argv=None) -> int:
    code = 0
    reconfigure = getattr(sys.stdout, "reconfigure", None)
    if reconfigure is not None:
        reconfigure(errors="mvcusum.stdout")
    try:
        try:
            args = build_parser().parse_args(argv)
            args.func(args)
        except SystemExit:  # --help, after printing its text
            pass
        except BrokenPipeError:
            raise
        except (ToolkitError, OSError) as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            code = 2
        except Exception as exc:  # safety net: anything else is a bug
            print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
            code = 3
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
    except BrokenPipeError:
        # end quietly, as a filter does; stdout now goes to devnull, so the
        # flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    return code
