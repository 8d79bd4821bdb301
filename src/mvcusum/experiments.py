"""Batch benchmark harness: seeded simulation grids, test-then-estimate
replications, and deviation metrics.

A grid is a list of named cells, each a simulation template plus a
replication count. `run_cell` runs one cell into one row: every replication
re-seeds the template at base + rep index, simulates, runs the mean-shift
test, and — when the test rejects — estimates the change point. Deviation
metrics aggregate over the estimating replications only (pass
``always_estimate=True`` to remove the conditioning for sensitivity
analysis). A replication that fails with a toolkit error is recorded on
the row, not silently dropped, and the cell goes on; any other error ends
the cell with one recorded failure. A failed cell never stops the grid.

Grid files are flat key=value blocks separated by blank lines. An optional
first block without a ``cell=`` key sets the grid name, the level, and
per-cell defaults; every other block defines one cell:

    name=table1
    alpha=0.05
    d=2
    T=8000
    reps=30

    cell=weak_m10_half
    m=10
    cov=exch:0.5
    delta=0.5,0.2
    k_star=0.5

Ready-made grids mirroring the benchmark tables ship in package data
(``table1`` .. ``table4``, ``h0``); see `load_shipped_grid`.

A cell block beyond ``cell`` and ``reps`` is a simulation recipe: ``d``,
``T`` and ``m`` are required; ``rho``, ``tol`` and ``seed`` default to the
`SimulationSpec` field defaults (0.5, 1e-12 and 0); ``base``
(``unit_gain``, ``identity`` or d*d numbers) defaults to ``unit_gain``,
``cov`` (``eye``, ``exch:OFF`` or d*d numbers) to ``eye``, and ``delta``
(d numbers or ``none``) and ``k_star`` (a fraction or ``none``) to
``none``. The ``simulate`` command's config file is one block of the same
keys, read by the same builder (`_read_spec`), so this module alone knows
the format.

The grid ``name`` is the stem of every output file name (see
`write_grid_outputs`), so it may not hold ``/``, ``\\`` or a NUL byte, must
be encodable by the file system, and may not make a file name longer than
255 bytes. A ``cell`` value names a row, never a file, and may hold any
character.
"""

from __future__ import annotations

import csv
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from .critical import SHIPPED_GRIDS, CriticalValueTable
from .errors import (DomainError, GridParseError, ToolkitError, _bounds,
                     _check_threads, _open_text)
from .simulate import SimulationSpec, _check_d, exchangeable_cov, gen_series

__all__ = [
    "ExperimentCell",
    "ExperimentGrid",
    "MetricsRow",
    "load_grid",
    "load_shipped_grid",
    "location_label",
    "metrics_from_errors",
    "parse_grid",
    "run_cell",
    "run_grid",
    "write_grid_outputs",
]

@dataclass(frozen=True)
class ExperimentCell:
    """One named simulation template plus its replication count. The
    template's seed acts as the cell's base seed: replication k runs at
    seed base + k."""

    name: str
    template: SimulationSpec
    replications: int

    def __post_init__(self):
        _bounds("replications", 1)(self.replications)


@dataclass(frozen=True)
class ExperimentGrid:
    name: str
    cells: Tuple[ExperimentCell, ...]
    alpha: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must be in (0, 1), got {self.alpha}")
        names = [c.name for c in self.cells]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise DomainError(f"duplicate cell names: {dupes}")


@dataclass(frozen=True)
class MetricsRow:
    """Aggregated outcome of one cell.

    Deviation metrics are over the replications that produced an estimate
    and have a true break time; they are NaN when that set is empty (e.g.
    a null cell, or nothing rejected). ``estimates`` keeps the individual
    break estimates for histogramming; ``failures`` records one line per
    failed replication.
    """

    cell_id: str
    deviation: float
    abs_deviation: float
    rms_deviation: float
    mean_sq_deviation: float
    reject_count: int
    replications: int
    estimates: Tuple[int, ...] = ()
    failures: Tuple[str, ...] = ()


def metrics_from_errors(errors: Sequence[float]):
    """(mean, mean abs, root mean square, mean square) of the estimation
    errors T* - T-hat; all NaN for an empty sample."""
    if len(errors) == 0:
        return math.nan, math.nan, math.nan, math.nan
    e = np.asarray(errors, dtype=np.float64)
    mean_sq = float(np.mean(e * e))
    return float(e.mean()), float(np.abs(e).mean()), math.sqrt(mean_sq), mean_sq


def run_cell(
    cell: ExperimentCell,
    alpha: float,
    table: CriticalValueTable,
    always_estimate: bool = False,
) -> MetricsRow:
    """Run one cell: simulate, test, estimate-on-rejection, aggregate.

    Replication k uses seed ``cell.template.seed + k``. A toolkit error
    inside a replication is recorded in ``failures`` and the remaining
    replications still run. Any other error stops the cell: its row then
    has NaN metrics, no rejections or estimates, and that one error as its
    only failure.
    """
    from .engine import estimate_changepoint, test  # simulate needs neither

    template = cell.template
    rejects, t_star = 0, None
    estimates: list = []
    failures: list = []
    try:
        for rep in range(cell.replications):
            spec = replace(template, seed=template.seed + rep)
            try:
                series, t_star = gen_series(spec)
                result = test(series, alpha, table)
                if result.reject:
                    rejects += 1
                if result.reject or always_estimate:
                    estimates.append(estimate_changepoint(result.curve).t_hat)
            except ToolkitError as exc:
                failures.append(f"rep {rep}: {type(exc).__name__}: {exc}")
    except Exception as exc:  # cell-level isolation
        rejects, estimates = 0, []
        failures = [f"cell: {type(exc).__name__}: {exc}"]
    # every replication of a cell has the same true break time
    errors = [] if t_star is None else [t_star - t for t in estimates]
    dev, abs_dev, rms_dev, mean_sq = metrics_from_errors(errors)
    return MetricsRow(
        cell_id=cell.name,
        deviation=dev,
        abs_deviation=abs_dev,
        rms_deviation=rms_dev,
        mean_sq_deviation=mean_sq,
        reject_count=rejects,
        replications=cell.replications,
        estimates=tuple(estimates),
        failures=tuple(failures),
    )


def run_grid(
    grid: ExperimentGrid,
    table: CriticalValueTable,
    always_estimate: bool = False,
    threads: int = 1,
):
    """Run every cell of a grid with `run_cell` on at most ``threads``
    worker threads; rows come back in grid order, and a failed cell never
    stops the grid. `write_grid_outputs` writes the rows as files.
    """
    _check_threads(threads)

    def one(cell: ExperimentCell) -> MetricsRow:
        return run_cell(cell, grid.alpha, table, always_estimate)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(one, grid.cells))


def location_label(k_star: Optional[float]) -> str:
    """Human-readable break location: 'T/2', 'T/5', ... or 'none'."""
    if k_star is None:
        return "none"
    inverse = 1.0 / k_star
    nearest = round(inverse)
    if nearest >= 1 and abs(inverse - nearest) < 1e-9:
        return f"T/{int(nearest)}"
    return f"{k_star:g}T"


def write_grid_outputs(grid: ExperimentGrid, rows,
                       output_dir) -> tuple[str, str, str]:
    """Emit the grid's artifacts into a directory.

    ``<name>.csv``: one row per cell with the benchmark-table columns
    (change, m-dependence, location, the three deviation metrics) plus the
    raw mean square, reject count, replication count, and failure count.
    ``<name>_hist.csv``: columns ``cell,t_hat``, one row per break estimate
    (cells in grid order, replications in run order), for
    conditional-distribution histograms; written even when nothing was
    estimated, as its header alone. ``summary.txt``: one line per cell and
    a completion tally. All floats use 17 significant digits so reruns are
    byte-comparable. Returns the three paths, in that order, each the file
    name joined to ``output_dir`` by `os.path.join`.
    """
    paths = tuple(os.path.join(output_dir, name) for name in
                  (f"{grid.name}.csv", f"{grid.name}_hist.csv", "summary.txt"))
    table_path, hist_path, summary_path = paths
    Path(output_dir).mkdir(parents=True, exist_ok=True)
    by_name = {cell.name: cell for cell in grid.cells}

    with open(table_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(
            [
                "cell",
                "change",
                "m_dependence",
                "location",
                "T",
                "deviation",
                "abs_deviation",
                "rms_deviation",
                "mean_sq_deviation",
                "reject_count",
                "replications",
                "failures",
            ]
        )
        for row in rows:
            t = by_name[row.cell_id].template
            change = (
                ",".join(format(v, "g") for v in t.delta)
                if t.k_star is not None
                else "0"
            )
            w.writerow(
                [
                    row.cell_id,
                    change,
                    t.m,
                    location_label(t.k_star),
                    t.T,
                    format(row.deviation, ".17g"),
                    format(row.abs_deviation, ".17g"),
                    format(row.rms_deviation, ".17g"),
                    format(row.mean_sq_deviation, ".17g"),
                    row.reject_count,
                    row.replications,
                    len(row.failures),
                ]
            )

    with open(hist_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["cell", "t_hat"])
        for row in rows:
            w.writerows([row.cell_id, t] for t in row.estimates)

    completed = sum(1 for row in rows if not row.failures)
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(f"grid={grid.name} alpha={grid.alpha:g} cells={len(rows)}\n")
        for row in rows:
            fh.write(
                f"cell={row.cell_id} replications={row.replications} "
                f"rejects={row.reject_count} failures={len(row.failures)} "
                f"deviation={row.deviation:.6g} "
                f"abs_deviation={row.abs_deviation:.6g} "
                f"rms_deviation={row.rms_deviation:.6g}\n"
            )
        for row in rows:
            for failure in row.failures:
                fh.write(f"failure {row.cell_id}: {failure}\n")
        fh.write(f"completed={completed}/{len(rows)}\n")
    return paths


# ---------------------------------------------------------------------------
# recipe and grid config files

_HEADER_KEYS = {"name", "alpha"}
# the keys of one simulation recipe, in the order `simulate --help` lists them
_SPEC_KEYS = ("d", "T", "m", "rho", "tol", "base", "cov", "delta", "k_star",
              "seed")
_CELL_KEYS = {"cell", "reps", *_SPEC_KEYS}


def _parse(kind, lineno: int, value: str, source: str):
    """``value`` read as ``kind``, int or float."""
    try:
        return kind(value)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise GridParseError(
            f"{source}:{lineno}: expected {what}, got {value!r}"
        ) from None


def _parse_floats(lineno: int, value: str, source: str, key: str, size: int):
    """The comma-separated numbers of ``key``, which must be ``size``."""
    flat = np.array(
        [_parse(float, lineno, part.strip(), source) for part in value.split(",")]
    )
    if flat.size != size:
        raise GridParseError(
            f"{source}:{lineno}: {key} needs {size} values, got {flat.size}"
        )
    return flat


# the longest output file name is <name>_hist.csv, and most file systems
# take at most 255 bytes in one file name
_NAME_MAX_BYTES = 255 - len("_hist.csv")


def _file_name_part(lineno: int, value: str, source: str) -> str:
    """The grid name ``value``, checked to be usable as the stem of every
    output file name."""
    if any(c in value for c in "/\\\0"):
        raise GridParseError(f"{source}:{lineno}: name may not contain "
                             f"'/', '\\' or NUL, got {value!r}")
    try:
        size = len(os.fsencode(value))
    except UnicodeEncodeError:
        raise GridParseError(
            f"{source}:{lineno}: name is not encodable by the file system "
            f"encoding {sys.getfilesystemencoding()!r}, got {value!r}"
        ) from None
    if size > _NAME_MAX_BYTES:
        raise GridParseError(f"{source}:{lineno}: name may be at most "
                             f"{_NAME_MAX_BYTES} bytes, got {size}")
    return value


def _cell_error(source: str, name: str, exc: ToolkitError) -> GridParseError:
    return GridParseError(f"{source}: cell {name!r}: {type(exc).__name__}: {exc}")


def _build_spec(name: str, kv: dict, source: str, counts=()):
    """The SimulationSpec that the recipe ``kv`` describes, followed by the
    value of each key in ``counts``: further required integers, such as a
    grid cell's ``reps``, that no spec holds.

    kv maps key -> (lineno, raw value), defaults already merged in; its
    keys were checked when the config was read. Missing required keys are
    reported first (d, T, m, then ``counts``), then values that do not
    parse (a d below 1 is rejected once rho, tol and seed parse), then what
    the spec itself rejects.
    """

    def take(key, default):
        return kv.pop(key, (None, default))

    required = ("d", "T", "m", *counts)
    for key in required:
        if key not in kv:
            raise GridParseError(f"{source}: cell {name!r}: missing required key {key!r}")
    d, T, m, *extra = (_parse(int, *kv.pop(key), source) for key in required)
    # keys the recipe leaves out take the SimulationSpec defaults
    given = {key: _parse(kind, *kv.pop(key), source)
             for key, kind in (("rho", float), ("tol", float), ("seed", int))
             if key in kv}
    try:  # the spec's own check, made before d sizes base, cov or delta
        _check_d(d)
    except DomainError as exc:
        raise _cell_error(source, name, exc) from None

    line_base, raw_base = take("base", "unit_gain")
    if raw_base == "unit_gain":
        base = None
    elif raw_base == "identity":
        base = np.eye(d)
    else:
        base = _parse_floats(line_base, raw_base, source, "base", d * d).reshape(d, d)

    line_cov, raw_cov = take("cov", "eye")
    if raw_cov == "eye":
        cov = None
    elif raw_cov.startswith("exch:"):
        off = _parse(float, line_cov, raw_cov[len("exch:"):], source)
        try:
            cov = exchangeable_cov(d, off)
        except ToolkitError as exc:
            raise GridParseError(f"{source}:{line_cov}: {exc}") from exc
    else:
        cov = _parse_floats(line_cov, raw_cov, source, "cov", d * d).reshape(d, d)

    line_delta, raw_delta = take("delta", "none")
    delta = (None if raw_delta == "none"
             else _parse_floats(line_delta, raw_delta, source, "delta", d))

    line_ks, raw_ks = take("k_star", "none")
    k_star = None if raw_ks == "none" else _parse(float, line_ks, raw_ks, source)

    try:
        spec = SimulationSpec(d=d, T=T, m=m, base=base, innovation_cov=cov,
                              delta=delta, k_star=k_star, **given)
    except ToolkitError as exc:
        raise _cell_error(source, name, exc) from exc
    return (spec, *extra)


def _key_value_blocks(lines, source: str, keys, blank_ends_block: bool = True):
    """The ``key=value`` lines of a config, as a list of blocks, each a list
    of (lineno, key, value) with key and value stripped.

    Lines starting with '#' are skipped; so are blank lines, which also end
    a block when ``blank_ends_block`` is true (otherwise the whole text is
    one block). Raises GridParseError with ``source:line`` provenance for a
    line that is not ``key=value`` (an empty key included), a key not in
    ``keys``, and a key repeated within its block.
    """
    blocks: list = []
    current: list = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            if blank_ends_block and current:
                blocks.append(current)
                current = []
            continue
        if line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise GridParseError(
                f"{source}:{lineno}: expected key=value, got {line!r}"
            )
        if key not in keys:
            raise GridParseError(f"{source}:{lineno}: unknown key {key!r}")
        if any(k == key for _, k, _ in current):
            raise GridParseError(f"{source}:{lineno}: duplicate key {key!r}")
        current.append((lineno, key, value.strip()))
    if current:
        blocks.append(current)
    return blocks


def parse_grid(text: str, source: str = "<string>") -> ExperimentGrid:
    """Parse a grid config (see the module docstring for the format).

    Raises GridParseError with ``source:line`` provenance for malformed
    lines, unknown or duplicate keys, missing required keys, and values the
    simulation spec rejects.
    """
    blocks = _key_value_blocks(text.splitlines(), source,
                               _CELL_KEYS | _HEADER_KEYS)
    name = "grid"
    alpha = 0.05
    defaults: dict = {}
    start = 0
    if blocks and not any(key == "cell" for _, key, _ in blocks[0]):
        for lineno, key, value in blocks[0]:
            if key == "name":
                name = _file_name_part(lineno, value, source)
            elif key == "alpha":
                alpha = _parse(float, lineno, value, source)
            else:
                defaults[key] = (lineno, value)
        start = 1

    cells = []
    seen = set()
    for block in blocks[start:]:
        keys = {key: (lineno, value) for lineno, key, value in block}
        if "cell" not in keys:
            raise GridParseError(
                f"{source}:{block[0][0]}: block has no cell= key"
            )
        for lineno, key, _ in block:
            if key in _HEADER_KEYS:
                raise GridParseError(
                    f"{source}:{lineno}: key {key!r} only valid in the header block"
                )
        cell_name = keys.pop("cell")[1]
        if cell_name in seen:
            raise GridParseError(
                f"{source}:{block[0][0]}: duplicate cell {cell_name!r}"
            )
        seen.add(cell_name)
        merged = dict(defaults)
        merged.update(keys)
        template, reps = _build_spec(cell_name, merged, source, ("reps",))
        try:
            cells.append(ExperimentCell(cell_name, template, reps))
        except ToolkitError as exc:
            raise _cell_error(source, cell_name, exc) from exc

    try:
        return ExperimentGrid(name=name, cells=tuple(cells), alpha=alpha)
    except DomainError as exc:
        raise GridParseError(f"{source}: {exc}") from exc


def _read_spec(path, overrides) -> SimulationSpec:
    """The recipe of one series: the keys of the config file at ``path``
    (None for no file), each replaced by the value under the same key in
    ``overrides`` unless that is None.

    The file is one block: blank lines do not end it, and a key may appear
    only once in it. Errors name the file, or ``command line`` without one,
    and an overriding value by its flag, ``--k-star`` for ``k_star``.
    """
    kv = {}
    if path is not None:
        with _open_text(path, GridParseError) as fh:
            kv = {key: (lineno, value)
                  for block in _key_value_blocks(fh, path, _SPEC_KEYS,
                                                 blank_ends_block=False)
                  for lineno, key, value in block}
    for key in _SPEC_KEYS:
        if overrides.get(key) is not None:
            kv[key] = ("--" + key.replace("_", "-"), str(overrides[key]))
    (spec,) = _build_spec("simulate", kv, path or "command line")
    return spec


def load_grid(path) -> ExperimentGrid:
    """Parse a grid config file."""
    with _open_text(path, GridParseError) as fh:
        return parse_grid(fh.read(), source=str(path))


def load_shipped_grid(name: str) -> ExperimentGrid:
    """One of the packaged benchmark grids: table1..table4 or h0."""
    if name not in SHIPPED_GRIDS:
        raise DomainError(
            f"no grid file or shipped grid named {name!r}; "
            "shipped grids: " + ", ".join(SHIPPED_GRIDS)
        )
    ref = resources.files("mvcusum").joinpath(f"data/{name}.grid")
    with resources.as_file(ref) as path:
        return load_grid(path)
