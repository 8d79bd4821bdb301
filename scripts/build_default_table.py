"""Regenerate the critical-value table shipped in package data.

One simulation per dimension at the default budget; the three shipped levels
take their quantiles (with per-level standard errors) from that run, so a
row's provenance is the run that actually produced it.  Output is written to
src/mvcusum/data/critical_values.csv (or --out), and only when the values
pass `CriticalValueTable.check_monotone`; otherwise the first violation is
printed to stderr, nothing is written, and the exit status is 1.

Usage: python scripts/build_default_table.py [--dims 1..10]
       [--alphas 0.10,0.05,0.01] [--paths 200000] [--grid 10000] [--out PATH]
"""

import argparse
import pathlib
import sys
import time

from mvcusum.critical import (
    DEFAULT_GRID,
    DEFAULT_PATHS,
    CriticalValueTable,
    _entry,
    default_seed,
    simulate_sup_bridges,
)
from mvcusum.errors import DomainError

DEFAULT_OUT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "src"
    / "mvcusum"
    / "data"
    / "critical_values.csv"
)


def parse_dims(text):
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dims", default="1..10")
    ap.add_argument("--alphas", default="0.10,0.05,0.01")
    ap.add_argument("--paths", type=int, default=DEFAULT_PATHS)
    ap.add_argument("--grid", type=int, default=DEFAULT_GRID)
    ap.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    args = ap.parse_args(argv)

    dims = parse_dims(args.dims)
    alphas = [float(a) for a in args.alphas.split(",")]
    table = CriticalValueTable()
    for d in dims:
        seed = default_seed(d)
        t0 = time.time()
        sups = simulate_sup_bridges(d, args.paths, args.grid, seed)
        for alpha in alphas:
            table.put(d, alpha, _entry(sups, alpha, args.grid, seed))
        done = "  ".join(
            f"a={a}: {table.get(d, a).value:.5f}" for a in alphas
        )
        print(f"d={d} seed={seed}  {done}  ({time.time() - t0:.0f}s)", flush=True)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    try:
        table.save_csv(args.out)
    except DomainError as exc:
        print(f"error: {exc}; nothing written", file=sys.stderr)
        return 1
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
