"""Run one mvcusum command in this process with a span around every call
into the package's public functions, then write the spans as JSON.

Usage (with the package importable, e.g. PYTHONPATH=src):

    python3 perfbench/traced.py SPANS.json -- detect in.csv --scan

Each listed function is replaced at every binding a caller can reach it
through: the defining module, any ``from ... import`` copy in another
mvcusum module (``cli.load_csv``, ``engine.long_run_covariance``,
``experiments._run_test``, ...) and the package namespace.  A span is
``[name, start_ns, end_ns, parent, stats]``; spans stay in memory until the
command returns.  The command's stdout and exit code are those of
``python -m mvcusum``.  The package is imported only when run as a
script, so run.py can import the tables below.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
import tracemalloc

# layer -> public functions traced in it
LAYERS = {
    "cli": ("main",),
    "series": ("load_csv", "write_csv", "center"),
    "spectral": ("long_run_covariance", "dft", "smoothed_spectrum"),
    "engine": ("test", "cusum", "quadform", "estimate_changepoint",
               "scan_extrema", "export_curve_csv"),
    "critical": ("default_table", "critical_value"),
    "simulate": ("gen_series", "gen_innovations"),
    "experiments": ("run_cell", "write_grid_outputs"),
}
SPAN_STATS = ("calls", "s", "self_s")


def _file_mb(bound, param):
    return os.path.getsize(bound.arguments[param]) / 1e6


# Per-call stats, (function, stat) -> f(signature-bound arguments, result).
# Sizes are computed from files and arrays, in MB of 1e6 bytes.
CALL_STATS = {
    ("series.load_csv", "in_mb"): lambda b, r: _file_mb(b, "path"),
    ("series.write_csv", "out_mb"): lambda b, r: _file_mb(b, "path"),
    ("engine.export_curve_csv", "out_mb"): lambda b, r: _file_mb(b, "path"),
    ("spectral.dft", "out_mb"): lambda b, r: (r.ordinates.nbytes + r.js.nbytes) / 1e6,
    ("spectral.long_run_covariance", "ordinate_ratio"):
        lambda b, r: (2 * r.h_used + 1) / r.N,
    ("experiments.run_cell", "failed_reps"): lambda b, r: len(r.failures),
}
# Functions whose peak traced allocation (tracemalloc) is kept as peak_mb,
# with the argument whose ``.values`` sizes a call.  Only a call on a larger
# array than any traced before runs under tracemalloc, which slows every
# allocation: the peak is assumed to grow with the input.
PEAK_MEMORY = {"spectral.long_run_covariance": "series"}
# Stats aggregated over calls by maximum; every other stat is summed.
MAX_STATS = ("peak_mb", "ordinate_ratio")


class Recorder:
    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, func):
        stats = [(stat, f) for (n, stat), f in CALL_STATS.items() if n == name]
        sized_by = PEAK_MEMORY.get(name)
        signature = inspect.signature(func)
        largest = [0]

        @functools.wraps(func)
        def traced(*args, **kwargs):
            peak = False
            if sized_by is not None:
                nbytes = signature.bind(*args, **kwargs).arguments[sized_by].values.nbytes
                peak = nbytes > largest[0]
                largest[0] = max(largest[0], nbytes)
            index = len(self.spans)
            span = [name, time.perf_counter_ns(), None,
                    self._open[-1] if self._open else -1, {}]
            self.spans.append(span)
            self._open.append(index)
            if peak:
                tracemalloc.start()
            try:
                result = func(*args, **kwargs)
            finally:
                if peak:
                    span[4]["peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
                    tracemalloc.stop()
                span[2] = time.perf_counter_ns()
                self._open.pop()
            if stats:
                bound = signature.bind(*args, **kwargs)
                span[4].update((stat, f(bound, result)) for stat, f in stats)
            return result

        return traced


def install(recorder):
    """Replace every binding of each listed function by its traced wrapper."""
    for layer in LAYERS:
        importlib.import_module("mvcusum." + layer)
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "mvcusum" or n.startswith("mvcusum.")]
    for layer, names in LAYERS.items():
        module = sys.modules["mvcusum." + layer]
        for name in names:
            original = getattr(module, name)
            wrapper = recorder.wrap(f"{layer}.{name}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py SPANS.json -- MVCUSUM_ARGS...", file=sys.stderr)
        return 2
    recorder = Recorder()
    install(recorder)
    code = sys.modules["mvcusum.cli"].main(argv[2:])
    sys.stdout.flush()
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(recorder.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
