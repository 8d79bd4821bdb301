"""Offline multivariate change-point detection toolkit.

Detects a mean shift in d-dimensional dependent time series with a CUSUM
test studentized by a spectral long-run covariance estimate, against the
sup of a sum of squared independent Brownian bridges. Includes change-point
estimators, a multiple-change extrema scan, Monte Carlo critical values,
an m-dependent linear-process simulator, and a benchmark harness.
"""

import os as _os
import sys as _sys

# One BLAS thread unless the caller chose otherwise. The dense algebra here
# is d x d plus a convolution, which gain nothing from a parallel BLAS:
# OpenBLAS's idle workers only burn CPU, and its threaded dot products make
# a long filter (simulate at rho near 1) round differently with the core
# count. The variable acts only when numpy loads OpenBLAS; once numpy is
# imported, setting it would only leak to child processes.
if "numpy" not in _sys.modules:
    _os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# Each public name and the submodule that defines it. A submodule (and numpy
# with it) is imported on the first use of one of its names (PEP 562), so
# `import mvcusum` and the commands that need no numpy do not pay for it.
_EXPORTS = {name: module for module, names in {
    "errors": ("BandwidthTooLarge", "DegenerateSpectrum", "DimensionMismatch",
               "DomainError", "GridParseError", "MissingColumn",
               "MissingCriticalValue", "NonFinite", "NonNumericCell",
               "TooShort", "ToolkitError"),
    "spectral": ("LongRunCovariance", "Periodogram", "default_bandwidth", "dft",
                 "export_spectrum_csv", "long_run_covariance",
                 "smoothed_spectrum"),
    "series": ("MultivariateSeries", "center", "load_csv", "write_csv"),
    "engine": ("ChangePointEstimate", "CusumCurve", "ExtremaScan", "Extremum",
               "TestResult", "cusum", "estimate_changepoint",
               "export_curve_csv", "quadform", "scan_extrema",
               "studentize"),
    "critical": ("CriticalEntry", "CriticalValueTable", "critical_value",
                 "default_table", "simulate_sup_bridges"),
    "simulate": ("SimulationSpec", "exchangeable_cov", "gen_series"),
    "experiments": ("ExperimentCell", "ExperimentGrid", "MetricsRow",
                    "load_grid", "load_shipped_grid", "metrics_from_errors",
                    "parse_grid", "run_cell", "run_grid"),
}.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name):
    from importlib import import_module

    if name in _EXPORTS:
        return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    if name in _EXPORTS.values():  # a submodule, as after an eager import
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
