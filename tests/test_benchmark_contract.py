"""The benchmark's tracer (perfbench/traced.py) wraps package functions by
name and reads their parameters and result fields; a refactor of the package
that renames any of them breaks ``perfbench/run.py --trace 1``.  These tests
load the tracer as it is and run it on a small input."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mvcusum
from mvcusum.series import MultivariateSeries, write_csv

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


@pytest.fixture(scope="module")
def traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(traced):
    for layer, names in traced.LAYERS.items():
        module = importlib.import_module("mvcusum." + layer)
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    for qualname, param in traced.PEAK_MEMORY.items():
        layer, name = qualname.split(".")
        func = getattr(importlib.import_module("mvcusum." + layer), name)
        assert param in inspect.signature(func).parameters, qualname


def _run_traced(tmp_path, *argv):
    env = dict(os.environ)
    pkg_root = str(Path(mvcusum.__file__).resolve().parent.parent)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = pkg_root + (os.pathsep + old if old else "")
    spans_path = tmp_path / "spans.json"
    result = subprocess.run(
        [sys.executable, str(TRACED), str(spans_path), "--", *argv],
        capture_output=True, text=True, cwd=tmp_path, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(spans_path.read_text())


# run with --reps 2: two cells of two replications each, so run_cell and
# long_run_covariance are called again and again in one process
_GRID = ("name=tiny\nd=2\nT=64\nm=1\nreps=1\n\n"
         "cell=h0\n\n"
         "cell=shift\ndelta=1,1\nk_star=0.5\n")


@pytest.mark.parametrize(
    "argv, out_mb",
    [
        (("spectrum", "in.csv"), ("spectral.dft",)),
        (("bench", "tiny.grid", "--reps", "2"), ("spectral.dft",)),
        (("simulate", "--d", "2", "--T", "64", "--m", "1"), ("series.write_csv",)),
        (("detect", "in.csv", "--scan", "--emit-curve", "curve.csv"),
         ("spectral.dft", "engine.export_curve_csv")),
    ],
    ids=["spectrum", "bench", "simulate", "detect-emit-curve"],
)
def test_traced_commands_run(tmp_path, argv, out_mb):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(64, 2))
    x[32:] += 1.0
    write_csv(MultivariateSeries(x), tmp_path / "in.csv")
    (tmp_path / "tiny.grid").write_text(_GRID)
    stats = {}
    for name, _, _, _, span_stats in _run_traced(tmp_path, *argv):
        stats.setdefault(name, []).append(span_stats)
    for name in out_mb:
        assert stats[name], name
        assert all("out_mb" in s for s in stats[name]), name
    if argv[0] in ("detect", "spectrum"):
        # in_mb is read through load_csv's ``path`` argument
        in_mb = os.path.getsize(tmp_path / "in.csv") / 1e6
        loads = stats["series.load_csv"]
        assert loads and all(s["in_mb"] == in_mb for s in loads)
    if argv[0] in ("detect", "bench"):
        lrcov = stats["spectral.long_run_covariance"]
        assert all("ordinate_ratio" in s for s in lrcov)
        assert any("peak_mb" in s for s in lrcov)
    if argv[0] == "bench":
        cells = stats["experiments.run_cell"]
        assert len(cells) == 2
        assert all("failed_reps" in s for s in cells)
        assert len(stats["spectral.long_run_covariance"]) == 4
    if argv[0] == "spectrum":
        # one periodogram serves both the covariance and the exported grid
        assert len(stats["spectral.dft"]) == 1
        assert len(stats["spectral.smoothed_spectrum"]) == 1
