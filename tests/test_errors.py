"""The one integer rule: every count is an integral value and never a bool,
and a refused count raises DomainError naming its setting."""

import math

import numpy as np
import pytest

from mvcusum import errors
from mvcusum.critical import (
    _check_dimension,
    _check_grid,
    _check_paths,
    critical_value,
    default_table,
)
from mvcusum.engine import cusum, quadform, scan_extrema
from mvcusum.errors import DomainError
from mvcusum.experiments import ExperimentCell, ExperimentGrid, run_grid
from mvcusum.series import load_csv
from mvcusum.simulate import SimulationSpec, _check_d, gen_series
from mvcusum.spectral import long_run_covariance, smoothed_spectrum

NOT_INTEGERS = [2.5, 2.0, math.nan, math.inf, True, np.True_, None, "3"]


@pytest.mark.parametrize("check, what", [
    (_check_dimension, "dimension"), (_check_paths, "paths"),
    (_check_grid, "grid"), (errors._check_seed, "seed"),
    (errors._check_reps, "replication override"),
    (errors._check_threads, "thread cap"), (errors._check_skip_rows, "skip_rows"),
    (_check_d, "d"),
], ids=["dimension", "paths", "grid", "seed", "reps", "threads", "skip_rows", "d"])
def test_every_bound_refuses_a_value_that_is_not_an_integer(check, what):
    for value in NOT_INTEGERS:
        with pytest.raises(DomainError) as exc:
            check(value)
        assert str(exc.value) == f"{what} must be an integer, got {value}"
    check(np.int64(3))
    check(np.uint8(3))


def test_is_int_takes_integers_and_no_bool():
    assert all(errors._is_int(v) for v in (0, -7, 2**70, np.int64(3), np.uint8(3)))
    assert not any(errors._is_int(v) for v in NOT_INTEGERS)


def _series():
    return gen_series(SimulationSpec(2, 100, 0))[0]


def test_critical_value_refuses_a_seed_or_paths_that_is_not_an_integer():
    # the shipped table holds d = 2 at 5%: a hit is refused as a miss is
    with pytest.raises(DomainError) as exc:
        critical_value(2, 0.05, default_table(), seed=2.5)
    assert str(exc.value) == "seed must be an integer, got 2.5"
    with pytest.raises(DomainError) as exc:
        critical_value(2, 0.05, None, paths=math.nan, grid=100, seed=1)
    assert str(exc.value) == "paths must be an integer, got nan"


@pytest.mark.parametrize("skip_rows", [1.5, True])
def test_load_csv_refuses_skip_rows_that_is_not_an_integer(tmp_path, skip_rows):
    path = tmp_path / "x.csv"
    path.write_text("a,b\n1,2\n3,4\n5,6\n")
    with pytest.raises(DomainError) as exc:
        load_csv(path, skip_rows=skip_rows)
    assert str(exc.value) == f"skip_rows must be an integer, got {skip_rows}"


def test_cell_and_grid_refuse_counts_that_are_not_integers():
    template = SimulationSpec(2, 100, 0)
    with pytest.raises(DomainError) as exc:
        ExperimentCell("c", template, 2.5)
    assert str(exc.value) == "replications must be an integer, got 2.5"
    grid = ExperimentGrid("g", (ExperimentCell("c", template, 1),))
    with pytest.raises(DomainError) as exc:
        run_grid(grid, default_table(), threads=1.5)
    assert str(exc.value) == "thread cap must be an integer, got 1.5"


@pytest.mark.parametrize("h", [math.nan, math.inf, True])
def test_smoothed_spectrum_refuses_a_bandwidth_that_is_not_an_integer(h):
    with pytest.raises(DomainError) as exc:
        smoothed_spectrum(_series(), h, [0.0])
    assert str(exc.value) == f"bandwidth must be a positive integer, got {h}"


@pytest.mark.parametrize("window", [math.nan, math.inf, True])
def test_scan_extrema_refuses_a_window_that_is_not_an_integer(window):
    s = _series()
    curve = quadform(cusum(s), long_run_covariance(s))
    with pytest.raises(DomainError) as exc:
        scan_extrema(curve, smoothing_window=window)
    assert str(exc.value) == f"smoothing window must be odd and >= 1, got {window}"
