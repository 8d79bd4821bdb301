import csv
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvcusum import engine, experiments
from mvcusum.critical import CriticalEntry, CriticalValueTable
from mvcusum.engine import cusum, estimate_changepoint, quadform
from mvcusum.errors import DomainError, GridParseError, ToolkitError
from mvcusum.experiments import (
    ExperimentCell,
    ExperimentGrid,
    MetricsRow,
    load_shipped_grid,
    location_label,
    metrics_from_errors,
    parse_grid,
    run_cell,
    run_grid,
    write_grid_outputs,
)
from mvcusum.experiments import _read_spec
from mvcusum.simulate import SimulationSpec, exchangeable_cov, gen_series
from mvcusum.spectral import long_run_covariance


def fake_table(pairs):
    """Critical-value table with handpicked values (provenance is dummy)."""
    t = CriticalValueTable()
    for d, alpha, value in pairs:
        t.put(d, alpha, CriticalEntry(value, paths=1, grid=2, seed=0, stderr_estimate=0.0))
    return t


def ha_template(d=2, T=300, m=2, delta=(2.0, 2.0), k_star=0.5, seed=0, **kw):
    return SimulationSpec(
        d=d,
        T=T,
        m=m,
        innovation_cov=exchangeable_cov(d, 0.5),
        delta=np.asarray(delta, float),
        k_star=k_star,
        seed=seed,
        **kw,
    )


# ---------------------------------------------------------------- metrics


def test_metrics_hand_values():
    dev, abs_dev, rms, mean_sq = metrics_from_errors([3.0, -1.0])
    assert dev == 1.0
    assert abs_dev == 2.0
    assert mean_sq == 5.0
    assert rms == math.sqrt(5.0)


def test_metrics_empty_is_nan():
    out = metrics_from_errors([])
    assert all(math.isnan(v) for v in out)


@given(st.lists(st.integers(min_value=-10_000, max_value=10_000), min_size=1, max_size=60))
@settings(max_examples=200, deadline=None)
def test_metric_inequalities(errors):
    dev, abs_dev, rms, mean_sq = metrics_from_errors(errors)
    assert abs(dev) <= abs_dev + 1e-12
    assert abs_dev <= rms + 1e-12
    assert rms**2 == pytest.approx(mean_sq, rel=1e-12)


# ---------------------------------------------------------------- run_cell


def studentized_curve(series):
    """The quadform curve, built independently of `engine.test`."""
    return quadform(cusum(series), long_run_covariance(series))


def manual_cell(template, reps, alpha, table, always=False):
    """Protocol oracle: the documented per-rep sequence, written out."""
    rejects, errors, estimates, failures = 0, [], [], []
    for rep in range(reps):
        spec = replace(template, seed=template.seed + rep)
        try:
            series, t_star = gen_series(spec)
            result = engine.test(series, alpha, table)
            if result.reject:
                rejects += 1
            if result.reject or always:
                est = estimate_changepoint(studentized_curve(series),
                                           method="quadform_argmax")
                estimates.append(est.t_hat)
                if t_star is not None:
                    errors.append(t_star - est.t_hat)
        except ToolkitError as exc:
            failures.append(f"rep {rep}: {type(exc).__name__}: {exc}")
    return rejects, errors, estimates, failures


def test_run_cell_matches_manual_protocol():
    table = fake_table([(2, 0.05, 2.2)])
    template = ha_template(seed=40)
    row = run_cell(ExperimentCell("x", template, 6), 0.05, table)
    rejects, errors, estimates, failures = manual_cell(template, 6, 0.05, table)
    assert row.cell_id == "x"
    assert row.reject_count == rejects
    assert row.estimates == tuple(estimates)
    assert row.failures == tuple(failures)
    dev, abs_dev, rms, mean_sq = metrics_from_errors(errors)
    assert (row.deviation, row.abs_deviation, row.rms_deviation, row.mean_sq_deviation) == (
        dev,
        abs_dev,
        rms,
        mean_sq,
    )
    assert row.replications == 6


def test_run_cell_seeds_are_base_plus_rep():
    # rep k of the cell reproduces a standalone simulation at seed base+k
    table = fake_table([(2, 0.05, 1e-9)])
    template = ha_template(seed=17)
    row = run_cell(ExperimentCell("cell", template, 3), 0.05, table)
    for rep in range(3):
        series, _ = gen_series(replace(template, seed=17 + rep))
        est = estimate_changepoint(studentized_curve(series),
                                   method="quadform_argmax")
        assert row.estimates[rep] == est.t_hat


def test_run_cell_estimates_covariance_once_per_rep(monkeypatch):
    # every rep rejects and is estimated, from the test's own curve
    calls = []

    def counted(*args, _f=engine.long_run_covariance, **kwargs):
        calls.append(1)
        return _f(*args, **kwargs)

    monkeypatch.setattr(engine, "long_run_covariance", counted)
    row = run_cell(ExperimentCell("cell", ha_template(seed=17), 3), 0.05,
                   fake_table([(2, 0.05, 1e-9)]))
    assert len(row.estimates) == 3
    assert len(calls) == 3


def test_run_cell_conditions_on_rejection():
    # mixed-decision cell: only rejecting reps contribute estimates
    table = fake_table([(2, 0.05, 2.2)])
    template = ha_template(delta=(0.35, 0.1), seed=100)
    cell = ExperimentCell("mixed", template, 12)
    row = run_cell(cell, 0.05, table)
    assert 0 < row.reject_count < 12  # the cell truly mixes decisions
    assert len(row.estimates) == row.reject_count
    always = run_cell(cell, 0.05, table, always_estimate=True)
    assert always.reject_count == row.reject_count
    assert len(always.estimates) == 12
    # the rejecting reps' estimates are a subsequence of the full set
    assert set(row.estimates) <= set(always.estimates)


def test_run_cell_h0_metrics_are_nan():
    # no true break: reject counting still works, deviation metrics are NaN
    table = fake_table([(2, 0.05, 1e-9)])  # everything rejects
    template = SimulationSpec(d=2, T=150, m=1, seed=3)
    row = run_cell(ExperimentCell("cell", template, 4), 0.05, table)
    assert row.reject_count == 4
    assert len(row.estimates) == 4
    assert all(1 <= t < 150 for t in row.estimates)
    for v in (row.deviation, row.abs_deviation, row.rms_deviation, row.mean_sq_deviation):
        assert math.isnan(v)


def test_run_cell_no_rejections_no_estimates():
    table = fake_table([(2, 0.05, 1e9)])  # nothing rejects
    row = run_cell(ExperimentCell("cell", ha_template(seed=5), 3), 0.05, table)
    assert row.reject_count == 0
    assert row.estimates == ()
    assert math.isnan(row.abs_deviation)


def test_run_cell_records_linalg_failures():
    # filter columns at 1e-160 and 1e-244: the long-run covariance underflows
    # to a singular matrix in floating point, so every rep fails in the test
    # stage with DegenerateSpectrum (not LinAlgError), recorded per rep
    table = fake_table([(2, 0.05, 2.2)])
    template = SimulationSpec(
        d=2,
        T=100,
        m=0,
        base=np.diag([1e-160, 1e-244]),
        seed=0,
    )
    row = run_cell(ExperimentCell("cell", template, 3), 0.05, table)
    assert len(row.failures) == 3
    assert all("DegenerateSpectrum: long-run covariance has no finite inverse"
               in f for f in row.failures)
    assert [f"rep {i}" in f for i, f in enumerate(row.failures)] == [True] * 3
    assert row.reject_count == 0 and row.estimates == ()


def test_run_cell_records_toolkit_failures():
    # zero filter base makes the series constant: the test stage raises
    # DegenerateSpectrum per rep, recorded per rep, and the cell goes on
    table = fake_table([(2, 0.05, 2.2)])
    template = SimulationSpec(
        d=2,
        T=100,
        m=0,
        base=np.zeros((2, 2)),
        seed=0,
    )
    row = run_cell(ExperimentCell("cell", template, 3), 0.05, table)
    assert len(row.failures) == 3
    assert all("DegenerateSpectrum" in f for f in row.failures)
    assert [f"rep {i}" in f for i, f in enumerate(row.failures)] == [True] * 3
    assert row.reject_count == 0 and row.estimates == ()


def test_run_cell_deterministic():
    table = fake_table([(2, 0.05, 2.2)])
    cell = ExperimentCell("r", ha_template(seed=9), 4)
    assert run_cell(cell, 0.05, table) == run_cell(cell, 0.05, table)


def test_run_cell_isolates_an_unexpected_error(monkeypatch):
    # an error that is neither a toolkit nor a linear-algebra error ends the
    # cell: NaN metrics, no rejections or estimates, one cell-level failure
    def gen_series_or_raise(spec, _f=gen_series):
        if spec.seed == 1:
            raise RuntimeError("boom")
        return _f(spec)

    monkeypatch.setattr(experiments, "gen_series", gen_series_or_raise)
    table = fake_table([(2, 0.05, 1e-9)])  # everything rejects
    row = run_cell(ExperimentCell("c", ha_template(seed=0), 3), 0.05, table)
    assert row.cell_id == "c"
    assert all(math.isnan(v) for v in (row.deviation, row.abs_deviation,
                                       row.rms_deviation, row.mean_sq_deviation))
    assert (row.reject_count, row.replications, row.estimates) == (0, 3, ())
    assert row.failures == ("cell: RuntimeError: boom",)


# ---------------------------------------------------------------- grid types


def test_grid_validates_alpha_and_duplicate_cells():
    cell = ExperimentCell("a", ha_template(), 2)
    with pytest.raises(DomainError):
        ExperimentGrid(name="g", cells=(cell,), alpha=1.5)
    with pytest.raises(DomainError):
        ExperimentGrid(name="g", cells=(cell, cell), alpha=0.05)


def test_cell_validates_replications():
    with pytest.raises(DomainError):
        ExperimentCell("a", ha_template(), 0)


# ---------------------------------------------------------------- run_grid


def mini_grid(name="table9"):
    return ExperimentGrid(
        name=name,
        cells=(
            ExperimentCell("cell_a", ha_template(seed=0), 2),
            ExperimentCell("cell_b", ha_template(seed=50, k_star=0.2), 2),
        ),
        alpha=0.05,
    )


def test_run_grid_rows_match_run_cell():
    table = fake_table([(2, 0.05, 1e-9)])
    grid = mini_grid()
    rows = run_grid(grid, table)
    assert [r.cell_id for r in rows] == ["cell_a", "cell_b"]
    for cell, row in zip(grid.cells, rows):
        assert row == run_cell(cell, grid.alpha, table)


def test_run_grid_bit_reproducible():
    table = fake_table([(2, 0.05, 1e-9)])
    assert run_grid(mini_grid(), table) == run_grid(mini_grid(), table)


def test_run_grid_threads_match_sequential():
    table = fake_table([(2, 0.05, 1e-9)])
    assert run_grid(mini_grid(), table, threads=2) == run_grid(mini_grid(), table)


def test_run_grid_refuses_a_thread_cap_below_one():
    with pytest.raises(DomainError, match=r"^thread cap must be >= 1, got 0$"):
        run_grid(mini_grid(), fake_table([(2, 0.05, 1e-9)]), threads=0)


def test_run_grid_empty_grid(tmp_path):
    table = fake_table([])
    grid = ExperimentGrid(name="empty", cells=(), alpha=0.05)
    rows = run_grid(grid, table)
    paths = write_grid_outputs(grid, rows, tmp_path)
    assert paths == tuple(os.path.join(tmp_path, name) for name in
                          ("empty.csv", "empty_hist.csv", "summary.txt"))
    assert rows == []
    text = (tmp_path / "empty.csv").read_text()
    assert text.count("\n") == 1  # header only
    assert (tmp_path / "summary.txt").exists()


def test_run_grid_isolates_cell_failures(tmp_path):
    # one poisoned cell (zero base: a constant series) does not stop the other
    table = fake_table([(2, 0.05, 1e-9)])
    bad = SimulationSpec(d=2, T=100, m=0, base=np.zeros((2, 2)), seed=0)
    grid = ExperimentGrid(
        name="mix",
        cells=(
            ExperimentCell("good", ha_template(seed=0), 2),
            ExperimentCell("bad", bad, 2),
        ),
    )
    rows = run_grid(grid, table)
    write_grid_outputs(grid, rows, tmp_path)
    assert rows[0].failures == () and rows[0].reject_count == 2
    assert len(rows[1].failures) == 2
    summary = (tmp_path / "summary.txt").read_text()
    assert "completed=1/2" in summary


def test_run_grid_isolates_a_cell_that_raises(monkeypatch):
    # an exception outside the per-replication handling becomes that cell's
    # row: NaN metrics, no rejections and one cell-level failure line
    table = fake_table([(2, 0.05, 1e-9)])
    grid = mini_grid()
    good = run_grid(grid, table)[1]

    def gen_series_or_raise(spec, _f=gen_series):
        if spec.seed == 1:  # the second replication of cell_a
            raise RuntimeError("boom")
        return _f(spec)

    monkeypatch.setattr(experiments, "gen_series", gen_series_or_raise)
    bad, other = run_grid(grid, table)
    assert bad.cell_id == "cell_a"
    assert all(math.isnan(v) for v in (bad.deviation, bad.abs_deviation,
                                       bad.rms_deviation, bad.mean_sq_deviation))
    assert (bad.reject_count, bad.replications, bad.estimates) == (0, 2, ())
    assert bad.failures == ("cell: RuntimeError: boom",)
    assert other == good


def test_run_grid_artifacts(tmp_path):
    table = fake_table([(2, 0.05, 1e-9)])
    grid = mini_grid(name="table9")
    rows = run_grid(grid, table)
    write_grid_outputs(grid, rows, tmp_path)

    with open(tmp_path / "table9.csv", newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == [
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
    assert len(got) == 3
    assert got[1][0] == "cell_a"
    assert got[1][1] == "2,2"
    assert got[1][2] == "2"
    assert got[1][3] == "T/2"
    assert got[2][3] == "T/5"
    assert float(got[1][5]) == rows[0].deviation
    assert int(got[1][9]) == rows[0].reject_count

    # one histogram file: a (cell, t_hat) row per estimated rep, in grid
    # order
    with open(tmp_path / "table9_hist.csv", newline="") as fh:
        lines = list(csv.reader(fh))
    assert lines[0] == ["cell", "t_hat"]
    assert [(r[0], int(r[1])) for r in lines[1:]] == [
        (row.cell_id, t) for row in rows for t in row.estimates]
    assert len(lines) > 1
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "summary.txt", "table9.csv", "table9_hist.csv"]

    summary = (tmp_path / "summary.txt").read_text()
    assert "grid=table9" in summary and "cell=cell_a" in summary
    assert "completed=2/2" in summary


def test_run_grid_five_variate_cell():
    # five-dimensional cell with exchangeable innovations runs end to end
    # and its metrics satisfy the row invariants
    table = fake_table([(5, 0.05, 1e-9)])
    template = ha_template(
        d=5, T=256, m=2, delta=(0.5, 1.2, 0.5, 0.5, 0.5), k_star=0.5, seed=0
    )
    grid = ExperimentGrid(name="g5", cells=(ExperimentCell("five", template, 2),))
    (row,) = run_grid(grid, table)
    assert row.reject_count == 2
    assert abs(row.deviation) <= row.abs_deviation <= row.rms_deviation
    assert row.rms_deviation**2 == pytest.approx(row.mean_sq_deviation, rel=1e-12)


# ---------------------------------------------------------------- labels


def test_location_labels():
    assert location_label(None) == "none"
    assert location_label(0.5) == "T/2"
    assert location_label(0.2) == "T/5"
    assert location_label(1 / 3) == "T/3"
    assert location_label(0.37) == "0.37T"


# ---------------------------------------------------------------- config parsing


GOOD = """\
# demo grid
name=demo
alpha=0.10
d=2
T=64
m=1
reps=2

cell=a
delta=0.5,0.2
k_star=0.5

cell=b
m=3
cov=exch:0.5
seed=7
"""


def test_parse_grid_good():
    g = parse_grid(GOOD)
    assert g.name == "demo"
    assert g.alpha == 0.10
    assert [c.name for c in g.cells] == ["a", "b"]
    a, b = g.cells
    assert a.template.T == 64 and a.template.d == 2 and a.template.m == 1
    assert a.replications == 2 and a.template.seed == 0
    np.testing.assert_array_equal(a.template.delta, [0.5, 0.2])
    assert a.template.k_star == 0.5
    assert b.template.m == 3 and b.template.seed == 7
    assert b.template.k_star is None
    np.testing.assert_array_equal(b.template.innovation_cov, exchangeable_cov(2, 0.5))


def test_parse_grid_header_only_is_empty_grid():
    g = parse_grid("name=empty\nalpha=0.05\n")
    assert g.cells == () and g.name == "empty"


def test_parse_grid_unknown_key_line():
    with pytest.raises(GridParseError, match=r":4: unknown key 'bogus'"):
        parse_grid("name=x\n\ncell=a\nbogus=1\n")
    with pytest.raises(GridParseError, match=r":2: unknown key 'metrics'"):
        parse_grid("name=x\nmetrics=deviation\n\ncell=a\nd=1\nT=32\nm=0\nreps=1\n")


def test_parse_grid_not_key_value_line():
    with pytest.raises(GridParseError, match=r":2: expected key=value"):
        parse_grid("name=x\njust some words\n")


def test_parse_grid_empty_key_line():
    with pytest.raises(GridParseError, match=r":2: expected key=value, got '=5'"):
        parse_grid("name=x\n=5\n")


def test_parse_grid_bad_number_line():
    with pytest.raises(GridParseError, match=r":5: "):
        parse_grid("cell=a\nd=2\nT=64\nm=1\nreps=two\n")


def test_parse_grid_duplicate_key_line():
    with pytest.raises(GridParseError, match=r":3: duplicate key 'T'"):
        parse_grid("cell=a\nT=64\nT=65\nd=2\nm=1\nreps=2\n")


def test_parse_grid_missing_required():
    with pytest.raises(GridParseError, match=r"cell 'a'.*'T'"):
        parse_grid("cell=a\nd=2\nm=1\nreps=2\n")


def test_parse_grid_duplicate_cell_name():
    text = "cell=a\nd=1\nT=32\nm=0\nreps=1\n\ncell=a\nd=1\nT=32\nm=0\nreps=1\n"
    with pytest.raises(GridParseError, match=r"duplicate cell 'a'"):
        parse_grid(text)


def test_parse_grid_block_without_cell_key():
    text = "name=x\n\nd=2\nT=64\nm=1\nreps=2\n"
    with pytest.raises(GridParseError, match=r"no cell="):
        parse_grid(text)


def test_parse_grid_explicit_cov_and_base():
    text = (
        "cell=a\nd=2\nT=64\nm=0\nreps=1\n"
        "cov=1.0,0.25,0.25,1.0\nbase=identity\nrho=0.0\n"
    )
    (cell,) = parse_grid(text).cells
    np.testing.assert_array_equal(
        cell.template.innovation_cov, [[1.0, 0.25], [0.25, 1.0]]
    )
    np.testing.assert_array_equal(cell.template.base, np.eye(2))
    assert cell.template.K_max == 0


def test_parse_grid_base_matrix_and_unit_gain():
    text = "cell=a\nd=2\nT=64\nm=0\nreps=1\nbase=2,0,1,1\n"
    (cell,) = parse_grid(text).cells
    np.testing.assert_array_equal(cell.template.base, [[2.0, 0.0], [1.0, 1.0]])
    text2 = "cell=a\nd=2\nT=64\nm=0\nreps=1\nbase=unit_gain\n"
    (cell2,) = parse_grid(text2).cells
    np.testing.assert_array_equal(cell2.template.base, 0.5 * np.eye(2))


def test_parse_grid_wrong_cov_length():
    with pytest.raises(GridParseError, match=r"cov"):
        parse_grid("cell=a\nd=2\nT=64\nm=0\nreps=1\ncov=1.0,0.5\n")


def test_parse_grid_invalid_spec_names_cell():
    # k_star outside (0,1) passes parsing but fails spec validation; the
    # parse error names the offending cell
    text = "cell=a\nd=2\nT=64\nm=0\nreps=1\ndelta=1,1\nk_star=1.5\n"
    with pytest.raises(GridParseError, match=r"cell 'a'"):
        parse_grid(text)


@pytest.mark.parametrize(
    "text, message",
    [("cell=a\nT=64\nm=1\n", "g: cell 'a': missing required key 'd'"),
     ("cell=a\nd=2\nT=64\nm=1\n", "g: cell 'a': missing required key 'reps'"),
     # every missing key is reported before any value that does not parse
     ("cell=a\nd=x\nT=64\nm=1\n", "g: cell 'a': missing required key 'reps'"),
     ("cell=a\nd=x\nT=64\nm=1\nreps=y\n", "g:2: expected an integer, got 'x'"),
     ("cell=a\nd=2\nT=64\nm=1\nreps=y\nrho=z\n",
      "g:5: expected an integer, got 'y'"),
     ("cell=a\nd=2\nT=64\nm=1\nreps=0\nrho=z\n", "g:6: expected a number, got 'z'"),
     ("cell=a\nd=2\nT=64\nm=1\nreps=0\ncov=1,2\n", "g:6: cov needs 4 values, got 2"),
     # the spec is checked before the replication count
     ("cell=a\nd=2\nT=64\nm=1\nreps=0\nrho=2\n",
      "g: cell 'a': DomainError: decay rate must be in [0, 1), got 2.0"),
     ("cell=a\nd=2\nT=64\nm=1\nreps=0\n",
      "g: cell 'a': DomainError: replications must be >= 1, got 0")],
)
def test_parse_grid_error_precedence(text, message):
    with pytest.raises(GridParseError) as exc:
        parse_grid(text, source="g")
    assert str(exc.value) == message


@pytest.mark.parametrize("text, message", [
    ("name=../up\n\ncell=a\n", "g:1: name may not contain '/', '\\' or NUL, "
     "got '../up'"),
    ("name=a\0\n\ncell=a\n", "g:1: name may not contain '/', '\\' or NUL, "
     "got 'a\\x00'"),
    # <name>_hist.csv would be 256 bytes long
    ("name=" + "x" * 247 + "\n\ncell=a\n", "g:1: name may be at most 246 bytes, "
     "got 247"),
])
def test_parse_grid_rejects_names_that_leave_the_output_dir(text, message):
    # the grid name is the stem of every output file name, so it is
    # checked when the grid is read
    with pytest.raises(GridParseError) as exc:
        parse_grid(text + "d=2\nT=64\nm=1\nreps=1\n", source="g")
    assert str(exc.value) == message


@pytest.mark.parametrize("name", ["a/b", "a\\b", "a\0b", "x" * 300],
                         ids=["slash", "backslash", "nul", "long"])
def test_parse_grid_accepts_any_cell_name(name):
    # a cell name labels rows, never a file
    grid = parse_grid("name=" + "x" * 246 + f"\n\ncell={name}\n"
                      "d=2\nT=64\nm=1\nreps=1\n", source="g")
    assert [cell.name for cell in grid.cells] == [name]


@pytest.mark.parametrize("extra, message", [
    ("base=identity\n", "g: cell 'a': DomainError: d must be >= 1, got -1"),
    ("base=1\n", "g: cell 'a': DomainError: d must be >= 1, got -1"),
    ("cov=1\n", "g: cell 'a': DomainError: d must be >= 1, got -1"),
    ("delta=1\n", "g: cell 'a': DomainError: d must be >= 1, got -1"),
    ("rho=x\ncov=1\n", "g:6: expected a number, got 'x'"),
])
def test_parse_grid_d_below_one_sizes_no_matrix(extra, message):
    # a d below 1 is named by the spec's own check once rho, tol and seed
    # parse, before it sizes base, cov or delta
    with pytest.raises(GridParseError) as exc:
        parse_grid("cell=a\nd=-1\nT=64\nm=1\nreps=1\n" + extra, source="g")
    assert str(exc.value) == message


def test_parse_grid_rejects_cov_without_cholesky_factor():
    # a symmetric covariance that is not positive definite fails when the
    # grid is read, like an asymmetric one, naming its cell
    text = ("cell=good\nd=2\nT=64\nm=1\nreps=1\n\n"
            "cell=singular\nd=2\nT=64\nm=1\nreps=1\ncov=0,0,0,0\n")
    with pytest.raises(GridParseError) as exc:
        parse_grid(text, source="g")
    assert str(exc.value) == ("g: cell 'singular': DomainError: innovation_cov "
                              "must be positive definite")


def test_simulate_config_reads_the_cell_recipe(tmp_path):
    # one block (a blank line does not end it), flags override, None skips
    conf = tmp_path / "sim.cfg"
    conf.write_text("d=2\nT=64\n\nm=1\ncov=exch:0.3\ndelta=1,2\nk_star=0.5\n")
    spec = _read_spec(str(conf), {"T": 80, "seed": 4, "rho": None, "out": "x"})
    (cell,) = parse_grid("cell=a\nreps=1\nd=2\nT=80\nm=1\ncov=exch:0.3\n"
                         "delta=1,2\nk_star=0.5\nseed=4\n").cells
    t = cell.template
    assert (spec.d, spec.T, spec.m, spec.k_star, spec.seed) == (t.d, t.T, t.m,
                                                                t.k_star, t.seed)
    for a, b in ((spec.innovation_cov, t.innovation_cov), (spec.delta, t.delta),
                 (spec.base, t.base)):
        np.testing.assert_array_equal(a, b)
    assert (spec.rho, spec.K_max) == (t.rho, t.K_max)
    with pytest.raises(GridParseError, match=r"cfg:--k-star: expected a number"):
        _read_spec(str(conf), {"k_star": "x"})


# ---------------------------------------------------------------- shipped grids


def test_shipped_table1_shape():
    g = load_shipped_grid("table1")
    assert g.name == "table1"
    assert len(g.cells) == 10
    assert all(c.template.T == 8000 and c.template.d == 2 for c in g.cells)
    assert all(c.replications == 30 for c in g.cells)
    assert [c.template.m for c in g.cells] == [10, 10, 20, 20, 30] * 2
    weak, strong = g.cells[:5], g.cells[5:]
    for c in weak:
        np.testing.assert_array_equal(c.template.delta, [0.5, 0.2])
    for c in strong:
        np.testing.assert_array_equal(c.template.delta, [0.5, 1.2])
    assert [location_label(c.template.k_star) for c in g.cells] == [
        "T/2", "T/5", "T/2", "T/5", "T/2",
    ] * 2


def test_shipped_table2_is_16000():
    g = load_shipped_grid("table2")
    assert len(g.cells) == 10
    assert all(c.template.T == 16000 for c in g.cells)


@pytest.mark.parametrize("name,T", [("table3", 8000), ("table4", 16000)])
def test_shipped_five_variate_grids(name, T):
    g = load_shipped_grid(name)
    assert len(g.cells) == 10
    assert all(c.template.T == T and c.template.d == 5 for c in g.cells)
    np.testing.assert_array_equal(g.cells[0].template.delta, [0.5, 0.2, 0.2, 0.5, 0.2])
    np.testing.assert_array_equal(g.cells[5].template.delta, [0.5, 1.2, 0.5, 0.5, 0.5])
    off = g.cells[0].template.innovation_cov[0, 1]
    assert off == 0.5


def test_shipped_h0_grid():
    g = load_shipped_grid("h0")
    (cell,) = g.cells
    assert cell.replications == 200
    assert cell.template.k_star is None
    assert cell.template.T == 8000 and cell.template.m == 10
    assert g.alpha == 0.05


def test_unknown_shipped_grid():
    with pytest.raises(DomainError, match="table1"):
        load_shipped_grid("nope")
