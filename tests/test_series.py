import tracemalloc

import numpy as np
import pytest

from mvcusum.errors import MissingColumn, NonFinite, NonNumericCell, TooShort
from mvcusum.spectral import dft
from mvcusum.series import (
    MultivariateSeries,
    center,
    load_csv,
    write_csv,
)


def _write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_csv_basic(tmp_path):
    p = _write(tmp_path, "a,b\n1.0,2.0\n3.5,-4.25\n")
    s = load_csv(p, ["a", "b"])
    assert s.values.shape == (2, 2)
    assert s.labels == ("a", "b")
    np.testing.assert_array_equal(s.values, [[1.0, 2.0], [3.5, -4.25]])


def test_load_csv_single_column_two_rows(tmp_path):
    # smallest legal series: T=2, d=1
    p = _write(tmp_path, "x\n1.0\n2.0\n")
    s = load_csv(p, ["x"])
    assert s.values.shape == (2, 1)
    assert s.d == 1 and s.T == 2


def test_load_csv_column_order_follows_config(tmp_path):
    p = _write(tmp_path, "a,b,c\n1,2,3\n4,5,6\n")
    s = load_csv(p, ["c", "a"])
    np.testing.assert_array_equal(s.values, [[3.0, 1.0], [6.0, 4.0]])
    assert s.labels == ("c", "a")


def test_load_csv_date_column(tmp_path):
    p = _write(tmp_path, "Date,Open,Close\n2021-01-01,10,11\n2021-01-02,12,13\n")
    s = load_csv(p, ["Open", "Close"], date_column="Date")
    assert s.values.shape == (2, 2)


def test_load_csv_no_columns_means_all_but_the_date_column(tmp_path):
    p = _write(tmp_path, "a,DATE,b\n1,2021-01-01,2\n3,2021-01-02,4\n")
    s = load_csv(p)
    assert s.labels == ("a", "b")
    np.testing.assert_array_equal(s.values, [[1.0, 2.0], [3.0, 4.0]])
    # a named date column replaces the default one
    p = _write(tmp_path, "day,a,date\nmon,1,2\ntue,3,4\n")
    s = load_csv(p, date_column="day")
    assert s.labels == ("a", "date")
    np.testing.assert_array_equal(s.values, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_skip_rows(tmp_path):
    p = _write(tmp_path, "junk line\nanother\na,b\n1,2\n3,4\n")
    s = load_csv(p, ["a", "b"], skip_rows=2)
    assert s.T == 2


def test_load_csv_missing_column(tmp_path):
    p = _write(tmp_path, "a,b\n1,2\n3,4\n")
    with pytest.raises(MissingColumn):
        load_csv(p, ["a", "zzz"])


def test_load_csv_non_numeric_cell_reports_row_and_column(tmp_path):
    p = _write(tmp_path, "a,b\n1,2\nabc,4\n")
    with pytest.raises(NonNumericCell) as exc:
        load_csv(p, ["a", "b"])
    assert exc.value.row == 2
    assert exc.value.column == "a"


def test_load_csv_empty_cell_rejected(tmp_path):
    # missing values are rejected, never imputed
    p = _write(tmp_path, "a,b\n1,\n3,4\n")
    with pytest.raises(NonNumericCell) as exc:
        load_csv(p, ["a", "b"])
    assert exc.value.row == 1
    assert exc.value.column == "b"


def test_load_csv_too_short(tmp_path):
    p = _write(tmp_path, "a\n1.0\n")
    with pytest.raises(TooShort):
        load_csv(p, ["a"])


def test_load_csv_non_finite(tmp_path):
    p = _write(tmp_path, "a\n1.0\ninf\n3.0\n")
    with pytest.raises(NonFinite) as exc:
        load_csv(p, ["a"])
    assert exc.value.row == 2


def test_load_csv_unselected_columns_ignored(tmp_path):
    # garbage outside the selected columns must not matter
    p = _write(tmp_path, "a,b\n1,junk\n2,junk\n")
    s = load_csv(p, ["a"])
    assert s.T == 2


def test_center_constant_series():
    s = MultivariateSeries(np.full((5, 1), 3.0))
    c = center(s)
    np.testing.assert_array_equal(c.values, np.zeros((5, 1)))


def test_center_plus_minus_one():
    s = MultivariateSeries(np.array([[1.0], [-1.0]]))
    c = center(s)
    np.testing.assert_array_equal(c.values, [[1.0], [-1.0]])


def test_center_column_sums_vanish():
    # oracle: direct summation of the centered values
    rng = np.random.default_rng(42)
    s = MultivariateSeries(rng.normal(size=(100, 3)) * 5 + 2)
    c = center(s)
    sums = np.abs(c.values.sum(axis=0))
    assert np.all(sums < 1e-7)


def test_center_idempotent():
    rng = np.random.default_rng(7)
    s = MultivariateSeries(rng.normal(size=(50, 2)) + 13.0)
    once = center(s)
    twice = center(once)
    assert np.all(np.abs(twice.values - once.values) < 1e-9)


def test_round_trip_identity(tmp_path):
    # load_csv after write_csv reproduces values to full precision
    rng = np.random.default_rng(11)
    vals = rng.normal(size=(37, 4)) * np.array([1e-7, 1.0, 1e6, np.pi])
    s = MultivariateSeries(vals, labels=("w", "x", "y", "z"))
    p = tmp_path / "rt.csv"
    write_csv(s, p)
    back = load_csv(p, ["w", "x", "y", "z"])
    np.testing.assert_allclose(back.values, vals, rtol=1e-12, atol=0.0)


def test_series_is_immutable():
    s = MultivariateSeries(np.ones((4, 2)))
    with pytest.raises((ValueError, RuntimeError)):
        s.values[0, 0] = 5.0


def test_center_keeps_type_and_labels():
    s = MultivariateSeries(np.arange(8.0).reshape(4, 2), labels=("a", "b"))
    c = center(s)
    assert type(c) is MultivariateSeries
    assert c.labels == ("a", "b")
    np.testing.assert_array_equal(c.values, s.values - s.values.mean(axis=0))


def test_dft_centers_its_input():
    # oracle: the ordinates of the rfft of the mean-corrected values, built
    # with the same row selection and conjugation as dft
    rng = np.random.default_rng(23)
    s = MultivariateSeries(rng.normal(size=(57, 3)) * 4.0 + 9.0)
    js = np.array([-28, -5, 0, 1, 13, 28, 57, 70])
    N = s.T
    rfft = np.fft.rfft(s.values - s.values.mean(axis=0), axis=0)
    n = np.mod(js, N)
    low = n <= N // 2
    rows = rfft[np.where(low, n, N - n)]
    rows[low] = np.conj(rows[low])
    want = np.einsum("kp,kq->kpq", rows, np.conj(rows)) / N
    np.testing.assert_array_equal(dft(s, js).ordinates, want)


def test_center_peak_memory_is_one_copy():
    # the centered array is frozen where center allocates it, not copied
    s = MultivariateSeries(np.random.default_rng(17).normal(size=(200_000, 5)))
    tracemalloc.start()
    try:
        center(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * s.values.nbytes
