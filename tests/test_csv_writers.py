"""Byte-exact checks of the numeric CSV writers (series, curve and spectrum
files) against a reference: the per-cell writer they replaced, which passes
``format(v, ".17g")`` strings through ``csv.writer``; and of the bench
histogram file against the same reference.  Value round-trips alone would
not see a change of line end, quoting or digits."""

import csv

import numpy as np
import pytest

from mvcusum.engine import cusum, export_curve_csv, quadform
from mvcusum.errors import DomainError
from mvcusum.experiments import MetricsRow, parse_grid, write_grid_outputs
from mvcusum.series import _CHUNK_ROWS, MultivariateSeries, write_csv
from mvcusum.spectral import export_spectrum_csv, long_run_covariance, smoothed_spectrum

SPECIAL = [-0.0, 1e16, 1e17, 5e-324, np.finfo(np.float64).max, 2.0**53 + 1,
           -1e-300, 0.1, 1 / 3, np.nan, np.inf, -np.inf]


def _reference_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _g(v):
    return format(v, ".17g")


def _values(rows, d, seed=5):
    x = np.random.default_rng(seed).normal(size=(rows, d)) * 10.0 ** np.arange(d)
    x[: len(SPECIAL), 0] = SPECIAL
    x[-len(SPECIAL):, -1] = SPECIAL[::-1]
    return x


@pytest.mark.parametrize("labels", [None, ("a,b", 'q"x', "c\nd")], ids=["x_j", "quoted"])
def test_write_csv_bytes_match_reference(tmp_path, labels):
    # one row past a chunk, so the chunk boundary is crossed
    x = _values(_CHUNK_ROWS + 1, 3)
    write_csv(MultivariateSeries(x, labels=labels), tmp_path / "new.csv")

    header = list(labels or ("x0", "x1", "x2"))
    rows = [[_g(v) for v in row] for row in x]
    _reference_csv(tmp_path / "ref.csv", header, rows)

    data = (tmp_path / "new.csv").read_bytes()
    assert data == (tmp_path / "ref.csv").read_bytes()
    assert data.endswith(b"\r\n")
    if labels:
        assert data.startswith(b'"a,b","q""x","c\nd"\r\n')


def test_export_curve_csv_bytes_match_reference(tmp_path):
    x = np.random.default_rng(9).normal(size=(_CHUNK_ROWS + 1, 2))
    x[_CHUNK_ROWS // 3:] += 0.2
    s = MultivariateSeries(x)
    curve = quadform(cusum(s), long_run_covariance(s))
    export_curve_csv(curve, tmp_path / "new.csv")

    N, q = curve.N, curve.q
    s = np.concatenate([block for _, block in curve.blocks()])
    rows = [
        [str(k), _g(k / N), _g(q[k]), _g(q[k] / N)] + [_g(v) for v in s[k]]
        for k in range(N + 1)
    ]
    _reference_csv(tmp_path / "ref.csv", ["k", "t", "q", "q_over_n", "s_0", "s_1"], rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_export_spectrum_csv_bytes_match_reference(tmp_path):
    s = MultivariateSeries(np.random.default_rng(13).normal(size=(301, 3)))
    omegas = list(np.linspace(0.0, np.pi, 17)) + [-0.5, -np.pi]
    mats = smoothed_spectrum(s, 4, omegas)
    export_spectrum_csv(tmp_path / "new.csv", omegas, mats)

    d = 3
    header = ["omega"]
    for p in range(d):
        for q in range(d):
            header += [f"re_{p}_{q}", f"im_{p}_{q}"]
    rows = []
    for om, m in zip(omegas, mats):
        row = [_g(float(om))]
        for p in range(d):
            for q in range(d):
                row += [_g(float(m[p, q].real)), _g(float(m[p, q].imag))]
        rows.append(row)
    _reference_csv(tmp_path / "ref.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_export_spectrum_csv_refuses_no_frequencies(tmp_path):
    # no rows would leave the spectrum's dimension unknown: refused, and
    # no file written
    with pytest.raises(DomainError, match="^nothing to export: no frequencies given$"):
        export_spectrum_csv(tmp_path / "new.csv", [], np.empty((0, 2, 2)))
    assert not (tmp_path / "new.csv").exists()


def test_histogram_file_bytes_match_reference(tmp_path):
    # cells in grid order, a name that needs quoting quoted, and no row for
    # a cell without estimates; with no estimates at all, the header alone
    grid = parse_grid('name=table9\nd=2\nT=64\nm=1\nreps=4\n\ncell=a\n\n'
                      'cell=b,"c"\n\ncell=none\n')
    estimates = {"a": (1, 32, 63, 10**9), 'b,"c"': (7,), "none": ()}
    rows = [MetricsRow(cell, 0.5, 0.5, 0.5, 0.25, 4, 4, estimates=ts)
            for cell, ts in estimates.items()]
    for out, rows in ((tmp_path / "all", rows), (tmp_path / "empty", rows[2:])):
        write_grid_outputs(grid, rows, out)
        _reference_csv(out / "ref.csv", ["cell", "t_hat"],
                       [[row.cell_id, t] for row in rows for t in row.estimates])
        assert (out / "table9_hist.csv").read_bytes() == (out / "ref.csv").read_bytes()
    assert (tmp_path / "empty" / "table9_hist.csv").read_bytes() == b"cell,t_hat\r\n"
