import csv
import json
import math
import os
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import mvcusum
from mvcusum import cli, engine, spectral
from mvcusum.critical import (CriticalEntry, CriticalValueTable,
                              critical_value, default_table)
from mvcusum.engine import cusum, estimate_changepoint, quadform
from mvcusum.errors import DomainError, _open_text
from mvcusum.experiments import _read_spec, load_grid
from mvcusum.series import MultivariateSeries, load_csv, write_csv
from mvcusum.simulate import SimulationSpec, gen_series
from mvcusum.spectral import long_run_covariance

SUBCOMMANDS = ("simulate", "spectrum", "detect", "estimate", "scan", "critval", "bench")

# Pinned seeds. SEED_HA drives the end-to-end detection fixtures (strong
# mid-sample shift); SEED_H0 a no-shift twin; SEED_TWO_BREAKS the
# double-shift scan fixture; SEED_PRICES the five-column price-table
# fixture.
SEED_HA = 11
SEED_H0 = 12
SEED_TWO_BREAKS = 21
SEED_PRICES = 5


def run_cli(capsys, *argv):
    rc = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return rc, out, err


def kv_lines(text):
    """Parse `key=value` lines (keys without spaces) into a dict."""
    found = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep and key and " " not in key:
            found[key] = value
    return found


def table_file(path, pairs):
    t = CriticalValueTable()
    for d, alpha, value in pairs:
        t.put(d, alpha, CriticalEntry(value, paths=1, grid=2, seed=0, stderr_estimate=0.0))
    t.save_csv(path)
    return path


def ha_spec(seed=SEED_HA, **kw):
    kw.setdefault("d", 2)
    kw.setdefault("T", 600)
    kw.setdefault("m", 2)
    kw.setdefault("delta", np.array([2.0, 2.0]))
    kw.setdefault("k_star", 0.5)
    return SimulationSpec(seed=seed, **kw)


def write_series(path, spec):
    series, t_star = gen_series(spec)
    write_csv(series, path)
    return series, t_star


@pytest.fixture
def ha_csv(tmp_path):
    path = tmp_path / "ha.csv"
    series, t_star = write_series(path, ha_spec())
    return path, series, t_star


@pytest.fixture
def cv2_csv(tmp_path):
    # Pinned below the h=4 saturation ceiling (~2.4): with the default
    # bandwidth at T in the hundreds, a large shift inflates the estimated
    # long-run covariance enough to cap the statistic near 0.27*(2h+1), so a
    # realistic table value like 2.69 would never reject at these lengths.
    # The null statistics for the pinned seeds sit well under 2.0.
    return table_file(tmp_path / "cv2.csv", [(2, 0.05, 2.0)])


def write_price_csv(path, T=900, seed=SEED_PRICES):
    """Five-column daily price table with two clear level shifts."""
    rng = np.random.default_rng(seed)
    x = 100.0 + 0.05 * np.cumsum(rng.normal(size=(T, 5)), axis=0)
    x[T // 3 :] += 6.0
    x[2 * T // 3 :] -= 5.0
    header = ["Date", "Opening Price", "High Price", "Low Price",
              "Closing Price", "Volume"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i, row in enumerate(x):
            date = f"2019-{1 + (i // 28) % 12:02d}-{1 + i % 28:02d}"
            w.writerow([date] + [format(v, ".6f") for v in row])
    return T // 3, 2 * T // 3


# ------------------------------------------------------------------ usage


def test_help_exits_zero_for_every_subcommand(capsys):
    for sub in SUBCOMMANDS:
        rc, out, _ = run_cli(capsys, sub, "--help")
        assert rc == 0
        assert sub in out


def test_detect_help_documents_defaults(capsys):
    rc, out, _ = run_cli(capsys, "detect", "--help")
    assert rc == 0
    assert "0.05" in out
    assert "fourth root" in out


def test_no_subcommand_is_usage_error(capsys):
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "frobnicate")[0] == 2


def test_unknown_flag_is_usage_error(capsys, ha_csv):
    rc, _, _ = run_cli(capsys, "detect", "--bogus")
    assert rc == 2
    # each shared flag is accepted only by the commands that read it
    path, _, _ = ha_csv
    for argv in (("detect", path, "--seed", 1),
                 ("estimate", path, "--threads", 2),
                 ("critval", "--d", 1, "--output-dir", "x")):
        rc, _, err = run_cli(capsys, *argv)
        assert rc == 2
        assert "unrecognized arguments" in err


@pytest.mark.parametrize(
    "argv",
    [("detect",), ("estimate",), ("scan",), ("spectrum",),
     ("bench", "table1", "--table"), ("simulate", "--config"),
     ("detect", "x.csv", "--table")],
    ids=["detect", "estimate", "scan", "spectrum", "bench", "simulate-config",
         "detect-table"],
)
def test_missing_input_is_data_error(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.csv").write_text(ROWS_40)
    rc, _, err = run_cli(capsys, *argv, tmp_path / "absent.csv")
    assert rc == 2
    assert "error: FileNotFoundError: no such input file:" in err
    assert "absent.csv" in err


@pytest.mark.parametrize("read", [
    load_csv, CriticalValueTable.load_csv, load_grid,
    lambda path: _read_spec(path, {}),
], ids=["load_csv", "table", "load_grid", "read_spec"])
def test_library_readers_name_a_missing_file(tmp_path, read):
    # the opener every reader shares words it as the command line does
    path = tmp_path / "absent.csv"
    with pytest.raises(FileNotFoundError) as info:
        read(path)
    assert str(info.value) == f"no such input file: {path}"


def test_open_text_maps_only_its_own_missing_file(tmp_path):
    (tmp_path / "x.csv").write_text("a\n")
    with pytest.raises(FileNotFoundError, match="^inner$"):
        with _open_text(tmp_path / "x.csv", DomainError):
            raise FileNotFoundError("inner")


MISSING = "error: FileNotFoundError: no such input file: absent.csv"
BAD_CELL = "a\n1\nx\n"
ROWS_40 = "a\n" + "".join(f"{i % 7}\n" for i in range(40))
CONSTANT = "a,b\n" + "1,2\n" * 40


@pytest.mark.parametrize(
    "argv, text, error",
    [(("detect", "absent.csv", "--emit-curve", "sub/curve.csv"), None, MISSING),
     (("scan", "absent.csv", "--emit-curve", "sub/curve.csv"), None, MISSING),
     (("spectrum", "absent.csv", "--out", "sub/spec.csv"), None, MISSING),
     (("simulate", "--config", "absent.csv", "--out", "sub/series.csv"), None,
      MISSING),
     (("detect", "bad.csv", "--emit-curve", "sub/curve.csv"), BAD_CELL,
      "error: NonNumericCell"),
     (("scan", "bad.csv", "--emit-curve", "sub/curve.csv"), BAD_CELL,
      "error: NonNumericCell"),
     (("spectrum", "bad.csv", "--out", "sub/spec.csv"), BAD_CELL,
      "error: NonNumericCell"),
     (("simulate", "--config", "bad.csv", "--out", "sub/series.csv"),
      "d=2\nT=40\nm=1\nspeed=3\n",
      "error: GridParseError: bad.csv:4: unknown key 'speed'"),
     (("detect", "bad.csv", "--emit-curve", "sub/curve.csv", "--skip-rows",
       "-1"), "a\n1\n2\n", "error: DomainError: skip_rows must be >= 0, got -1"),
     # errors of the statistics, after the input is parsed
     (("spectrum", "bad.csv", "--h", "100", "--out", "sub/spec.csv"), ROWS_40,
      "error: BandwidthTooLarge"),
     (("detect", "bad.csv", "--emit-curve", "sub/curve.csv"), CONSTANT,
      "error: DegenerateSpectrum"),
     (("scan", "bad.csv", "--emit-curve", "sub/curve.csv"), CONSTANT,
      "error: DegenerateSpectrum"),
     (("detect", "bad.csv", "--alpha", "0.07", "--emit-curve", "sub/curve.csv"),
      ROWS_40, "error: MissingCriticalValue"),
     (("detect", "bad.csv", "--scan", "--smoothing-window", "4",
       "--emit-curve", "sub/curve.csv"), ROWS_40,
      "error: DomainError: smoothing window must be odd"),
     (("detect", "bad.csv", "--scan", "--trim", "0.7", "--emit-curve",
       "sub/curve.csv"), ROWS_40, "error: DomainError: trim fraction"),
     (("detect", "bad.csv", "--scan", "--min-prominence", "-1", "--emit-curve",
       "sub/curve.csv"), ROWS_40, "error: DomainError: prominence floor")],
    ids=["detect", "scan", "spectrum", "simulate", "detect-bad-cell",
         "scan-bad-cell", "spectrum-bad-cell", "simulate-unknown-key",
         "negative-skip-rows", "spectrum-bandwidth", "detect-constant",
         "scan-constant", "detect-missing-critval", "detect-even-window",
         "detect-trim", "detect-negative-prominence"],
)
def test_missing_input_creates_no_output_directory(capsys, tmp_path, monkeypatch,
                                                   argv, text, error):
    # an output path is made only once the results are computed, and no
    # line is printed before the last step that can fail
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / "bad.csv").write_text(text)
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith(error)
    assert [p.name for p in tmp_path.iterdir()] == ([] if text is None
                                                    else ["bad.csv"])


def test_internal_error_maps_to_exit_3(capsys, tmp_path, monkeypatch, ha_csv, cv2_csv):
    path, _, _ = ha_csv

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(mvcusum.engine, "test", boom)
    rc, _, err = run_cli(capsys, "detect", path, "--table", cv2_csv)
    assert rc == 3
    assert "internal error: RuntimeError: boom" in err


# --------------------------------------------------------------- simulate


def test_simulate_writes_series_and_metadata(capsys, tmp_path):
    rc, out, _ = run_cli(
        capsys, "simulate", "--d", 2, "--T", 400, "--m", 3,
        "--delta", "1,1", "--k-star", "0.5", "--seed", 7,
        "--out", tmp_path / "s.csv",
    )
    assert rc == 0
    lines = kv_lines(out)
    assert lines["T"] == "400"
    assert lines["d"] == "2"
    assert lines["t_star"] == "200"

    loaded = load_csv(tmp_path / "s.csv", ["x0", "x1"])
    spec = SimulationSpec(d=2, T=400, m=3, delta=np.array([1.0, 1.0]),
                          k_star=0.5, seed=7)
    series, t_star = gen_series(spec)
    assert t_star == 200
    assert np.array_equal(loaded.values, series.values)

    meta = kv_lines((tmp_path / "s.csv.meta").read_text())
    assert meta["d"] == "2"
    assert meta["T"] == "400"
    assert meta["m"] == "3"
    assert meta["kind"] == "geometric"
    assert float(meta["rho"]) == 0.5
    assert meta["k_max"] == "40"
    assert meta["seed"] == "7"
    assert meta["t_star"] == "200"
    assert [float(v) for v in meta["delta"].split(",")] == [1.0, 1.0]
    assert [float(v) for v in meta["base"].split(",")] == [0.5, 0.0, 0.0, 0.5]
    assert [float(v) for v in meta["innovation_cov"].split(",")] == [1, 0, 0, 1]


def test_simulate_config_file_with_flag_overrides(capsys, tmp_path):
    conf = tmp_path / "sim.conf"
    conf.write_text("d=2\nT=300\nm=2\nseed=1\ndelta=1,1\nk_star=0.5\n")
    rc, out, _ = run_cli(
        capsys, "simulate", "--config", conf, "--T", 500, "--seed", 9,
        "--out", tmp_path / "s.csv",
    )
    assert rc == 0
    assert kv_lines(out)["T"] == "500"
    meta = kv_lines((tmp_path / "s.csv.meta").read_text())
    assert meta["T"] == "500"
    assert meta["seed"] == "9"

    loaded = load_csv(tmp_path / "s.csv", ["x0", "x1"])
    spec = SimulationSpec(d=2, T=500, m=2, delta=np.array([1.0, 1.0]),
                          k_star=0.5, seed=9)
    assert np.array_equal(loaded.values, gen_series(spec)[0].values)


def test_simulate_base_identity_flag(capsys, tmp_path):
    rc, _, _ = run_cli(
        capsys, "simulate", "--d", 2, "--T", 50, "--m", 0,
        "--base", "identity", "--out", tmp_path / "s.csv",
    )
    assert rc == 0
    meta = kv_lines((tmp_path / "s.csv.meta").read_text())
    assert [float(v) for v in meta["base"].split(",")] == [1.0, 0.0, 0.0, 1.0]


@pytest.mark.parametrize("flags, k_max", [
    (("--tol", "3.9"), "0"),  # a tolerance above the whole tail
    (("--tol", "10"), "0"),
    (("--tol", "inf"), "0"),
    (("--rho", "0.2"), "17"),  # the smallest depth, not one deeper
])
def test_simulate_depth_is_smallest_with_tail_below_tol(capsys, tmp_path,
                                                         flags, k_max):
    rc, _, err = run_cli(capsys, "simulate", "--d", 2, "--T", 300, "--m", 2,
                         *flags, "--out", tmp_path / "s.csv")
    assert (rc, err) == (0, "")
    assert kv_lines((tmp_path / "s.csv.meta").read_text())["k_max"] == k_max


def test_simulate_refuses_a_filter_deeper_than_the_cap(capsys, tmp_path):
    # 3,914,375 presample rows for a 100-row series: refused before a draw
    rc, out, err = run_cli(capsys, "simulate", "--d", 2, "--T", 100, "--m", 0,
                           "--rho", 0.99999, "--out", tmp_path / "out" / "s.csv")
    assert (rc, out) == (2, "")
    assert err == ("error: DomainError: filter depth K_max=3914375 at "
                   "rho=0.99999 and tol=1e-12 exceeds 1000000 presample rows; "
                   "lower rho or raise tol\n")
    assert not (tmp_path / "out").exists()


def test_simulate_refuses_a_dependence_range_deeper_than_the_cap(capsys, tmp_path):
    # m + 1 Gaussian rows make each innovation: m counts against the cap
    rc, out, err = run_cli(capsys, "simulate", "--d", 2, "--T", 50,
                           "--m", 1_000_001, "--rho", 0,
                           "--out", tmp_path / "out" / "s.csv")
    assert (rc, out) == (2, "")
    assert err == ("error: DomainError: filter depth K_max=0 plus dependence "
                   "range m=1000001 exceeds 1000000 presample rows; lower m\n")
    assert not (tmp_path / "out").exists()


def test_simulate_refuses_a_series_longer_than_the_cap(capsys, tmp_path):
    # refused before any draw: nothing of its size is allocated
    rc, out, err = run_cli(capsys, "simulate", "--d", 2, "--T", 10**13,
                           "--m", 0, "--rho", 0,
                           "--out", tmp_path / "out" / "s.csv")
    assert (rc, out) == (2, "")
    assert err == ("error: GridParseError: command line: cell 'simulate': "
                   "DomainError: T=10000000000000 times d=2 exceeds 100000000 "
                   "values in one series; lower T or d\n")
    assert not (tmp_path / "out").exists()


def test_simulate_without_break_reports_none(capsys, tmp_path):
    rc, out, _ = run_cli(
        capsys, "simulate", "--d", 1, "--T", 60, "--m", 1,
        "--out", tmp_path / "s.csv",
    )
    assert rc == 0
    assert kv_lines(out)["t_star"] == "none"
    meta = kv_lines((tmp_path / "s.csv.meta").read_text())
    assert meta["k_star"] == "none"
    assert meta["t_star"] == "none"


def test_simulate_missing_required_key_is_data_error(capsys, tmp_path,
                                                    monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc, _, err = run_cli(capsys, "simulate", "--T", 100)
    assert rc == 2
    assert "error: GridParseError" in err
    assert "missing required key 'd'" in err


def test_simulate_bad_config_line_reports_lineno(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    conf = tmp_path / "sim.conf"
    conf.write_text("d=2\nT 300\n")
    rc, _, err = run_cli(capsys, "simulate", "--config", conf)
    assert rc == 2
    assert "error: GridParseError" in err
    assert f"{conf}:2:" in err


def test_simulate_config_skips_blank_and_comment_lines(capsys, tmp_path,
                                                       monkeypatch):
    monkeypatch.chdir(tmp_path)
    conf = tmp_path / "sim.conf"
    conf.write_text("# a comment\nd=2\n\nT=40\n# T=50\nm=0\n")
    rc, out, _ = run_cli(capsys, "simulate", "--config", conf)
    assert rc == 0
    assert kv_lines(out)["T"] == "40"


@pytest.mark.parametrize(
    "text, line, message",
    [("d=2\nT=40\n\nT=50\nm=0\n", 4, "duplicate key 'T'"),
     ("d=2\n=5\n", 2, "expected key=value, got '=5'")],
    ids=["key-repeated-across-blank-line", "empty-key"],
)
def test_simulate_config_line_errors(capsys, tmp_path, monkeypatch, text, line,
                                     message):
    monkeypatch.chdir(tmp_path)
    conf = tmp_path / "sim.conf"
    conf.write_text(text)
    rc, _, err = run_cli(capsys, "simulate", "--config", conf)
    assert rc == 2
    assert err == f"error: GridParseError: {conf}:{line}: {message}\n"


def test_simulate_is_bit_reproducible(capsys, tmp_path):
    for sub in ("one", "two"):
        rc, _, _ = run_cli(
            capsys, "simulate", "--d", 2, "--T", 200, "--m", 2,
            "--delta", "1,0", "--k-star", "0.25", "--seed", 4,
            "--out", tmp_path / sub / "s.csv",
        )
        assert rc == 0
    assert (tmp_path / "one" / "s.csv").read_bytes() == \
        (tmp_path / "two" / "s.csv").read_bytes()
    assert (tmp_path / "one" / "s.csv.meta").read_bytes() == \
        (tmp_path / "two" / "s.csv.meta").read_bytes()


def test_output_dir_left_alone_for_absolute_paths(capsys, tmp_path, monkeypatch):
    # an absolute --out is written and printed as given, not under the
    # working directory
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    target = tmp_path / "elsewhere" / "s.csv"
    rc, out, _ = run_cli(
        capsys, "simulate", "--d", 1, "--T", 40, "--m", 0, "--out", target,
    )
    assert rc == 0
    assert target.exists()
    assert kv_lines(out)["series"] == str(target)
    assert list((tmp_path / "cwd").iterdir()) == []


# --------------------------------------------------------------- spectrum


def test_spectrum_reports_longrun_covariance_and_writes_grid(capsys, tmp_path):
    path = tmp_path / "x.csv"
    series, _ = write_series(path, SimulationSpec(d=2, T=256, m=2, seed=3))
    rc, out, _ = run_cli(capsys, "spectrum", path, "--h", 3, "--freqs", 9,
                         "--out", tmp_path / "spec.csv")
    assert rc == 0
    lines = kv_lines(out)
    assert lines["T"] == "256"
    assert lines["d"] == "2"
    assert lines["h_used"] == "3"
    assert float(lines["ridge_applied"]) == 0.0

    lr = long_run_covariance(series, 3)
    got = [float(v) for v in lines["sigma_0"].split(",")]
    assert got == [lr.sigma[0, 0], lr.sigma[0, 1]]

    with open(tmp_path / "spec.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["omega", "re_0_0", "im_0_0"]
    assert len(rows) == 1 + 9
    assert float(rows[1][0]) == 0.0
    assert float(rows[-1][0]) == pytest.approx(math.pi)
    # zero-frequency ordinate ties back to the printed covariance
    assert float(rows[1][1]) == pytest.approx(lr.sigma[0, 0] / (2 * math.pi))


def test_spectrum_default_bandwidth_is_fourth_root(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "x.csv"
    write_series(path, SimulationSpec(d=1, T=256, m=0, seed=3))
    rc, out, _ = run_cli(capsys, "spectrum", path)
    assert rc == 0
    assert kv_lines(out)["h_used"] == "4"


def test_spectrum_evaluates_each_window_once(capsys, tmp_path, monkeypatch):
    # the grid starts at frequency 0 and Sigma_hat is read from that window,
    # so --freqs 257 sends 257 windows of 2h+1 ordinates to the periodogram
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "x.csv"
    write_series(path, SimulationSpec(d=2, T=256, m=0, seed=3))
    shapes = []

    def recorded(series, js, _dft=spectral.dft):
        shapes.append(np.shape(js))
        return _dft(series, js)

    monkeypatch.setattr(spectral, "dft", recorded)
    rc, _, _ = run_cli(capsys, "spectrum", path, "--h", "3", "--freqs", "257")
    assert rc == 0
    assert sum(rows for rows, _ in shapes) == 257
    assert {width for _, width in shapes} == {2 * 3 + 1}


def test_spectrum_transform_diff_shortens_series(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "x.csv"
    write_series(path, SimulationSpec(d=1, T=257, m=0, seed=3))
    rc, out, _ = run_cli(capsys, "spectrum", path, "--transform", "diff")
    assert rc == 0
    assert kv_lines(out)["T"] == "256"


def test_spectrum_constant_input_is_degenerate(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "flat.csv"
    path.write_text("a,b\n" + "1.0,2.0\n" * 64)
    rc, _, err = run_cli(capsys, "spectrum", path)
    assert rc == 2
    assert "error: DegenerateSpectrum" in err


def scaled_csv(tmp_path, scale):
    """200 x 3 standard normals times scale, written at full precision."""
    path = tmp_path / "scaled.csv"
    x = np.random.default_rng(3).normal(size=(200, 3)) * scale
    np.savetxt(path, x, fmt="%.17g", delimiter=",", header="a,b,c", comments="")
    return path


@pytest.mark.parametrize("argv", [("detect",), ("detect", "--scan"), ("scan",),
                                  ("spectrum",)])
@pytest.mark.parametrize("scale", [1e-160, 1e154, 1e160])
def test_unrepresentable_covariance_is_degenerate(capsys, tmp_path, monkeypatch,
                                                  argv, scale):
    # at 1e-160 the estimate is subnormal and its inverse overflows; at 1e154
    # and 1e160 the periodogram overflows. None may become a nan statistic,
    # and the error line is all that reaches stderr: no numpy warning comes
    # first.
    monkeypatch.chdir(tmp_path)
    path = scaled_csv(tmp_path, scale)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run_cli(capsys, *argv, path)
    assert rc == 2
    why = ("has no finite inverse; input values are too small" if scale < 1
           else "is not finite; input values are too large")
    assert err == f"error: DegenerateSpectrum: long-run covariance {why}\n"
    assert [str(w.message) for w in caught] == []
    assert out == ""


def test_norm_estimate_at_1e160_is_the_unit_scale_estimate(capsys, tmp_path):
    # the cusum curve's sum of squares overflows, but its norms do not: the
    # estimate is the one of the same values at unit scale
    argv = ("estimate", "--method", "norm_argmax")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run_cli(capsys, *argv, scaled_csv(tmp_path, 1e160))
    assert (rc, err) == (0, "")
    assert [str(w.message) for w in caught] == []
    _, unit, _ = run_cli(capsys, *argv, scaled_csv(tmp_path, 1.0))
    assert kv_lines(out)["t_hat"] == kv_lines(unit)["t_hat"]
    assert float(kv_lines(out)["curve_value"]) / 1e160 == pytest.approx(
        float(kv_lines(unit)["curve_value"]), rel=1e-13)


@pytest.mark.parametrize("rows, method, error", [
    (18, "quadform_argmax", "DegenerateSpectrum"),
    (18, "norm_argmax", "DomainError"),
    (5, "quadform_argmax", "TooShort"),
    (5, "norm_argmax", "DomainError"),
])
def test_estimate_of_a_huge_value_prints_one_error_line(capsys, tmp_path,
                                                        rows, method, error):
    # the cusum curve overflows before any check reads it: the typed error
    # that follows is all that reaches stderr, with no numpy warning first
    cells = [str(i % 3) for i in range(rows - 1)] + ["1e308"]
    path = tmp_path / "huge.csv"
    path.write_text("a\n" + "\n".join(cells) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(capsys, "estimate", path, "--method", method)
    assert (rc, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {error}: ")


@pytest.mark.parametrize("method, error", [("quadform_argmax", "DegenerateSpectrum"),
                                           ("norm_argmax", "DomainError")])
def test_estimate_whose_partial_sums_overflow_prints_one_error_line(
        capsys, tmp_path, method, error):
    # 1e308 - (-1e308), and the running sums after it, overflow while the
    # curve is formed: still only the typed error reaches stderr
    path = tmp_path / "huge.csv"
    path.write_text("a\n-1e308\n" + "1e308\n" * 17)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(capsys, "estimate", path, "--method", method)
    assert (rc, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {error}: ")


# ----------------------------------------------------------------- detect


def test_detect_rejects_and_localizes_simulated_break(capsys, ha_csv, cv2_csv):
    path, _, t_star = ha_csv
    rc, out, _ = run_cli(capsys, "detect", path, "--table", cv2_csv)
    assert rc == 0
    lines = kv_lines(out)
    assert lines["reject"] == "true"
    assert float(lines["statistic"]) > 2.0
    assert lines["critical_value"] == "2"
    assert abs(int(lines["t_hat"]) - t_star) <= 50
    assert lines["method"] == "quadform_argmax"


def test_detect_under_null_accepts(capsys, tmp_path, cv2_csv):
    path = tmp_path / "h0.csv"
    write_series(path, SimulationSpec(d=2, T=600, m=2, seed=SEED_H0))
    rc, out, _ = run_cli(capsys, "detect", path, "--table", cv2_csv)
    assert rc == 0
    lines = kv_lines(out)
    assert lines["reject"] == "false"
    assert "t_hat" not in lines


def test_detect_constant_csv_is_degenerate(capsys, tmp_path, cv2_csv):
    path = tmp_path / "flat.csv"
    path.write_text("a,b\n" + "3.0,4.0\n" * 64)
    rc, _, err = run_cli(capsys, "detect", path, "--table", cv2_csv)
    assert rc == 2
    assert "error: DegenerateSpectrum" in err


def test_detect_missing_critical_value_mentions_critval(capsys, tmp_path, ha_csv):
    path, _, _ = ha_csv
    table = table_file(tmp_path / "cv9.csv", [(9, 0.05, 3.0)])
    rc, _, err = run_cli(capsys, "detect", path, "--table", table)
    assert rc == 2
    assert "error: MissingCriticalValue" in err
    assert "critval" in err


def test_detect_two_pass_is_a_usage_error(capsys, tmp_path, ha_csv):
    # the flag is gone: a Σ̂ demeaned at a pilot break does not hold size
    path, _, _ = ha_csv
    rc, out, err = run_cli(capsys, "detect", path, "--two-pass")
    assert rc == 2
    assert out == ""
    assert err == "error: UsageError: mvcusum: unrecognized arguments: --two-pass\n"


def test_detect_emit_curve_writes_quadform_curve(capsys, tmp_path, ha_csv, cv2_csv):
    path, series, _ = ha_csv
    rc, out, _ = run_cli(capsys, "detect", path, "--table", cv2_csv,
                         "--emit-curve", tmp_path / "curve.csv")
    assert rc == 0
    assert kv_lines(out)["curve"] == str(tmp_path / "curve.csv")
    with open(tmp_path / "curve.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["k", "t", "q", "q_over_n"]
    assert len(rows) == 1 + series.T + 1
    assert float(rows[1][2]) == 0.0
    assert float(rows[-1][2]) == 0.0


def count_calls(monkeypatch):
    """Count the cusum, quadform and long_run_covariance calls by name."""
    calls = {}
    for module, name in ((engine, "cusum"), (engine, "quadform"),
                         (engine, "long_run_covariance"),
                         (spectral, "long_run_covariance")):
        def counted(*args, _f=getattr(module, name), _n=name, **kwargs):
            calls[_n] = calls.get(_n, 0) + 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("command", ["detect", "scan", "estimate"])
def test_detect_builds_covariance_and_curve_once(capsys, tmp_path, monkeypatch,
                                                 ha_csv, cv2_csv, command):
    # one studentized curve per command: under detect it feeds the test, the
    # estimate, the scan and the export
    path, _, _ = ha_csv
    calls = count_calls(monkeypatch)
    curve = tmp_path / "curve.csv"
    flags = {"detect": ("--table", cv2_csv, "--scan", "--emit-curve", curve),
             "scan": ("--emit-curve", curve),
             "estimate": ("--method", "quadform_argmax")}[command]
    rc, out, _ = run_cli(capsys, command, path, *flags)
    assert rc == 0
    lines = kv_lines(out)
    if command == "detect":
        assert lines["reject"] == "true"
    if command != "scan":
        assert "t_hat" in lines
    if command != "estimate":
        assert "extrema_count" in lines and "curve" in lines
    assert calls == {"cusum": 1, "quadform": 1, "long_run_covariance": 1}


def test_norm_estimate_builds_no_covariance_or_quadform(capsys, tmp_path,
                                                      monkeypatch, ha_csv):
    # the norm_argmax estimate reads the cusum curve only
    path, _, _ = ha_csv
    calls = count_calls(monkeypatch)
    rc, out, _ = run_cli(capsys, "estimate", path, "--method", "norm_argmax")
    assert rc == 0
    assert calls == {"cusum": 1}
    # so a 2-row input fails at the estimate's own length check, not at a
    # covariance
    short = tmp_path / "short.csv"
    short.write_text("a,b\n1,2\n3,5\n")
    rc, _, err = run_cli(capsys, "estimate", short, "--method", "norm_argmax")
    assert rc == 2
    assert err == "error: TooShort: need at least 3 observations, got 2\n"


def write_iid_csv(path, T=80, d=5, seed=3):
    """iid N(0, 1) columns x0..x{d-1}: at T = 80 the default h is 2."""
    x = np.random.default_rng(seed).normal(size=(T, d))
    write_csv(MultivariateSeries(x, labels=tuple(f"x{j}" for j in range(d))),
              path)
    return path


SINGULAR_AT_H2 = ("error: DomainError: bandwidth h=2 leaves the long-run "
                  "covariance of d=5 columns singular (rank at most 2h=4); "
                  "use --h 3 or more\n")


@pytest.mark.parametrize("h_flags", [(), ("--h", "2")], ids=["default-h", "h=2"])
@pytest.mark.parametrize("columns, refused", [("x0,x1,x2,x3,x4", True),
                                              ("x0,x1,x2,x3", False)],
                         ids=["2h=d-1", "2h=d"])
@pytest.mark.parametrize("command", ["detect", "scan", "estimate"])
def test_bandwidth_below_half_of_d_is_refused(capsys, tmp_path, command,
                                              columns, refused, h_flags):
    # Σ̂ has rank at most 2h, so at 2h < d the statistic would be read off
    # the ridge; the test, the scan and the estimate refuse it alike
    path = write_iid_csv(tmp_path / "iid.csv")
    curve = tmp_path / "sub" / "curve.csv"
    flags = {"detect": ("--emit-curve", curve), "scan": ("--emit-curve", curve),
             "estimate": ()}[command]
    rc, out, err = run_cli(capsys, command, path, "--columns", columns,
                           *h_flags, *flags)
    if refused:
        assert (rc, out, err) == (2, "", SINGULAR_AT_H2)
        assert not curve.parent.exists()
    else:
        assert (rc, err) == (0, "")


def test_spectrum_and_norm_estimate_read_no_inverse(capsys, tmp_path):
    # at 2h < d the spectrum and the norm_argmax estimate still run: neither
    # reads the inverse of Σ̂
    path = write_iid_csv(tmp_path / "iid.csv")
    rc, out, err = run_cli(capsys, "spectrum", path, "--out",
                           tmp_path / "spec.csv")
    assert (rc, err) == (0, "")
    assert kv_lines(out)["h_used"] == "2" and kv_lines(out)["d"] == "5"
    rc, out, err = run_cli(capsys, "estimate", path, "--method", "norm_argmax")
    assert (rc, err) == (0, "")
    assert kv_lines(out)["method"] == "norm_argmax"


def test_bench_counts_a_refused_replication_as_a_failure(capsys, tmp_path):
    # T = 80 gives h = 2: the d = 5 cell's replication is refused and
    # recorded, and the d = 4 cell runs
    (tmp_path / "g.grid").write_text(
        "name=g\nT=80\nm=0\nrho=0\nreps=1\n\n"
        "cell=wide\nd=5\n\ncell=narrow\nd=4\n")
    out_dir = tmp_path / "out"
    rc, out, err = run_cli(capsys, "bench", tmp_path / "g.grid", "--keep-going",
                           "--output-dir", out_dir)
    assert (rc, err) == (0, "")
    assert "cell wide: reject 0/1 mean_abs_dev=nan failures=1\n" in out
    assert "failures=0\n" in out.split("cell narrow: ")[1]
    assert out.endswith(f"wrote {out_dir}{os.sep}g.csv\n"
                        f"wrote {out_dir}{os.sep}g_hist.csv\n"
                        f"wrote {out_dir}{os.sep}summary.txt\n"
                        "completed=1/2\n")
    summary = (out_dir / "summary.txt").read_text(encoding="utf-8")
    assert "failure wide: rep 0: " + SINGULAR_AT_H2[len("error: "):] in summary


def test_detect_scan_lists_extrema(capsys, tmp_path, cv2_csv):
    path = tmp_path / "prices.csv"
    write_price_csv(path)
    table = table_file(tmp_path / "cv5.csv", [(5, 0.05, 5.0)])
    rc, out, _ = run_cli(capsys, "detect", path, "--scan", "--table", table)
    assert rc == 0
    lines = kv_lines(out)
    assert lines["d"] == "5"
    assert int(lines["extrema_count"]) >= 1
    assert out.count("extremum index=") == int(lines["extrema_count"])


def test_detect_transform_log_requires_positive_values(capsys, tmp_path, cv2_csv):
    path = tmp_path / "neg.csv"
    rows = "\n".join(f"{v},{-v}" for v in np.linspace(1, 2, 64))
    path.write_text("a,b\n" + rows + "\n")
    rc, _, err = run_cli(capsys, "detect", path, "--transform", "log",
                         "--table", cv2_csv)
    assert rc == 2
    assert "error: DomainError" in err


def test_detect_transform_log_matches_logged_input(capsys, tmp_path, cv2_csv):
    # %.17g round-trips, so both files hold exactly x and log(x)
    x = np.exp(np.random.default_rng(8).normal(size=(300, 2)))
    x[150:] *= 3.0
    raw, logged = tmp_path / "raw.csv", tmp_path / "logged.csv"
    for path, values in ((raw, x), (logged, np.log(x))):
        np.savetxt(path, values, fmt="%.17g", delimiter=",", header="a,b",
                   comments="")
    outs = []
    for argv in ((raw, "--transform", "log"), (logged,)):
        rc, out, _ = run_cli(capsys, "detect", *argv, "--scan", "--table",
                             cv2_csv)
        assert rc == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert "t_hat=" in outs[0]


_CELL = "\ncell=a\nd=2\nT=64\nm=1\nreps=1\n"


@pytest.mark.parametrize("files, argv, line", [
    ({"two.csv": "a,b\n1,2\n3,5\n"}, ("detect", "two.csv", "--transform", "diff"),
     "TooShort: differencing needs at least 3 observations, got 2"),
    ({"two.csv": "a,b\n1,2\n3,5\n"}, ("spectrum", "two.csv", "--freqs", "1"),
     "DomainError: need at least 2 frequencies, got 1"),
    ({}, ("bench", "table1", "--reps", "0"),
     "DomainError: replication override must be >= 1, got 0"),
    ({"g.grid": "name=x\n" + _CELL + "cov=exch:1.5\n"}, ("bench", "g.grid"),
     "GridParseError: g.grid:8: off-diagonal must lie in (-1, 1) for d=2, "
     "got 1.5"),
    ({"g.grid": "name=x\n" + _CELL + "alpha=0.1\n"}, ("bench", "g.grid"),
     "GridParseError: g.grid:8: key 'alpha' only valid in the header block"),
    ({"g.grid": "name=x\nalpha=1.5\n" + _CELL}, ("bench", "g.grid"),
     "GridParseError: g.grid: alpha must be in (0, 1), got 1.5"),
    ({"f.csv": "date\n2020-01-01\n2020-01-02\n"}, ("detect", "f.csv"),
     "MissingColumn: f.csv: no value columns besides the date column"),
    # a d below 1 sizes no identity base: the spec names it
    ({}, ("simulate", "--d", "-1", "--T", "10", "--m", "0", "--base",
          "identity"),
     "GridParseError: command line: cell 'simulate': DomainError: d must be "
     ">= 1, got -1"),
    ({}, ("simulate", "--d", "-1", "--T", "10", "--m", "0", "--delta", "1"),
     "GridParseError: command line: cell 'simulate': DomainError: d must be "
     ">= 1, got -1"),
    ({}, ("simulate", "--d", "2", "--T", "40", "--m", "0", "--cov", "1,2,2,1",
          "--out", "sub/x.csv"),
     "GridParseError: command line: cell 'simulate': DomainError: "
     "innovation_cov must be positive definite"),
    # columns at 1e-160 and 1e-244: the estimate is singular in floating point
    ({"x.csv": "a,b\n" + "".join(f"{(i % 7 - 3) * 1e-160!r},"
                                  f"{(i * 5 % 11 - 5) * 1e-244!r}\n"
                                  for i in range(200))},
     ("detect", "x.csv", "--emit-curve", "sub/c.csv"),
     "DegenerateSpectrum: long-run covariance has no finite inverse; input "
     "values are too small"),
    ({"x.csv": ROWS_40}, ("detect", "x.csv", "--alpha", "0.07"),
     "MissingCriticalValue: no critical value for d=1, alpha=0.07; run "
     "`critval --d 1 --alpha 0.07 --table FILE`, then pass `--table FILE` to "
     "detect or bench"),
    # a non-finite recipe would draw a series of nan
    ({}, ("simulate", "--d", "2", "--T", "40", "--m", "0", "--cov", "inf,0,0,1",
          "--out", "y.csv"),
     "GridParseError: command line: cell 'simulate': DomainError: "
     "innovation_cov must be finite"),
    # the parser refuses a thread cap below 1 with run_grid's own check
    ({}, ("bench", "table1", "--threads", "0"),
     "DomainError: thread cap must be >= 1, got 0"),
    ({}, ("bench", "table1", "--threads", "-3"),
     "DomainError: thread cap must be >= 1, got -3"),
    # a selected name read twice would feed one column in two places
    ({"d.csv": "a,a,b\n1,2,3\n4,5,6\n"}, ("detect", "d.csv"),
     "DomainError: d.csv: column 'a' appears 2 times in the header"),
    # a level outside (0, 1) is refused before any table lookup
    ({"x.csv": ROWS_40}, ("detect", "x.csv", "--alpha", "1.5"),
     "DomainError: level must be in (0, 1), got 1.5"),
    ({"x.csv": ROWS_40}, ("detect", "x.csv", "--alpha", "nan"),
     "DomainError: level must be in (0, 1), got nan"),
    # the level is checked before the input is parsed, so it is reported
    # ahead of a bad cell
    ({"x.csv": "a\n1\nabc\n2\n"}, ("detect", "x.csv", "--alpha", "1.5"),
     "DomainError: level must be in (0, 1), got 1.5"),
    # budgets that would otherwise end in a MemoryError, refused before any
    # array is allocated
    ({"x.csv": CONSTANT}, ("spectrum", "x.csv", "--freqs", "1000000000000"),
     "DomainError: 1000000000000 frequencies times d*d=4 exceeds 100000000 "
     "spectrum values; lower --freqs"),
    ({}, ("critval", "--d", "2", "--alpha", "0.3", "--paths", "10", "--grid",
          "10000000000"),
     "DomainError: grid must be <= 2560000, got 10000000000"),
    ({}, ("critval", "--d", "2", "--alpha", "0.3", "--paths",
          "1000000000000", "--grid", "2"),
     "DomainError: paths must be <= 10000000, got 1000000000000"),
    # retired spellings: one value per transform, one name per flag, and
    # every flag spelled in full
    ({"x.csv": ROWS_40}, ("detect", "x.csv", "--transform", "center"),
     "UsageError: mvcusum detect: argument --transform: invalid choice: "
     "'center' (choose from 'none', 'log', 'diff')"),
    ({"x.csv": ROWS_40}, ("spectrum", "x.csv", "--bandwidth", "3"),
     "UsageError: mvcusum: unrecognized arguments: --bandwidth 3"),
    ({"x.csv": ROWS_40}, ("detect", "x.csv", "--sc"),
     "UsageError: mvcusum: unrecognized arguments: --sc"),
    # an output path is spelled once: --out, --meta and --emit-curve name
    # the file, and only bench, which names its own files, reads --output-dir
    ({}, ("simulate", "--d", "1", "--T", "10", "--m", "0", "--output-dir",
          "o"), "UsageError: mvcusum: unrecognized arguments: --output-dir o"),
    ({"x.csv": ROWS_40}, ("spectrum", "x.csv", "--output-dir", "o"),
     "UsageError: mvcusum: unrecognized arguments: --output-dir o"),
    ({"x.csv": ROWS_40}, ("detect", "x.csv", "--emit-curve", "c.csv",
                          "--output-dir", "o"),
     "UsageError: mvcusum: unrecognized arguments: --output-dir o"),
    ({"x.csv": ROWS_40}, ("scan", "x.csv", "--output-dir", "o"),
     "UsageError: mvcusum: unrecognized arguments: --output-dir o"),
    # 40 rows make a curve of 41 points
    ({"x.csv": ROWS_40}, ("scan", "x.csv", "--smoothing-window", "43"),
     "DomainError: smoothing window 43 exceeds curve length 41"),
    # two faults: each reader reports a missing file when it opens it, so
    # the table (read first) and the settings checked before the input is
    # read are reported ahead of a missing input
    ({}, ("detect", "absent.csv", "--table", "absent_t.csv"),
     "FileNotFoundError: no such input file: absent_t.csv"),
    ({}, ("detect", "absent.csv", "--alpha", "2"),
     "DomainError: level must be in (0, 1), got 2.0"),
    ({}, ("spectrum", "absent.csv", "--freqs", "1"),
     "DomainError: need at least 2 frequencies, got 1"),
    # a path through a file names no file
    ({"x.csv": ROWS_40}, ("detect", "x.csv/y.csv"),
     "FileNotFoundError: no such input file: x.csv/y.csv"),
    # an empty path names no file; it is not the flag left out
    ({"x.csv": ROWS_40}, ("detect", "x.csv", "--table", ""),
     "FileNotFoundError: no such input file: "),
    ({}, ("simulate", "--config", ""),
     "FileNotFoundError: no such input file: "),
    ({}, ("bench", "table1", "--table", ""),
     "FileNotFoundError: no such input file: "),
    # a column selected twice would be read in two places
    ({"d.csv": "a,b\n1,2\n4,5\n"}, ("detect", "d.csv", "--columns", "a,a"),
     "DomainError: d.csv: column 'a' is selected 2 times"),
    # the date column is left out, so it is never read as a value column
    ({"d.csv": "a,b\n1,2\n4,5\n"}, ("detect", "d.csv", "--columns", "b",
                                   "--date-column", "b"),
     "DomainError: d.csv: column 'b' is the date column"),
    # an empty path names no file for critval either, on a level the shipped
    # table holds and on one it lacks, which is refused before anything is
    # simulated
    ({}, ("critval", "--d", "2", "--alpha", "0.05", "--table", ""),
     "FileNotFoundError: no such input file: "),
    ({}, ("critval", "--d", "2", "--alpha", "0.3", "--paths", "200", "--grid",
          "50", "--table", ""), "FileNotFoundError: no such input file: "),
    # a setting is checked as the parser reads it, so it is reported ahead
    # of a missing --table and of a grid that names no file or shipped grid
    ({}, ("detect", "absent.csv", "--table", "absent_t.csv", "--alpha", "2"),
     "DomainError: level must be in (0, 1), got 2.0"),
    ({}, ("bench", "nogrid", "--reps", "0"),
     "DomainError: replication override must be >= 1, got 0"),
    # text that does not parse is still argparse's own line
    ({}, ("scan", "absent.csv", "--h", "x"),
     "UsageError: mvcusum scan: argument --h: invalid int value: 'x'"),
    ({}, ("scan", "absent.csv", "--trim", "x"),
     "UsageError: mvcusum scan: argument --trim: invalid float value: 'x'"),
    ({}, ("spectrum", "absent.csv", "--freqs", "1.5"),
     "UsageError: mvcusum spectrum: argument --freqs: invalid int value: "
     "'1.5'"),
    # every other data-free setting too: the thread cap ahead of a grid that
    # names nothing, --skip-rows ahead of a missing --table, and critval's
    # budget on a level the shipped table holds
    ({}, ("bench", "nogrid", "--threads", "0"),
     "DomainError: thread cap must be >= 1, got 0"),
    ({}, ("detect", "absent.csv", "--table", "absent_t.csv", "--skip-rows",
          "-1"), "DomainError: skip_rows must be >= 0, got -1"),
    ({}, ("critval", "--d", "2", "--alpha", "0.05", "--paths", "0"),
     "DomainError: paths must be >= 1, got 0"),
    ({}, ("critval", "--d", "2", "--alpha", "0.05", "--grid", "1"),
     "DomainError: grid must be >= 2, got 1"),
    ({}, ("critval", "--d", "2", "--alpha", "0.05", "--seed", "-1"),
     "DomainError: seed must be >= 0, got -1"),
    # the trim is checked before the curve is smoothed, so a trim that
    # leaves no interior point of 41 is reported ahead of a window wider
    # than the curve's 42 points
    ({"x.csv": ROWS_40 + "3\n"}, ("scan", "x.csv", "--trim", "0.49",
                                  "--smoothing-window", "45"),
     "DomainError: trim 0.49 leaves no interior candidates for N=41"),
])
def test_error_lines_exact(capsys, tmp_path, monkeypatch, files, argv, line):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err == f"error: {line}\n"


def test_missing_critical_value_hint_round_trip(capsys, tmp_path, monkeypatch):
    # the two commands the hint names, FILE filled in, make the detect work
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.csv").write_text(ROWS_40)
    rc, _, err = run_cli(capsys, "detect", "x.csv", "--alpha", "0.07")
    assert rc == 2
    critval, flag = (part.replace("FILE", "t.csv").split()
                     for part in err.split("`")[1::2])
    rc, out, _ = run_cli(capsys, *critval, "--paths", "200", "--grid", "50")
    assert rc == 0 and "source=computed" in out
    rc, out, _ = run_cli(capsys, "detect", "x.csv", "--alpha", "0.07", *flag)
    assert rc == 0 and "reject=" in out


_TABLE_HEAD = b"d,alpha,value,paths,grid,seed,stderr\n"
_WIDE = b"x" * 140_000  # past the csv module's 131,072-character field limit
_CRITVAL = ("critval", "--d", "2", "--alpha", "0.05", "--table", "t.csv")


@pytest.mark.parametrize("files, argv, line", [
    ({"x.csv": b"a,b\n1,2\n3,\xff\n5,6\n"}, ("detect", "x.csv"),
     "DomainError: x.csv: not UTF-8: invalid start byte (byte 0xff)"),
    ({"s.cfg": b"d=2\nT=\xff40\nm=1\n"},
     ("simulate", "--config", "s.cfg", "--out", "sub/s.csv"),
     "GridParseError: s.cfg: not UTF-8: invalid start byte (byte 0xff)"),
    ({"g.grid": b"cell=a\nd=2\nT=64\nm=1\nreps=\xff1\n"},
     ("bench", "g.grid", "--output-dir", "out"),
     "GridParseError: g.grid: not UTF-8: invalid start byte (byte 0xff)"),
    ({"t.csv": _TABLE_HEAD + b"2,0.05,\xff,1,1,1,0.1\n"}, _CRITVAL,
     "DomainError: t.csv: not UTF-8: invalid start byte (byte 0xff)"),
    ({"t.csv": b"d,alpha,value\n2,0.05,3\n"}, _CRITVAL,
     "MissingColumn: t.csv: column 'paths' not in header "
     "['d', 'alpha', 'value']"),
    ({"t.csv": b"x,y\n1,2\n", "x.csv": ROWS_40.encode()},
     ("detect", "x.csv", "--table", "t.csv"),
     "MissingColumn: t.csv: column 'd' not in header ['x', 'y']"),
    ({"t.csv": _TABLE_HEAD + b"2,0.05,abc,1,1,1,0.1\n"}, _CRITVAL,
     "NonNumericCell: t.csv: row 1, column 'value': 'abc' is not numeric"),
    ({"t.csv": _TABLE_HEAD + b"2,0.05,2.2,1,2,1,0.1\n2,0.1\n"}, _CRITVAL,
     "NonNumericCell: t.csv: row 2, column 'value': empty cell is not "
     "numeric"),
    ({"g.grid": b"name=../escaped\n" + _CELL.encode()},
     ("bench", "g.grid", "--output-dir", "out"),
     "GridParseError: g.grid:1: name may not contain '/', '\\' or NUL, "
     "got '../escaped'"),
    ({"g.grid": b"name=g\0x\n" + _CELL.encode()},
     ("bench", "g.grid", "--output-dir", "out"),
     "GridParseError: g.grid:1: name may not contain '/', '\\' or NUL, "
     "got 'g\\x00x'"),
    # a field over the csv module's limit, wherever the csv module reads it
    ({"h.csv": b"a," + _WIDE + b"\n1,2\n3,4\n"}, ("detect", "h.csv"),
     "DomainError: h.csv: field larger than field limit (131072)"),
    ({"f.csv": b"a,b,c\n1,2," + _WIDE + b"\nnan,3,4\n5,6,7\n"},
     ("detect", "f.csv", "--columns", "a,b"),
     "DomainError: f.csv: field larger than field limit (131072)"),
    ({"t.csv": _TABLE_HEAD + b"1,0.05," + b"1" * 140_000 + b",1,1,1,0.1\n",
      "x.csv": ROWS_40.encode()}, ("detect", "x.csv", "--table", "t.csv"),
     "DomainError: t.csv: field larger than field limit (131072)"),
    # a table row that no table writer makes, which would decide the test
    ({"t.csv": _TABLE_HEAD + b"1,0.1,1.5,1,2,1,0\n1,0.05,nan,1,2,1,0\n",
      "x.csv": ROWS_40.encode()}, ("detect", "x.csv", "--table", "t.csv"),
     "NonFinite: t.csv: non-finite value at row 2, column 'value'"),
    ({"t.csv": _TABLE_HEAD + b"2,0.05,-inf,1,2,1,0\n",
      "g.grid": _CELL.encode()},
     ("bench", "g.grid", "--table", "t.csv", "--output-dir", "out"),
     "NonFinite: t.csv: non-finite value at row 1, column 'value'"),
    ({"t.csv": _TABLE_HEAD + b"2,0.05,2.4,1,2,1,inf\n"}, _CRITVAL,
     "NonFinite: t.csv: non-finite value at row 1, column 'stderr'"),
    ({"t.csv": _TABLE_HEAD + b"1,0.05,2.4,1,2,1,0\n1,0.050,9.9,1,2,1,0\n",
      "x.csv": ROWS_40.encode()}, ("detect", "x.csv", "--table", "t.csv"),
     "DomainError: t.csv: row 2: d=1, alpha=0.05 repeats an earlier row"),
    ({"t.csv": _TABLE_HEAD + b"0,0.05,2.4,1,1,1,0\n2,0.05,2.4,1,1,1,0\n"},
     _CRITVAL, "DomainError: t.csv: row 1: dimension must be >= 1, got 0"),
    ({"t.csv": _TABLE_HEAD + b"2,0.05,2.4,1,2,1,0\n2,1.5,1,1,2,1,0\n",
      "g.grid": _CELL.encode()},
     ("bench", "g.grid", "--table", "t.csv", "--output-dir", "out"),
     "DomainError: t.csv: row 2: level must be in (0, 1), got 1.5"),
    ({"t.csv": _TABLE_HEAD + b"2,0.05,2.4,1,2,1,0\n2,nan,1,1,2,1,0\n"},
     _CRITVAL, "DomainError: t.csv: row 2: level must be in (0, 1), got nan"),
    # provenance that no simulation has, and values out of their order
    ({"t.csv": _TABLE_HEAD + b"1,0.05,1.8,0,2,1,0\n",
      "x.csv": ROWS_40.encode()}, ("detect", "x.csv", "--table", "t.csv"),
     "DomainError: t.csv: row 1: paths must be >= 1, got 0"),
    ({"t.csv": _TABLE_HEAD + b"2,0.05,2.4,10000001,2,1,0\n",
      "g.grid": _CELL.encode()},
     ("bench", "g.grid", "--table", "t.csv", "--output-dir", "out"),
     "DomainError: t.csv: row 1: paths must be <= 10000000, got 10000001"),
    ({"t.csv": _TABLE_HEAD + b"2,0.05,2.4,1,1,1,0\n"}, _CRITVAL,
     "DomainError: t.csv: row 1: grid must be >= 2, got 1"),
    ({"t.csv": _TABLE_HEAD + b"1,0.05,1.8,1,2560001,1,0\n",
      "x.csv": ROWS_40.encode()}, ("detect", "x.csv", "--table", "t.csv"),
     "DomainError: t.csv: row 1: grid must be <= 2560000, got 2560001"),
    ({"t.csv": _TABLE_HEAD + b"2,0.05,2.4,1,2,-3,0\n",
      "g.grid": _CELL.encode()},
     ("bench", "g.grid", "--table", "t.csv", "--output-dir", "out"),
     "DomainError: t.csv: row 1: seed must be >= 0, got -3"),
    ({"t.csv": _TABLE_HEAD + b"2,0.05,2.4,1,2,1,-0.5\n"}, _CRITVAL,
     "DomainError: t.csv: row 1: stderr must be >= 0, got -0.5"),
    ({"t.csv": _TABLE_HEAD + b"1,0.05,1.8,1,2,1,0\n1,0.1,2.5,1,2,1,0\n",
      "x.csv": ROWS_40.encode()}, ("detect", "x.csv", "--table", "t.csv"),
     "DomainError: t.csv: d=1: value at alpha=0.05 (1.8) not above "
     "alpha=0.1 (2.5)"),
    ({"t.csv": _TABLE_HEAD + b"2,0.05,2.4,1,2,1,0\n3,0.05,2,1,2,1,0\n",
      "g.grid": _CELL.encode()},
     ("bench", "g.grid", "--table", "t.csv", "--output-dir", "out"),
     "DomainError: t.csv: alpha=0.05: value at d=3 (2.0) not above d=2 (2.4)"),
    ({"t.csv": _TABLE_HEAD + b"2,0.01,2.4,1,2,1,0\n2,0.05,2.4,1,2,1,0\n"},
     _CRITVAL, "DomainError: t.csv: d=2: value at alpha=0.01 (2.4) not above "
     "alpha=0.05 (2.4)"),
], ids=["csv-not-utf8", "config-not-utf8", "grid-not-utf8", "table-not-utf8",
        "table-missing-column", "table-foreign-header", "table-bad-cell",
        "table-short-row", "grid-name-escapes", "grid-name-nul", "csv-wide-header", "csv-wide-field-beside-bad-cell",
        "table-wide-value", "table-nan-value", "table-minus-inf-value",
        "table-inf-stderr", "table-repeated-key", "table-d-0",
        "table-alpha-1.5", "table-alpha-nan", "table-paths-0",
        "table-paths-over-cap", "table-grid-1", "table-grid-over-cap",
        "table-seed-minus-3", "table-stderr-minus-0.5",
        "table-value-rises-with-level", "table-value-falls-with-d",
        "table-value-flat-in-level"])
def test_unreadable_file_is_a_data_error(capsys, tmp_path, monkeypatch, files,
                                         argv, line):
    # one error line naming the file, and nothing written
    monkeypatch.chdir(tmp_path)
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out, err) == (2, "", f"error: {line}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


def test_detect_checks_trim_before_reading_the_input(capsys, tmp_path,
                                                     cv2_csv):
    # a trim outside [0, 0.5) is an error whether or not the test rejects,
    # under each command that reads one, before the input is read
    path = tmp_path / "h0.csv"
    write_series(path, SimulationSpec(d=2, T=400, m=2, seed=SEED_H0))
    line = "error: DomainError: trim fraction must be in [0, 0.5), got 0.7\n"
    for command in (("detect", "--table", cv2_csv), ("scan",), ("estimate",)):
        for source in (path, tmp_path / "absent.csv"):
            rc, out, err = run_cli(capsys, command[0], source, *command[1:],
                                   "--trim", "0.7")
            assert (rc, out, err) == (2, "", line)
    rc, out, _ = run_cli(capsys, "detect", path, "--table", cv2_csv)
    assert rc == 0 and kv_lines(out)["reject"] == "false"


@pytest.mark.parametrize("argv, message", [
    (("detect", "--h", "0"), "bandwidth must be a positive integer, got 0"),
    (("scan", "--h", "0"), "bandwidth must be a positive integer, got 0"),
    (("estimate", "--h", "0"), "bandwidth must be a positive integer, got 0"),
    (("spectrum", "--h", "0"), "bandwidth must be a positive integer, got 0"),
    (("detect", "--scan", "--smoothing-window", "4"),
     "smoothing window must be odd and >= 1, got 4"),
    (("scan", "--smoothing-window", "4"),
     "smoothing window must be odd and >= 1, got 4"),
    (("detect", "--scan", "--min-prominence", "-1"),
     "prominence floor must be >= 0, got -1.0"),
    (("scan", "--min-prominence", "-1"),
     "prominence floor must be >= 0, got -1.0"),
    # of two bad settings, the first on the command line is reported, and
    # a repeated flag is checked at each value
    (("scan", "--h", "0", "--trim", "0.7"),
     "bandwidth must be a positive integer, got 0"),
    (("scan", "--trim", "0.7", "--h", "0"),
     "trim fraction must be in [0, 0.5), got 0.7"),
    (("scan", "--h", "0", "--h", "3"),
     "bandwidth must be a positive integer, got 0"),
], ids=["detect-h", "scan-h", "estimate-h", "spectrum-h", "detect-window",
        "scan-window", "detect-prominence", "scan-prominence", "h-then-trim",
        "trim-then-h", "repeated-h"])
def test_settings_are_refused_before_reading_the_input(capsys, tmp_path, argv,
                                                       message):
    rc, out, err = run_cli(capsys, argv[0], tmp_path / "absent.csv", *argv[1:])
    assert (rc, out, err) == (2, "", f"error: DomainError: {message}\n")


def test_settings_a_command_does_not_read_are_still_checked(capsys, ha_csv,
                                                            cv2_csv):
    # the norm_argmax estimate reads no bandwidth, and detect without
    # --scan no scan setting, but a bad value is refused all the same
    path, _, _ = ha_csv
    for argv, message in (
        (("estimate", path, "--method", "norm_argmax", "--h", "0"),
         "bandwidth must be a positive integer, got 0"),
        (("detect", path, "--table", cv2_csv, "--smoothing-window", "4",
          "--min-prominence", "-1"),
         "smoothing window must be odd and >= 1, got 4"),
        (("detect", path, "--table", cv2_csv, "--min-prominence", "-1"),
         "prominence floor must be >= 0, got -1.0"),
    ):
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out, err) == (2, "", f"error: DomainError: {message}\n")


def test_detect_column_subset(capsys, tmp_path):
    path = tmp_path / "prices.csv"
    write_price_csv(path)
    table = table_file(tmp_path / "cv2.csv", [(2, 0.05, 2.5)])
    rc, out, _ = run_cli(
        capsys, "detect", path, "--columns", "Opening Price,Closing Price",
        "--table", table,
    )
    assert rc == 0
    assert kv_lines(out)["d"] == "2"


def test_detect_dated_csv_matches_undated(capsys, tmp_path):
    # the date column is left out of the values
    dated = tmp_path / "prices.csv"
    write_price_csv(dated)
    undated = tmp_path / "undated.csv"
    with open(dated, newline="") as src, open(undated, "w", newline="") as dst:
        csv.writer(dst).writerows(row[1:] for row in csv.reader(src))
    table = table_file(tmp_path / "cv5.csv", [(5, 0.05, 2.0)])
    outs = []
    for argv in ((dated,), (dated, "--date-column", "Date"), (undated,)):
        rc, out, _ = run_cli(capsys, "detect", *argv, "--scan", "--table", table)
        assert rc == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    assert "t_hat=" in outs[0]


def test_detect_missing_date_column_is_reported(capsys, tmp_path):
    path = tmp_path / "prices.csv"
    write_price_csv(path)
    header = ["Date", "Opening Price", "High Price", "Low Price",
              "Closing Price", "Volume"]
    rc, _, err = run_cli(capsys, "detect", path, "--date-column", "Missing")
    assert rc == 2
    assert err == (f"error: MissingColumn: {path}: date column 'Missing' not "
                   f"in header {header}\n")
    # an absent value column is reported first
    rc, _, err = run_cli(capsys, "detect", path, "--columns", "Nope",
                         "--date-column", "Missing")
    assert rc == 2
    assert err == (f"error: MissingColumn: {path}: column 'Nope' not in header "
                   f"{header}\n")


# ------------------------------------------------------- estimate and scan


def test_estimate_matches_library_oracle(capsys, tmp_path, ha_csv):
    path, series, _ = ha_csv
    rc, out, _ = run_cli(capsys, "estimate", path)
    assert rc == 0
    lines = kv_lines(out)
    oracle = estimate_changepoint(
        quadform(cusum(series), long_run_covariance(series)))
    assert int(lines["t_hat"]) == oracle.t_hat
    assert float(lines["k_hat"]) == oracle.k_hat
    assert lines["method"] == "quadform_argmax"
    assert float(lines["curve_value"]) == oracle.curve_value


def test_estimate_norm_method(capsys, tmp_path, ha_csv):
    path, series, _ = ha_csv
    rc, out, _ = run_cli(capsys, "estimate", path, "--method", "norm_argmax")
    assert rc == 0
    lines = kv_lines(out)
    oracle = estimate_changepoint(cusum(series), method="norm_argmax")
    assert int(lines["t_hat"]) == oracle.t_hat
    assert lines["method"] == "norm_argmax"


def test_scan_locates_both_breaks(capsys, tmp_path):
    path = tmp_path / "two.csv"
    spec = SimulationSpec(d=2, T=1200, m=2, seed=SEED_TWO_BREAKS)
    series, _ = gen_series(spec)
    x = series.values.copy()
    x[400:800] += 4.0
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x0", "x1"])
        w.writerows([format(v, ".17g") for v in row] for row in x)
    rc, out, _ = run_cli(capsys, "scan", path)
    assert rc == 0
    maxima = []
    for line in out.splitlines():
        if line.startswith("extremum index=") and "kind=max" in line:
            maxima.append(int(line.split()[1].split("=")[1]))
    assert any(abs(k - 400) <= 60 for k in maxima)
    assert any(abs(k - 800) <= 60 for k in maxima)


def test_scan_respects_prominence_floor(capsys, ha_csv):
    path, _, _ = ha_csv
    rc, out, _ = run_cli(capsys, "scan", path, "--min-prominence", "1e9")
    assert rc == 0
    assert kv_lines(out)["extrema_count"] == "0"


def test_scan_rejects_nan_prominence_floor(capsys, tmp_path, ha_csv):
    path, _, _ = ha_csv
    rc, out, err = run_cli(capsys, "scan", path, "--min-prominence", "nan")
    assert rc == 2
    assert out == ""
    assert err == "error: DomainError: prominence floor must be >= 0, got nan\n"


def test_scan_rejects_even_window(capsys, ha_csv):
    path, _, _ = ha_csv
    rc, _, err = run_cli(capsys, "scan", path, "--smoothing-window", "4")
    assert rc == 2
    assert "error: DomainError" in err


def test_scan_emit_curve(capsys, tmp_path, ha_csv):
    path, series, _ = ha_csv
    rc, out, _ = run_cli(capsys, "scan", path, "--emit-curve",
                         tmp_path / "q.csv")
    assert rc == 0
    assert (tmp_path / "q.csv").exists()
    assert "smoothing_window=" in out
    # the scan exports the unsmoothed test curve, byte for byte as detect does
    rc, _, _ = run_cli(capsys, "detect", path, "--emit-curve",
                       tmp_path / "d.csv")
    assert rc == 0
    assert (tmp_path / "q.csv").read_bytes() == (tmp_path / "d.csv").read_bytes()


# ---------------------------------------------------------------- critval


def test_critval_creates_and_extends_table_file(capsys, tmp_path):
    table = tmp_path / "cv.csv"
    rc, out, _ = run_cli(capsys, "critval", "--d", 1, "--alpha", "0.1",
                         "--paths", 20000, "--grid", 256, "--seed", 5,
                         "--table", table)
    assert rc == 0
    lines = kv_lines(out)
    assert lines["source"] == "computed"
    assert lines["paths"] == "20000"
    assert lines["grid"] == "256"
    assert lines["seed"] == "5"
    # Monte Carlo value should sit near the analytic d=1 quantile (1.498),
    # shifted slightly low by the discrete-grid supremum bias.
    assert 1.30 < float(lines["value"]) < 1.60

    stored = CriticalValueTable.load_csv(table).get(1, 0.1)
    assert format(stored.value, ".17g") == lines["value"]

    rc, out, _ = run_cli(capsys, "critval", "--d", 1, "--alpha", "0.1",
                         "--table", table)
    assert rc == 0
    again = kv_lines(out)
    assert again["source"] == "cache"
    assert again["value"] == lines["value"]


def test_critval_table_in_new_directory(capsys, tmp_path, monkeypatch):
    # the table's directory is made for it, and the table is saved before
    # any line is printed
    monkeypatch.chdir(tmp_path)
    rc, out, err = run_cli(capsys, "critval", "--d", 1, "--alpha", "0.05",
                           "--paths", 10, "--grid", 10, "--table", "nodir/t.csv")
    assert rc == 0, err
    assert kv_lines(out)["table"] == "nodir/t.csv"
    stored = CriticalValueTable.load_csv(tmp_path / "nodir" / "t.csv")
    assert format(stored.get(1, 0.05).value, ".17g") == kv_lines(out)["value"]


def test_critval_cache_hit_leaves_table_untouched(capsys, tmp_path):
    table = table_file(tmp_path / "cv.csv", [(1, 0.05, 1.5)])
    os.utime(table, ns=(1, 1))
    before = table.read_bytes()
    rc, out, _ = run_cli(capsys, "critval", "--d", 1, "--alpha", "0.05",
                         "--table", table)
    assert rc == 0
    assert kv_lines(out)["source"] == "cache"
    assert table.read_bytes() == before
    assert os.stat(table).st_mtime_ns == 1


def test_critval_refuses_an_entry_that_breaks_the_table_order(
        capsys, tmp_path):
    # the computed 10% value lies above the stored 5% one: nothing is
    # printed, and the table is left as it was
    table = table_file(tmp_path / "cv.csv", [(1, 0.05, 0.5)])
    os.utime(table, ns=(1, 1))
    before = table.read_bytes()
    rc, out, err = run_cli(capsys, "critval", "--d", 1, "--alpha", "0.1",
                           "--paths", 200, "--grid", 50, "--table", table)
    value = critical_value(1, 0.1, paths=200, grid=50)
    assert (rc, out) == (2, "")
    assert err == (f"error: DomainError: {table}: d=1: value at alpha=0.05 "
                   f"(0.5) not above alpha=0.1 ({value!r})\n")
    assert table.read_bytes() == before
    assert os.stat(table).st_mtime_ns == 1


def test_critval_defaults_to_shipped_table(capsys):
    rc, out, _ = run_cli(capsys, "critval", "--d", 2)
    assert rc == 0
    lines = kv_lines(out)
    assert lines["source"] == "cache"
    assert float(lines["value"]) == default_table().get(2, 0.05).value


# ------------------------------------------------------------------ bench

MINI_GRID = """\
name=mini
alpha=0.05
d=2
T=260
m=2
reps=2
seed=3

cell=shift
delta=1.2,1.2
k_star=0.5

cell=null
"""

BAD_CELL_GRID = """\
name=bad
alpha=0.05

cell=broken
d=2
T=60
m=1
reps=2
base=0,0,0,0
"""


def test_bench_runs_inline_grid_and_writes_tables(capsys, tmp_path, cv2_csv):
    grid = tmp_path / "mini.grid"
    grid.write_text(MINI_GRID)
    out_dir = tmp_path / "out"
    rc, out, _ = run_cli(capsys, "bench", grid, "--table", cv2_csv,
                         "--output-dir", out_dir)
    assert rc == 0
    assert "cell shift: reject 2/2" in out
    assert "cell null: reject " in out
    assert kv_lines(out)["grid"] == "mini"
    with open(out_dir / "mini.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 2
    assert rows[0][0] == "cell"
    summary = (out_dir / "summary.txt").read_text()
    assert "completed=2/2" in summary


def test_bench_reps_override_and_histograms(capsys, tmp_path, cv2_csv):
    grid = tmp_path / "mini.grid"
    grid.write_text(MINI_GRID)
    out_dir = tmp_path / "out"
    rc, _, _ = run_cli(capsys, "bench", grid, "--table", cv2_csv,
                       "--reps", 1, "--always-estimate", "--output-dir", out_dir)
    assert rc == 0
    with open(out_dir / "mini.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    reps_col = header.index("replications")
    assert {row[reps_col] for row in rows[1:]} == {"1"}
    hist = (out_dir / "mini_hist.csv").read_text().splitlines()
    assert hist[0] == "cell,t_hat"
    assert [line.split(",")[0] for line in hist[1:]] == ["shift", "null"]


def test_bench_cell_names_are_no_file_names(capsys, tmp_path):
    # a cell name is a row label only: path separators, NUL and a name
    # longer than any file name run, and the grid writes its three files
    names = ["a/b", "a\\b", "a\0b", "c" * 300]
    (tmp_path / "g.grid").write_text(
        "name=g\nd=2\nT=64\nm=1\nreps=1\n"
        + "".join(f"\ncell={name}\n" for name in names))
    out_dir = tmp_path / "out"
    rc, out, _ = run_cli(capsys, "bench", tmp_path / "g.grid",
                         "--always-estimate", "--output-dir", out_dir)
    assert rc == 0
    assert out.endswith("completed=4/4\n")
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "g.csv", "g_hist.csv", "summary.txt"]
    with open(out_dir / "g_hist.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert [row[0] for row in rows[1:]] == names


def test_bench_cell_failures_exit_nonzero_without_keep_going(capsys, tmp_path, cv2_csv):
    grid = tmp_path / "bad.grid"
    grid.write_text(BAD_CELL_GRID)
    rc, _, err = run_cli(capsys, "bench", grid, "--table", cv2_csv,
                         "--output-dir", tmp_path / "a")
    assert rc == 2
    assert "error: CellFailures" in err

    rc, _, _ = run_cli(capsys, "bench", grid, "--table", cv2_csv,
                       "--keep-going", "--output-dir", tmp_path / "b")
    assert rc == 0
    summary = (tmp_path / "b" / "summary.txt").read_text()
    assert "DegenerateSpectrum" in summary


def test_bench_malformed_grid_reports_line(capsys, tmp_path, cv2_csv):
    grid = tmp_path / "oops.grid"
    grid.write_text("name=x\n\ncell=a\nd=oops\nT=260\nm=2\nreps=1\n")
    rc, _, err = run_cli(capsys, "bench", grid, "--table", cv2_csv,
                         "--output-dir", tmp_path)
    assert rc == 2
    assert "error: GridParseError" in err
    assert ":4:" in err


def test_bench_unknown_grid_name_is_data_error(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "bench", "nosuch", "--output-dir", tmp_path)
    assert rc == 2
    assert "error: DomainError" in err
    assert "table1" in err


def test_bench_runs_again_into_its_own_output_directory(capsys, tmp_path,
                                                       monkeypatch):
    # a directory named like a shipped grid does not hide that grid
    monkeypatch.chdir(tmp_path)
    for _ in range(2):
        rc, out, _ = run_cli(capsys, "bench", "table1", "--reps", 1,
                             "--output-dir", "table1")
        assert rc == 0
        assert out.endswith("completed=10/10\n")


def test_bench_on_a_directory_is_no_grid(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mydir").mkdir()
    rc, out, err = run_cli(capsys, "bench", "mydir")
    assert (rc, out) == (2, "")
    assert err == ("error: DomainError: no grid file or shipped grid named "
                   "'mydir'; shipped grids: table1, table2, table3, table4, "
                   "h0\n")


def test_bench_reads_a_grid_from_a_pipe(capsys, tmp_path, cv2_csv):
    r, w = os.pipe()
    with open(w, "w") as fh:
        fh.write(MINI_GRID)  # far less than a pipe's buffer
    try:
        rc, out, _ = run_cli(capsys, "bench", f"/dev/fd/{r}", "--table",
                             cv2_csv, "--output-dir", tmp_path)
    finally:
        os.close(r)
    assert rc == 0
    assert kv_lines(out)["grid"] == "mini"


_DATED = "Date,a,b\n" + "".join(f"2020-01-{1 + i % 28:02d},{i % 7},{i % 5}\n"
                                  for i in range(40))


@pytest.mark.parametrize("argv, text", [
    (("detect", "IN", "--scan"), _DATED),
    (("detect", "PIPE", "--scan"), _DATED),
    (("bench", "IN", "--output-dir", "out"), MINI_GRID),
    (("simulate", "--config", "IN", "--out", "s.csv"), "d=2\nT=40\nm=1\n"),
    (("critval", "--d", "2", "--alpha", "0.3", "--paths", "200", "--grid",
      "50", "--table", "IN"),
     "d,alpha,value,paths,grid,seed,stderr\n2,0.05,2.4,200000,10000,4,0.005\n"),
], ids=["csv", "csv-pipe", "grid", "config", "table"])
def test_a_byte_order_mark_is_read_past(capsys, tmp_path, monkeypatch, argv,
                                        text):
    # Excel's "CSV UTF-8" starts a file with U+FEFF: every reader drops it,
    # so the run gives what the same file without it gives, and the table
    # critval extends is written back without it
    runs = []
    for bom in ("", "\ufeff"):
        run = tmp_path / ("bom" if bom else "plain")
        run.mkdir()
        monkeypatch.chdir(run)
        data = (bom + text).encode("utf-8")
        (run / "IN").write_bytes(data)
        r, w = os.pipe()
        with open(w, "wb") as fh:
            fh.write(data)  # far less than a pipe's buffer
        try:
            rc, out, err = run_cli(capsys, *(f"/dev/fd/{r}" if a == "PIPE"
                                             else a for a in argv))
        finally:
            os.close(r)
        files = {p.relative_to(run): p.read_bytes() for p in run.rglob("*")
                 if p.is_file()}
        if files[Path("IN")] == data:  # not written back
            del files[Path("IN")]
        runs.append((rc, out, err, files))
    assert (runs[0][0], runs[0][2]) == (0, "")
    assert runs[1] == runs[0]


def test_bench_is_bit_reproducible_across_threads(capsys, tmp_path, cv2_csv):
    grid = tmp_path / "mini.grid"
    grid.write_text(MINI_GRID)
    for sub, threads in (("a", 1), ("b", 2)):
        rc, _, _ = run_cli(capsys, "bench", grid, "--table", cv2_csv,
                           "--always-estimate", "--threads", threads,
                           "--output-dir", tmp_path / sub)
        assert rc == 0
    for name in ("mini.csv", "summary.txt", "mini_hist.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


@pytest.mark.slow
def test_bench_shipped_table1_smoke(capsys, tmp_path, cv2_csv):
    started = time.monotonic()
    out_dir = tmp_path / "out"
    rc, _, _ = run_cli(capsys, "bench", "table1", "--reps", 2,
                       "--table", cv2_csv, "--output-dir", out_dir)
    elapsed = time.monotonic() - started
    assert rc == 0
    with open(out_dir / "table1.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 10
    assert elapsed < 60.0


# ------------------------------------------------------------- entry point


def _child_env():
    """os.environ for a child interpreter. The child runs from tmp_path,
    where a relative PYTHONPATH entry (such as `src` in a checkout) no
    longer resolves; put the absolute directory holding the imported
    package first so the child finds the same code."""
    env = dict(os.environ)
    pkg_root = str(Path(mvcusum.__file__).resolve().parent.parent)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = pkg_root + (os.pathsep + old if old else "")
    return env


def test_skip_rows_stop_at_the_end_of_the_file(tmp_path):
    # in a child process, so a skip that runs on fails the test, not the suite
    (tmp_path / "tiny.csv").write_text("a,b\n1,2\n3,4\n")
    result = subprocess.run(
        [sys.executable, "-m", "mvcusum", "detect", "tiny.csv", "--skip-rows",
         "1000000000000"],
        capture_output=True, text=True, cwd=tmp_path, timeout=30,
        env=_child_env(),
    )
    assert (result.returncode, result.stdout, result.stderr) == (
        2, "", "error: MissingColumn: tiny.csv: no header row\n")


def test_module_entrypoint_subprocess(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "mvcusum", "critval", "--d", "1",
         "--alpha", "0.5", "--paths", "200", "--grid", "64"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env=_child_env(),
    )
    assert result.returncode == 0, result.stderr
    assert "value=" in result.stdout


@pytest.mark.parametrize("read_first", [True, False],
                         ids=["closed-mid-output", "closed-before-output"])
def test_closed_stdout_ends_quietly(tmp_path, read_first):
    # like a filter piped into `head`: the reader closes stdout early, and
    # the command stops with exit code 1 and nothing on stderr
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)  # stdout buffered, as a pipe's usually is
    x = np.random.default_rng(3).normal(size=(20_000, 2))
    np.savetxt(tmp_path / "w.csv", x, delimiter=",", header="a,b", comments="")
    # every local extremum of the raw curve is reported: hundreds of kB
    argv = ["detect", "w.csv", "--scan", "--smoothing-window", "1",
            "--min-prominence", "0"] if read_first else ["detect", "w.csv"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "mvcusum", *argv], cwd=tmp_path, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    if read_first:
        assert proc.stdout.readline().startswith(b"statistic=")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert err == b""


@pytest.mark.parametrize("argv, unbuffered, expected", [
    (["bench", "bad.grid"], False,
     b"error: CellFailures: 2 failed replications across the grid\n"),
    (["bench", "bad.grid"], True, b""),
    (["--help"], False, b""),
], ids=["cell-failures-buffered", "cell-failures-unbuffered", "help"])
def test_closed_stdout_exits_1_through_main(tmp_path, argv, unbuffered, expected):
    # bench's failure exit and --help end in main like any other run: with
    # a buffered stdout, the lines wait for main's flush (after the error
    # line); unbuffered, the first line meets the closed pipe and the run
    # stops there. Either way exit 1, and no "Exception ignored" line
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    (tmp_path / "bad.grid").write_text(BAD_CELL_GRID)
    proc = subprocess.Popen(
        [sys.executable, "-m", "mvcusum", *argv], cwd=tmp_path, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert err == expected


# Runs in a fresh interpreter: imports the package, then runs each command
# through cli.main and records the scipy modules loaded so far.
_NO_SCIPY_CHILD = """
import contextlib, io, json, sys
import mvcusum
from mvcusum import cli

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

report = [("import mvcusum", 0, loaded())]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    report.append((" ".join(argv), rc, loaded()))
print(json.dumps(report))
"""


def test_runtime_commands_import_no_scipy(tmp_path):
    (tmp_path / "mini.grid").write_text(MINI_GRID)
    commands = [
        ["simulate", "--d", "2", "--T", "400", "--m", "2", "--delta", "1,1",
         "--k-star", "0.5", "--seed", "1", "--out", "series.csv"],
        ["detect", "series.csv", "--scan", "--emit-curve", "curve.csv"],
        ["scan", "series.csv"],
        ["estimate", "series.csv"],
        ["spectrum", "series.csv", "--out", "spec.csv"],
        ["critval", "--d", "2", "--alpha", "0.05"],
        ["bench", "mini.grid", "--output-dir", "grid"],
    ]
    result = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_CHILD, json.dumps(commands)],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
        env=_child_env(),
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert len(report) == 1 + len(commands)
    for step, rc, modules in report:
        assert rc == 0, (step, result.stderr)
        assert not modules, f"{step} loaded {len(modules)} scipy modules: {modules[:3]}"


# Runs in a fresh interpreter: records whether numpy is loaded after
# importing the package and after each step that needs no numpy.
_NO_NUMPY_CHILD = """
import contextlib, io, json, sys
import mvcusum
report = [("import mvcusum", 0, "numpy" in sys.modules)]
mvcusum.default_table()
report.append(("default_table()", 0, "numpy" in sys.modules))
from mvcusum import cli
for argv in (["critval", "--d", "5", "--alpha", "0.05"], ["--help"],
             ["detect", "x.csv", "--transform", "nope"],
             ["detect", "x.csv", "--h", "3", "--trim", "0.1", "--alpha", "0.1",
              "--smoothing-window", "5", "--min-prominence", "1",
              "--transform", "nope"],
             ["scan", "x.csv", "--h", "0"],
             ["critval", "--d", "2", "--alpha", "0.05", "--paths", "0"]):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    report.append((" ".join(argv), rc, "numpy" in sys.modules))
print(json.dumps(report))
"""


def test_import_and_cached_critval_load_no_numpy(tmp_path):
    # a short-lived process pays for numpy only when its command needs it
    result = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_CHILD],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env=_child_env(),
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == [
        ["import mvcusum", 0, False],
        ["default_table()", 0, False],
        ["critval --d 5 --alpha 0.05", 0, False],
        ["--help", 0, False],
        ["detect x.csv --transform nope", 2, False],
        ["detect x.csv --h 3 --trim 0.1 --alpha 0.1 --smoothing-window 5 "
         "--min-prominence 1 --transform nope", 2, False],
        ["scan x.csv --h 0", 2, False],
        ["critval --d 2 --alpha 0.05 --paths 0", 2, False],
    ]


# Runs in a fresh interpreter: one command through cli.main, then its exit
# code and which of the test's modules it loaded.
_LOADED_CHILD = """
import contextlib, io, json, sys
from mvcusum import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[1:])
print(json.dumps([rc, [m for m in ("mvcusum.engine", "mvcusum.spectral")
                       if m in sys.modules]]))
"""


def test_simulate_loads_neither_engine_nor_spectral(tmp_path):
    # simulate reads its recipe through experiments, which imports the
    # test's modules only inside run_cell
    (tmp_path / "r.cfg").write_text("d=2\nT=50\nm=1\ndelta=1,1\nk_star=0.5\n")
    result = subprocess.run(
        [sys.executable, "-c", _LOADED_CHILD, "simulate", "--config", "r.cfg",
         "--out", "s.csv"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env=_child_env(),
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == [0, []]


def _blas_env(preset):
    """_child_env() with OPENBLAS_NUM_THREADS set to preset, or unset when
    preset is None."""
    env = _child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    return env


# Runs in a fresh interpreter: optionally imports numpy first, then the
# package and a module that loads numpy through it, and prints the BLAS
# thread variable and, on Linux, the thread count of the process.
_BLAS_CHILD = """
import os, sys
if sys.argv[1] == "numpy-first":
    import numpy
import mvcusum
import mvcusum.engine
threads = None
if sys.platform.startswith("linux"):
    with open("/proc/self/status") as fh:
        threads = next(l.split()[1] for l in fh if l.startswith("Threads:"))
print(os.environ.get("OPENBLAS_NUM_THREADS"), threads)
"""


@pytest.mark.parametrize("preset, first, expected", [
    (None, "package-first", "1"),
    ("2", "package-first", "2"),  # a caller's own setting is kept
    (None, "numpy-first", "None"),  # too late to act: not set, not leaked
], ids=["unset", "preset", "numpy-first"])
def test_package_loads_blas_with_one_thread(tmp_path, preset, first, expected):
    result = subprocess.run(
        [sys.executable, "-c", _BLAS_CHILD, first],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env=_blas_env(preset),
    )
    assert result.returncode == 0, result.stderr
    value, threads = result.stdout.split()
    assert value == expected
    if expected == "1" and threads != "None":
        assert threads == "1"  # OpenBLAS started no worker threads


def test_deep_filter_bits_do_not_depend_on_blas_threads(tmp_path):
    # at rho=0.999 the filter is 34,521 taps deep, long enough for a
    # threaded BLAS to split its dot products; unset must mean one thread
    written = []
    for preset in (None, "1"):
        out = tmp_path / f"series_{preset}.csv"
        result = subprocess.run(
            [sys.executable, "-m", "mvcusum", "simulate", "--d", "2", "--T",
             "100", "--m", "0", "--rho", "0.999", "--out", str(out)],
            capture_output=True, text=True, cwd=tmp_path, timeout=120,
            env=_blas_env(preset),
        )
        assert result.returncode == 0, result.stderr
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_bench_outputs_are_utf8_whatever_the_locale(tmp_path):
    # a cell name outside ASCII, under the C locale without UTF-8 mode,
    # where open() would otherwise encode as ASCII: the table, histogram
    # and summary are the bytes of a UTF-8 run
    (tmp_path / "g.grid").write_text(
        "name=g\nalpha=0.05\nd=2\nT=64\nm=1\nreps=1\n\ncell=café\n",
        encoding="utf-8")
    ascii_locale = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
                    "LC_ALL": "C", "PYTHONIOENCODING": "utf-8"}
    written = []
    for out, locale in (("ascii", ascii_locale), ("utf8", {"PYTHONUTF8": "1"})):
        result = subprocess.run(
            [sys.executable, "-m", "mvcusum", "bench", "g.grid",
             "--always-estimate", "--output-dir", out],
            capture_output=True, text=True, cwd=tmp_path, timeout=120,
            env={**_child_env(), **locale},
        )
        assert (result.returncode, result.stderr) == (0, "")
        written.append([(tmp_path / out / name).read_bytes()
                        for name in ("g.csv", "g_hist.csv", "summary.txt")])
    assert written[0] == written[1]
    assert "\r\ncafé,".encode() in written[0][1]
    assert "cell=café ".encode() in written[0][2]


def test_stdout_under_an_ascii_locale(tmp_path):
    # under the C locale without UTF-8 mode stdout is ASCII: a cell name
    # outside it prints as its backslash escape, and an output directory
    # given as bytes that do not decode prints as those bytes
    (tmp_path / "g.grid").write_text(
        "name=g\nd=2\nT=64\nm=1\nreps=1\n\ncell=café\n", encoding="utf-8")
    env = {**_child_env(), "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "LC_ALL": "C"}
    env.pop("PYTHONIOENCODING", None)
    out_dir = "outé".encode()
    with open(tmp_path / "stdout", "wb") as fh:
        result = subprocess.run(
            [sys.executable, "-m", "mvcusum", "bench", "g.grid",
             "--always-estimate", "--output-dir", out_dir],
            stdout=fh, stderr=subprocess.PIPE, cwd=tmp_path, timeout=120,
            env=env)
    out = (tmp_path / "stdout").read_bytes()
    assert (result.returncode, result.stderr) == (0, b"")
    assert out.startswith(b"cell caf\\xe9: reject ")
    assert out.endswith(b"grid=g\n" + b"".join(
        b"wrote " + out_dir + b"/" + name + b"\n"
        for name in (b"g.csv", b"g_hist.csv", b"summary.txt"))
        + b"completed=1/1\n")
    assert sorted(os.listdir(tmp_path / os.fsdecode(out_dir))) == [
        "g.csv", "g_hist.csv", "summary.txt"]
    # an error naming such a path stays one line on stderr
    result = subprocess.run(
        [sys.executable, "-m", "mvcusum", "detect", "absent_é.csv".encode()],
        capture_output=True, cwd=tmp_path, timeout=120, env=env)
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr == (b"error: FileNotFoundError: no such input file: "
                             b"absent_\\udcc3\\udca9.csv\n")


def test_bench_refuses_a_grid_name_the_locale_cannot_encode(tmp_path):
    # the grid name is the stem of every output file name, so one the file
    # system encoding cannot spell is refused when the grid is read
    (tmp_path / "g.grid").write_text(
        "name=café\nd=2\nT=64\nm=1\nreps=1\n\ncell=a\n", encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "mvcusum", "bench", "g.grid",
         "--always-estimate", "--output-dir", "out"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env={**_child_env(), "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
             "LC_ALL": "C", "PYTHONIOENCODING": "utf-8"},
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        "error: GridParseError: g.grid:1: name is not encodable by the file "
        "system encoding 'ascii', got 'café'\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.skipif(shutil.which("mvcusum") is None,
                    reason="console script not on PATH")
def test_console_script_help():
    result = subprocess.run(["mvcusum", "--help"], capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0
    assert "simulate" in result.stdout
