"""Benchmark inputs, made from the workload seed with plain numpy.

The series is a stationary MA(10) of standard Gaussians, scaled to unit
variance, with a +0.15 mean shift from row 0.3T and a -0.3 shift from row
0.7T (so the mean steps 0 -> 0.15 -> -0.15).  It is written here, with
``%.17g`` and ``\\n`` line endings, and never through the program's own
simulator or CSV writer: a change to those cannot move what ``detect`` reads.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

MA_ORDER = 10
BREAKS = ((0.3, 0.15), (0.7, -0.3))  # (fraction of T, mean shift from there on)
_CHUNK_ROWS = 50_000


def make_series(T: int, d: int, seed: int) -> tuple[np.ndarray, list[int]]:
    """Return the T x d series and its planted break rows.

    A break row b is the number of rows before the shift, which is what the
    program reports as ``t_hat``.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, T, d]))
    z = rng.standard_normal((T + MA_ORDER, d))
    x = np.zeros((T, d))
    for lag in range(MA_ORDER + 1):
        x += z[MA_ORDER - lag : MA_ORDER - lag + T]
    x /= np.sqrt(MA_ORDER + 1)
    rows = []
    for frac, shift in BREAKS:
        b = int(frac * T)
        x[b:] += shift
        rows.append(b)
    return x, rows


def write_series_csv(path, x: np.ndarray) -> str:
    """Write ``x`` as CSV with header x0..x{d-1}; return the file's sha256.

    The file is flushed to disk before returning, so writeback of a fresh
    100 MB input does not run during a timed pass.
    """
    T, d = x.shape
    row_fmt = ",".join(["%.17g"] * d) + "\n"
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for start in range(0, T, _CHUNK_ROWS):
            chunk = x[start : start + _CHUNK_ROWS]
            text = ",".join(f"x{j}" for j in range(d)) + "\n" if start == 0 else ""
            text += (row_fmt * len(chunk)) % tuple(chunk.ravel().tolist())
            data = text.encode("ascii")
            digest.update(data)
            fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    return digest.hexdigest()


def sizes(T: int, d: int, llc_bytes: int | None) -> dict:
    """Computed array sizes of a T x d series (float64) and of its N x d x d
    complex128 periodogram cube, in MB (1e6 bytes) and as multiples of the
    last-level cache."""
    series = T * d * 8
    cube = T * d * d * 16
    out = {"T": T, "d": d, "series_mb": series / 1e6, "periodogram_cube_mb": cube / 1e6}
    if llc_bytes:
        out["series_per_llc"] = series / llc_bytes
        out["cube_per_llc"] = cube / llc_bytes
    return out


def make_input(path, T: int, d: int, seed: int, llc_bytes: int | None) -> dict:
    """Generate and write one input; return its record (sha256, bytes,
    planted break rows, computed sizes)."""
    x, breaks = make_series(T, d, seed)
    sha = write_series_csv(path, x)
    record = {"file": os.path.basename(path), "sha256": sha,
              "bytes": os.path.getsize(path), "break_rows": breaks}
    record.update(sizes(T, d, llc_bytes))
    return record
