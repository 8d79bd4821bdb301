"""Frequency-domain estimation: periodogram ordinates, smoothed spectrum,
long-run covariance.

The long-run covariance of a stationary multivariate series equals 2*pi times
its spectral density at frequency zero, so the estimation chain here is:
one real FFT of the mean-corrected series per `dft` call -> the 2h+1
matrix-periodogram ordinates around each requested frequency (and no
others) -> their flat average, the smoothed spectrum -> long-run covariance,
read from the first window of the grid, at frequency zero, so no window is
evaluated twice (with an eigenvalue floor so the inverse stays usable on
near-degenerate input).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BandwidthTooLarge,
    DegenerateSpectrum,
    DomainError,
    TooShort,
    _check_bandwidth,
)
from .series import MultivariateSeries, _frozen, _write_table

__all__ = [
    "Periodogram",
    "LongRunCovariance",
    "dft",
    "default_bandwidth",
    "smoothed_spectrum",
    "long_run_covariance",
    "export_spectrum_csv",
]

_TWO_PI = 2.0 * math.pi
# periodogram matrix entries formed per `dft` call by `smoothed_spectrum`
_ORDINATE_BUDGET = 1 << 20


@dataclass(frozen=True)
class Periodogram:
    """Matrix periodogram ordinates at integer frequencies omega_j = 2*pi*j/N.

    ``ordinates[a]`` is the d x d matrix at js[a]; ``js`` holds the indices
    as requested, and the grid is N-periodic in j.  The rank-one
    construction W W* makes every ordinate exactly Hermitian, with
    I(-omega_j) = conj(I(omega_j)) bit for bit.
    """

    js: np.ndarray
    ordinates: np.ndarray

    def __post_init__(self):
        _frozen(self.js)
        _frozen(self.ordinates)


@dataclass(frozen=True)
class LongRunCovariance:
    """Long-run covariance estimate with its (possibly ridged) inverse.

    ``sigma`` is the raw symmetrized estimate; ``sigma_inv`` inverts
    ``sigma + ridge_applied * I``.  ridge_applied is zero whenever the raw
    estimate is already comfortably positive definite.
    """

    sigma: np.ndarray
    sigma_inv: np.ndarray
    ridge_applied: float
    h_used: int
    N: int

    def __post_init__(self):
        _frozen(self.sigma)
        _frozen(self.sigma_inv)


def dft(series: MultivariateSeries, js) -> Periodogram:
    """Matrix periodogram of a series at the integer frequencies js.

    Subtracts the column means, takes one real FFT per coordinate and forms
    only the requested ordinates, wrapping each index modulo N.  Row n of
    the transform is conj(rfft[n]) for n <= N/2 and rfft[N-n] above, so the
    symmetry I(-omega) = conj(I(omega)) holds bitwise rather than to
    rounding.
    """
    X = series.values
    N, d = X.shape
    if N < 2:
        raise TooShort(f"need at least 2 observations, got {N}")
    js = np.asarray(js).reshape(-1)
    # refused before the cast, which truncates 2.7 to 2 and (1+0j) to 1
    bad = js[(js != np.round(js)) | ~(abs(js) < 2.0**63) | np.iscomplexobj(js)]
    if len(bad):
        raise DomainError(f"frequency index must be an int64 integer, got {bad[0]}")
    js = js.astype(np.int64)
    mean = X.mean(axis=0)
    n = np.mod(js, N)
    low = n <= N // 2
    at = np.where(low, n, N - n)
    rows = np.empty((len(js), d), np.complex128)
    column = np.empty(N)  # one centered column at a time, not a centered copy
    for j in range(d):
        np.subtract(X[:, j], mean[j], out=column)
        rows[:, j] = np.fft.rfft(column)[at]
    rows[low] = np.conj(rows[low])
    ordinates = np.einsum("kp,kq->kpq", rows, np.conj(rows)) / N
    return Periodogram(js=js, ordinates=ordinates)


def _int_fourth_root(n: int) -> int:
    """floor(n^(1/4)), at least 1, in exact integer arithmetic (no float
    rounding near perfect fourth powers): isqrt(isqrt(n)) is exact."""
    return max(1, math.isqrt(math.isqrt(n)))


def default_bandwidth(T: int) -> int:
    """Integer fourth root of the series length."""
    if T < 16:
        raise TooShort(f"need at least 16 observations for a bandwidth, got {T}")
    return _int_fourth_root(T)


def smoothed_spectrum(series: MultivariateSeries, h: int, omegas) -> np.ndarray:
    """Smoothed spectral density at each frequency in omegas, shape (n, d, d).

    Each omega reads the window of 2h+1 periodogram ordinates (of the
    centered series, see `dft`) around the grid frequency nearest |omega|,
    indices wrapping modulo the grid (the 2*pi-periodic extension with
    conjugate symmetry).  The windows go to `dft` in chunks of at most
    ``_ORDINATE_BUDGET`` matrix entries (one window if that is larger), so
    memory stays bounded however many frequencies are asked for; one
    product averages the windows of a chunk with weight 1/(2h+1).  The rows
    where omega < 0 are conjugated.
    """
    N, d = series.values.shape
    _check_bandwidth(h)
    h = int(h)
    if 2 * h + 1 > N:
        raise BandwidthTooLarge(
            f"smoothing window 2h+1 = {2 * h + 1} exceeds series length {N}"
        )
    omegas = np.array(omegas, dtype=np.float64).reshape(-1)
    outside = ~((-math.pi <= omegas) & (omegas <= math.pi))
    if outside.any():
        raise DomainError(f"frequency {omegas[outside][0]} outside [-pi, pi]")
    k0 = np.floor(np.abs(omegas) * N / _TWO_PI + 0.5).astype(np.int64)
    window = np.arange(-h, h + 1)
    weights = np.full(2 * h + 1, 1.0 / (2 * h + 1))
    f = np.empty((len(omegas), d, d), np.complex128)
    step = max(1, _ORDINATE_BUDGET // ((2 * h + 1) * d * d))
    for lo in range(0, len(omegas), step):
        pgram = dft(series, k0[lo : lo + step, None] + window)
        ordinates = pgram.ordinates.reshape(-1, 2 * h + 1, d * d)
        f[lo : lo + step] = (weights @ ordinates / _TWO_PI).reshape(-1, d, d)
    f[omegas < 0] = np.conj(f[omegas < 0])
    return f


def long_run_covariance(
    series: MultivariateSeries, h: int | None = None
) -> LongRunCovariance:
    """Long-run covariance 2*pi * Re f_hat(0) of a series, with a safe inverse.

    The symmetrized estimate keeps its raw value in ``sigma``; if its
    smallest eigenvalue falls at or below the floor eps0 = 1e-8 * trace/d,
    the inverse is taken of sigma plus a ridge just large enough to restore
    the floor, and the ridge size is reported.  A non-finite estimate, or an
    inverse that is singular or not finite, raises DegenerateSpectrum.
    """
    return _spectrum_and_covariance(series, h, 1)[2]


def _spectrum_and_covariance(series, h, freqs):
    """The grid omegas = linspace(0, pi, freqs), the smoothed spectrum on it
    and the long-run covariance, from one periodogram: Sigma_hat is read
    from the grid's first window, at frequency 0."""
    T, d = series.values.shape
    if T < 16:
        raise TooShort(f"need at least 16 observations, got {T}")
    h_used = default_bandwidth(T) if h is None else h
    omegas = np.linspace(0.0, math.pi, freqs)
    # an overflowing periodogram is reported by the finiteness check below
    with np.errstate(all="ignore"):
        f = smoothed_spectrum(series, h_used, omegas)
        sigma = _TWO_PI * f[0].real
        sigma = (sigma + sigma.T) / 2.0
    if not np.all(np.isfinite(sigma)):
        raise DegenerateSpectrum(
            "long-run covariance is not finite; input values are too large"
        )
    trace = float(np.trace(sigma))
    if trace <= 0.0:
        raise DegenerateSpectrum(
            "long-run covariance has nonpositive trace; input looks constant"
        )
    eps0 = 1e-8 * trace / d
    lam_min = float(np.linalg.eigvalsh(sigma).min())
    ridge = eps0 - lam_min if lam_min <= eps0 else 0.0
    try:
        inv = np.linalg.inv(sigma + ridge * np.eye(d))
    except np.linalg.LinAlgError:  # singular in floating point
        inv = np.full((d, d), np.inf)
    if not np.all(np.isfinite(inv)):
        raise DegenerateSpectrum(
            "long-run covariance has no finite inverse; input values are too small"
        )
    inv = (inv + inv.T) / 2.0
    return omegas, f, LongRunCovariance(
        sigma=sigma, sigma_inv=inv, ridge_applied=ridge, h_used=int(h_used), N=T
    )


def export_spectrum_csv(path, omegas, matrices) -> None:
    """Write smoothed-spectrum matrices to CSV: one row per frequency, with
    the d*d entries flattened row-major as interleaved real/imaginary
    columns."""
    f = np.ascontiguousarray(matrices, dtype=np.complex128)
    if len(f) == 0:
        raise DomainError("nothing to export: no frequencies given")
    n, d = f.shape[:2]
    header = ["omega"]
    for p in range(d):
        for q in range(d):
            header += [f"re_{p}_{q}", f"im_{p}_{q}"]
    reim = f.view(np.float64).reshape(n, -1)  # the re/im pairs f holds
    _write_table(path, header, [[np.asarray(omegas, np.float64), reim]])
