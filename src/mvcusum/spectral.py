"""Frequency-domain estimation: periodogram, kernel smoothing, long-run
covariance.

The long-run covariance of a stationary multivariate series equals 2*pi times
its spectral density at frequency zero, so the estimation chain here is:
discrete Fourier transform -> matrix periodogram -> kernel-smoothed spectrum
-> long-run covariance (with an eigenvalue floor so the inverse stays usable
on near-degenerate input).
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
)
from .series import CenteredSeries, MultivariateSeries, _frozen, center

__all__ = [
    "Periodogram",
    "KernelWeights",
    "SpectralEstimate",
    "LongRunCovariance",
    "dft",
    "nearest_fourier",
    "sma_kernel",
    "default_bandwidth",
    "smoothed_spectrum",
    "spectral_estimate",
    "long_run_covariance",
    "export_spectrum_csv",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Periodogram:
    """Matrix periodogram on the Fourier grid omega_j = 2*pi*j/N.

    ``js`` holds the ascending integer grid -[(N-1)/2] .. [N/2] and
    ``ordinates[a]`` is the d x d matrix at js[a].  The grid is 2*pi-periodic,
    and the rank-one construction W W* makes every ordinate exactly Hermitian
    with conjugate symmetry across j <-> -j.
    """

    js: np.ndarray
    ordinates: np.ndarray
    N: int

    def __post_init__(self):
        _frozen(self.js)
        _frozen(self.ordinates)

    @property
    def d(self) -> int:
        return self.ordinates.shape[1]

    def at_index(self, j: int) -> np.ndarray:
        """Ordinate at integer index j, wrapped onto the stored grid."""
        pos = (int(j) - int(self.js[0])) % self.N
        return self.ordinates[pos]


@dataclass(frozen=True)
class KernelWeights:
    """Symmetric nonnegative smoothing weights for lags |k| <= h, summing
    to one."""

    h: int
    weights: np.ndarray

    def __post_init__(self):
        _frozen(self.weights)


@dataclass(frozen=True)
class SpectralEstimate:
    """Callable smoothed-spectrum estimate bound to one periodogram and one
    kernel."""

    pgram: Periodogram
    kernel: KernelWeights

    @property
    def h_used(self) -> int:
        return self.kernel.h

    @property
    def N(self) -> int:
        return self.pgram.N

    def at(self, omega: float) -> np.ndarray:
        return smoothed_spectrum(self.pgram, self.kernel, omega)


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


def dft(series: CenteredSeries) -> Periodogram:
    """Matrix periodogram of a centered series via FFT.

    Uses one real FFT per coordinate and mirrors the redundant half with an
    explicit conjugate copy, so the symmetry I(-omega) = conj(I(omega)) holds
    bitwise rather than to rounding.
    """
    X = series.values
    N, d = X.shape
    if N < 2:
        raise TooShort(f"need at least 2 observations, got {N}")
    half = N // 2
    G = np.conj(np.fft.rfft(X, axis=0))
    full = np.empty((N, d), dtype=complex)
    full[: half + 1] = G
    full[half + 1 :] = np.conj(G[1 : N - half][::-1])
    mats = np.einsum("kp,kq->kpq", full, np.conj(full)) / N
    js = np.arange(-((N - 1) // 2), half + 1)
    ordinates = mats[np.mod(js, N)]
    return Periodogram(js=js, ordinates=ordinates, N=N)


def nearest_fourier(N: int, omega: float) -> float:
    """Closest Fourier-grid frequency 2*pi*k/N to omega, ties resolved to
    the larger k."""
    if not 0.0 <= omega <= math.pi:
        raise DomainError(f"frequency {omega} outside [0, pi]")
    k = math.floor(omega * N / _TWO_PI + 0.5)
    return _TWO_PI * k / N


def sma_kernel(h: int) -> KernelWeights:
    """Flat moving-average weights: 2h+1 points of mass 1/(2h+1)."""
    if int(h) != h or h < 1:
        raise DomainError(f"bandwidth must be a positive integer, got {h}")
    h = int(h)
    return KernelWeights(h=h, weights=np.full(2 * h + 1, 1.0 / (2 * h + 1)))


def _int_fourth_root(n: int) -> int:
    """floor(n^(1/4)), at least 1, in exact integer arithmetic (no float
    rounding near perfect fourth powers)."""
    r = 1
    while (r + 1) ** 4 <= n:
        r += 1
    return r


def default_bandwidth(T: int) -> int:
    """Integer fourth root of the series length."""
    if T < 16:
        raise TooShort(f"need at least 16 observations for a bandwidth, got {T}")
    return _int_fourth_root(T)


def _window_mean(pgram: Periodogram, kernel: KernelWeights, k0: int) -> np.ndarray:
    h = kernel.h
    pos = (k0 + np.arange(-h, h + 1) - int(pgram.js[0])) % pgram.N
    return np.tensordot(kernel.weights, pgram.ordinates[pos], axes=1) / _TWO_PI


def smoothed_spectrum(
    pgram: Periodogram, kernel: KernelWeights, omega: float
) -> np.ndarray:
    """Kernel-smoothed spectral density at one frequency.

    Averages the 2h+1 periodogram ordinates centered on the grid frequency
    nearest |omega|, wrapping indices modulo the grid (the 2*pi-periodic
    extension with conjugate symmetry), then conjugates when omega < 0.
    """
    N = pgram.N
    if 2 * kernel.h + 1 > N:
        raise BandwidthTooLarge(
            f"smoothing window 2h+1 = {2 * kernel.h + 1} exceeds series length {N}"
        )
    if not -math.pi <= omega <= math.pi:
        raise DomainError(f"frequency {omega} outside [-pi, pi]")
    a = abs(omega)
    k0 = math.floor(a * N / _TWO_PI + 0.5)
    f = _window_mean(pgram, kernel, k0)
    return np.conj(f) if omega < 0 else f


def spectral_estimate(pgram: Periodogram, kernel: KernelWeights) -> SpectralEstimate:
    """Bind a periodogram and kernel into a reusable frequency -> matrix map."""
    if 2 * kernel.h + 1 > pgram.N:
        raise BandwidthTooLarge(
            f"smoothing window 2h+1 = {2 * kernel.h + 1} exceeds series length {pgram.N}"
        )
    return SpectralEstimate(pgram=pgram, kernel=kernel)


def long_run_covariance(
    series: MultivariateSeries | CenteredSeries, h: int | None = None
) -> LongRunCovariance:
    """Long-run covariance 2*pi * Re f_hat(0) of a series, with a safe inverse.

    The series is centered first.  The symmetrized estimate keeps its raw
    value in ``sigma``; if its smallest eigenvalue falls at or below the
    floor eps0 = 1e-8 * trace/d, the inverse is taken of sigma plus a ridge
    just large enough to restore the floor, and the ridge size is reported.
    """
    centered = series if isinstance(series, CenteredSeries) else center(series)
    T, d = centered.values.shape
    if T < 16:
        raise TooShort(f"need at least 16 observations, got {T}")
    h_used = default_bandwidth(T) if h is None else h
    kernel = sma_kernel(h_used)
    if 2 * kernel.h + 1 > T:
        raise BandwidthTooLarge(
            f"smoothing window 2h+1 = {2 * kernel.h + 1} exceeds series length {T}"
        )
    f0 = smoothed_spectrum(dft(centered), kernel, 0.0)
    sigma = _TWO_PI * f0.real
    sigma = (sigma + sigma.T) / 2.0
    trace = float(np.trace(sigma))
    if trace <= 0.0:
        raise DegenerateSpectrum(
            "long-run covariance has nonpositive trace; input looks constant"
        )
    eps0 = 1e-8 * trace / d
    lam_min = float(np.linalg.eigvalsh(sigma).min())
    ridge = eps0 - lam_min if lam_min <= eps0 else 0.0
    inv = np.linalg.inv(sigma + ridge * np.eye(d))
    inv = (inv + inv.T) / 2.0
    return LongRunCovariance(
        sigma=sigma, sigma_inv=inv, ridge_applied=ridge, h_used=kernel.h, N=T
    )


def export_spectrum_csv(path, omegas, matrices) -> None:
    """Write smoothed-spectrum matrices to CSV: one row per frequency, with
    the d*d entries flattened row-major as interleaved real/imaginary
    columns."""
    import csv

    mats = [np.asarray(m) for m in matrices]
    if not mats:
        raise DomainError("nothing to export: no frequencies given")
    d = mats[0].shape[0]
    header = ["omega"]
    for p in range(d):
        for q in range(d):
            header += [f"re_{p}_{q}", f"im_{p}_{q}"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for om, m in zip(omegas, mats):
            row = [format(float(om), ".17g")]
            for p in range(d):
                for q in range(d):
                    row.append(format(float(m[p, q].real), ".17g"))
                    row.append(format(float(m[p, q].imag), ".17g"))
            w.writerow(row)
