"""Synthetic data generator: linear processes over m-dependent innovations.

Builds d-dimensional series of the form

    X_t = sum_{k=0..K_max} C_k xi_{t-k},          t = 1..T,

where the filter weights decay geometrically, ``C_k = rho**k * base``, and
the innovations ``xi_t`` are Gaussian moving averages of window length m+1:

    xi_t = (m+1)**(-1/2) * (Z_t + Z_{t-1} + ... + Z_{t-m}),
    Z_t ~ iid N(0, innovation_cov).

The window normalization keeps ``Cov(xi_t) = innovation_cov`` for every m,
and innovations more than m apart are independent by construction. An
optional mean shift ``delta`` is added to all observations strictly after
time ``t_star = floor(k_star * T)``.

Everything is deterministic given a ``SimulationSpec``: one seed drives two child
streams (forward for t = 1..T, presample for t = 0, -1, -2, ...), so the
realized path for a fixed seed does not depend on how much presample a
particular (m, K_max) combination needs, beyond the rows it actually adds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionMismatch, DomainError
from .series import MultivariateSeries, _frozen

__all__ = [
    "CoefficientScheme",
    "SimulationSpec",
    "exchangeable_cov",
    "gen_innovations",
    "gen_series",
    "geometric_coefficients",
]


@dataclass(frozen=True)
class CoefficientScheme:
    """Causal filter weights ``C_k = rho**k * base`` for k = 0..K_max.

    ``K_max`` is the truncation depth: weights beyond it are dropped. Use
    `geometric_coefficients` to pick K_max from a tail tolerance; direct
    construction is the escape hatch for custom depths.
    """

    rho: float
    base: np.ndarray
    K_max: int

    def __post_init__(self):
        object.__setattr__(self, "base", _frozen(np.array(self.base, np.float64)))


def geometric_coefficients(d, rho=0.5, base=None, tol=1e-12):
    """Geometrically decaying filter with an automatic truncation depth.

    Parameters
    ----------
    d : int
        Series dimension.
    rho : float
        Decay rate, ``0 <= rho < 1``. ``rho = 0`` degenerates to the
        identity filter (K_max = 0): the series is the innovations.
    base : ndarray (d, d), optional
        Leading weight matrix C_0. Default is ``(1 - rho) * eye(d)``, which
        normalizes the filter to unit DC gain so the long-run level of the
        output matches the innovation scale for every rho.
    tol : float
        Relative tail mass to drop: K_max is the smallest depth with
        ``sum_{k > K_max} rho**k < tol``.

    Returns
    -------
    CoefficientScheme

    Raises
    ------
    DomainError
        rho outside [0, 1), tol <= 0, or d < 1.
    DimensionMismatch
        base is not (d, d).
    """
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    if not 0.0 <= rho < 1.0:
        raise DomainError(f"decay rate must be in [0, 1), got {rho}")
    if not tol > 0.0:
        raise DomainError(f"tail tolerance must be positive, got {tol}")
    if base is None:
        base = (1.0 - rho) * np.eye(d)
    base = np.asarray(base, dtype=np.float64)
    if base.shape != (d, d):
        raise DimensionMismatch(f"base must be ({d}, {d}), got {base.shape}")
    if rho == 0.0:
        k_max = 0
    else:
        k_max = math.ceil(math.log(tol) / math.log(rho))
        # guard against roundoff in the closed form
        while rho ** (k_max + 1) / (1.0 - rho) >= tol:
            k_max += 1
    return CoefficientScheme(float(rho), base, k_max)


def exchangeable_cov(d, off):
    """Covariance with unit diagonal and constant off-diagonal ``off``.

    Positive definite iff ``-1/(d-1) < off < 1`` (any off for d = 1), and
    that range is enforced here.
    """
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    lo = -1.0 / (d - 1) if d > 1 else -math.inf
    if not (lo < off < 1.0) and d > 1:
        raise DomainError(
            f"off-diagonal must lie in ({lo:.4g}, 1) for d={d}, got {off}"
        )
    out = np.full((d, d), float(off))
    np.fill_diagonal(out, 1.0)
    return out


@dataclass(frozen=True)
class SimulationSpec:
    """Complete, validated recipe for one synthetic series.

    Parameters
    ----------
    d, T : int
        Dimension and length of the output series.
    m : int
        Innovation dependence range: innovations at lags > m are
        independent. ``m = 0`` gives iid Gaussian innovations.
    coeff : CoefficientScheme, optional
        Filter weights; defaults to `geometric_coefficients(d)`.
    innovation_cov : ndarray (d, d), optional
        Covariance of the underlying Gaussian stream (and hence of each
        innovation). Must be symmetric; defaults to the identity.
    delta : ndarray (d,), optional
        Mean shift added strictly after ``t_star``. Defaults to zero.
    k_star : float, optional
        Break fraction in (0, 1); ``t_star = floor(k_star * T)``. None
        means no shift is applied (delta is ignored).
    seed : int
        Seeds the generator; equal specs produce identical output bitwise.
    """

    d: int
    T: int
    m: int
    coeff: Optional[CoefficientScheme] = None
    innovation_cov: Optional[np.ndarray] = None
    delta: Optional[np.ndarray] = None
    k_star: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise DomainError(f"d must be >= 1, got {self.d}")
        if self.T < 2:
            raise DomainError(f"T must be >= 2, got {self.T}")
        if self.m < 0:
            raise DomainError(f"dependence range m must be >= 0, got {self.m}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if self.coeff is None:
            object.__setattr__(self, "coeff", geometric_coefficients(self.d))
        if self.coeff.base.shape != (self.d, self.d):
            raise DimensionMismatch(
                f"coefficient base is {self.coeff.base.shape}, spec has d={self.d}"
            )
        cov = self.innovation_cov
        cov = np.eye(self.d) if cov is None else np.asarray(cov, dtype=np.float64)
        if cov.shape != (self.d, self.d):
            raise DimensionMismatch(
                f"innovation_cov must be ({self.d}, {self.d}), got {cov.shape}"
            )
        if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-10):
            raise DomainError("innovation_cov must be symmetric")
        object.__setattr__(self, "innovation_cov", _frozen(np.array(cov, np.float64)))
        delta = self.delta
        delta = np.zeros(self.d) if delta is None else np.asarray(delta, np.float64)
        if delta.shape != (self.d,):
            raise DimensionMismatch(
                f"delta must have shape ({self.d},), got {delta.shape}"
            )
        object.__setattr__(self, "delta", _frozen(np.array(delta, np.float64)))
        if self.k_star is not None and not 0.0 < self.k_star < 1.0:
            raise DomainError(
                f"break fraction must be in (0, 1), got {self.k_star}"
            )


def gen_innovations(spec: SimulationSpec) -> np.ndarray:
    """Draw the windowed innovations ``xi_t`` for t = 1 - K_max .. T.

    Returns the (T + K_max, d) array the filter consumes: K_max presample
    rows (so the filtered series is stationary from its first observation)
    followed by the T in-sample rows.

    The underlying Gaussian stream is split into a forward child (t = 1..T)
    and a presample child (t = 0, -1, -2, ...), both colored by the Cholesky
    factor of ``innovation_cov``; `numpy.linalg.LinAlgError` therefore
    surfaces if the covariance is not positive definite.
    """
    k_max, m = spec.coeff.K_max, spec.m
    n_pre = k_max + m  # deepest Z needed: xi at t = 1 - K_max reaches back m more
    forward, presample = np.random.SeedSequence(spec.seed).spawn(2)
    z_fwd = np.random.default_rng(forward).standard_normal((spec.T, spec.d))
    z_pre = np.random.default_rng(presample).standard_normal((n_pre, spec.d))
    chol = np.linalg.cholesky(spec.innovation_cov)
    z = np.vstack([z_pre[::-1], z_fwd]) @ chol.T
    windows = sliding_window_view(z, m + 1, axis=0)
    return windows.sum(axis=-1) / math.sqrt(m + 1)


def gen_series(spec: SimulationSpec) -> Tuple[MultivariateSeries, Optional[int]]:
    """Generate one series from a spec.

    Returns
    -------
    (series, t_star)
        ``series`` is the T x d output; ``t_star`` is the last pre-shift
        time (``floor(k_star * T)``), or None when no shift is configured.

    Notes
    -----
    Row i of the output is time t = i + 1, so the shift affects rows
    ``t_star`` onward: times ``t > t_star`` exactly.
    """
    xi = gen_innovations(spec)
    k_max = spec.coeff.K_max
    taps = spec.coeff.rho ** np.arange(k_max + 1)
    # lfilter(taps, [1.0], xi, axis=0) runs exactly this for an FIR filter
    full = np.column_stack([np.convolve(taps, col) for col in xi.T])
    filtered = full[k_max : len(xi)]
    x = filtered @ spec.coeff.base.T
    t_star = None
    if spec.k_star is not None:
        t_star = math.floor(spec.k_star * spec.T)
        x[t_star:] += spec.delta
    return MultivariateSeries(x, _fresh=True), t_star
