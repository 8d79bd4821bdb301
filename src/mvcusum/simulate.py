"""Synthetic data generator: linear processes over m-dependent innovations.

Builds d-dimensional series of the form

    X_t = sum_{k=0..K_max} C_k xi_{t-k},          t = 1..T,

where the filter weights decay geometrically, ``C_k = rho**k * base``, the
depth K_max is the smallest with ``sum_{k > K_max} rho**k < tol``, and the
innovations ``xi_t`` are Gaussian moving averages of window length m+1:

    xi_t = (m+1)**(-1/2) * (Z_t + Z_{t-1} + ... + Z_{t-m}),
    Z_t ~ iid N(0, innovation_cov).

The window normalization keeps ``Cov(xi_t) = innovation_cov`` for every m,
and innovations more than m apart are independent by construction. An
optional mean shift ``delta`` is added to all observations strictly after
time ``t_star = floor(k_star * T)``.

``SimulationSpec`` holds the whole recipe (d, T, m, rho, base, tol, the
innovation covariance, the shift and the seed) and resolves its defaults
once. Everything is deterministic given a spec: one seed drives two child
streams (forward for t = 1..T, presample for t = 0, -1, -2, ...), so the
realized path for a fixed seed does not depend on how much presample a
particular (m, K_max) combination needs, beyond the rows it actually adds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (_MAX_VALUES, DimensionMismatch, DomainError, _bounds,
                     _check_seed)
from .series import MultivariateSeries, _frozen

__all__ = [
    "SimulationSpec",
    "exchangeable_cov",
    "gen_innovations",
    "gen_series",
]

# Most presample rows drawn: K_max + m of them cost time and memory in
# proportion, whatever T is (rho = 0.99999 at the default tol needs
# 3,914,375 rows for any series length).
_MAX_DEPTH = 1_000_000

_check_d = _bounds("d", 1)


def exchangeable_cov(d, off):
    """Covariance with unit diagonal and constant off-diagonal ``off``.

    Positive definite iff ``-1/(d-1) < off < 1`` (any off for d = 1), and
    that range is enforced here.
    """
    _check_d(d)
    lo = -1.0 / (d - 1) if d > 1 else -math.inf
    if not (lo < off < 1.0) and d > 1:
        raise DomainError(
            f"off-diagonal must lie in ({lo:.4g}, 1) for d={d}, got {off}"
        )
    out = np.full((d, d), float(off))
    np.fill_diagonal(out, 1.0)
    return out


def _checked_array(name, value, shape, default):
    """A write-protected float64 copy of ``value`` (of ``default()`` when
    None), checked to have ``shape`` and finite entries."""
    arr = np.array(default() if value is None else value, dtype=np.float64)
    if arr.shape != shape:
        raise DimensionMismatch(f"{name} must be {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    return _frozen(arr)


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
    rho : float
        Filter decay rate, ``0 <= rho < 1``: ``C_k = rho**k * base``.
        ``rho = 0`` gives the identity filter (K_max = 0): the series is
        the innovations.
    base : ndarray (d, d), optional
        Leading weight matrix C_0. Defaults to ``(1 - rho) * eye(d)``, which
        normalizes the filter to unit DC gain so the long-run level of the
        output matches the innovation scale for every rho. It is resolved
        at construction, so a `dataclasses.replace` of ``rho`` alone keeps
        the resolved base.
    tol : float
        Relative tail mass to drop: the truncation depth ``K_max`` (set at
        construction, not settable) is the smallest K >= 0 with
        ``sum_{k > K} rho**k < tol``.
    innovation_cov : ndarray (d, d), optional
        Covariance of the underlying Gaussian stream (and so of each
        innovation), positive definite; defaults to the identity.
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
    rho: float = 0.5
    base: Optional[np.ndarray] = None
    tol: float = 1e-12
    innovation_cov: Optional[np.ndarray] = None
    delta: Optional[np.ndarray] = None
    k_star: Optional[float] = None
    seed: int = 0
    K_max: int = field(init=False)

    def __post_init__(self):
        d, rho, tol = self.d, self.rho, self.tol
        _check_d(d)
        _bounds("T", 2)(self.T)
        _bounds("m", 0)(self.m)
        _check_seed(self.seed)
        if not 0.0 <= rho < 1.0:
            raise DomainError(f"decay rate must be in [0, 1), got {rho}")
        if not tol > 0.0:
            raise DomainError(f"tail tolerance must be positive, got {tol}")
        object.__setattr__(self, "base", _checked_array(
            "base", self.base, (d, d), lambda: (1.0 - rho) * np.eye(d)))
        # the tail after depth K is rho**(K + 1) / (1 - rho): from the closed
        # form, step with that predicate to the smallest depth it passes
        k_max = 0
        if rho > 0.0 and tol * (1.0 - rho) < 1.0:
            logs = (math.log(tol) + math.log1p(-rho)) / math.log(rho)
            k_max = max(0, math.ceil(logs) - 1)
        while k_max > 0 and rho ** k_max / (1.0 - rho) < tol:
            k_max -= 1
        while rho ** (k_max + 1) / (1.0 - rho) >= tol:
            k_max += 1
        object.__setattr__(self, "rho", float(rho))
        object.__setattr__(self, "K_max", k_max)
        if self.T * d > _MAX_VALUES:
            raise DomainError(f"T={self.T} times d={d} exceeds {_MAX_VALUES} "
                              f"values in one series; lower T or d")
        cov = _checked_array("innovation_cov", self.innovation_cov, (d, d),
                             lambda: np.eye(d))
        if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-10):
            raise DomainError("innovation_cov must be symmetric")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise DomainError("innovation_cov must be positive definite") from None
        object.__setattr__(self, "innovation_cov", cov)
        object.__setattr__(self, "delta", _checked_array(
            "delta", self.delta, (d,), lambda: np.zeros(d)))
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
    factor of ``innovation_cov``. A depth K_max above 1,000,000, or a
    presample of K_max + m rows above that, raises DomainError.
    """
    k_max, m = spec.K_max, spec.m
    if k_max > _MAX_DEPTH:
        raise DomainError(
            f"filter depth K_max={k_max} at rho={spec.rho} and tol={spec.tol} "
            f"exceeds {_MAX_DEPTH} presample rows; lower rho or raise tol"
        )
    if k_max + m > _MAX_DEPTH:
        raise DomainError(
            f"filter depth K_max={k_max} plus dependence range m={m} exceeds "
            f"{_MAX_DEPTH} presample rows; lower m"
        )
    n_pre = k_max + m  # deepest Z needed: xi at t = 1 - K_max reaches back m more
    forward, presample = np.random.SeedSequence(spec.seed).spawn(2)
    z_fwd = np.random.default_rng(forward).standard_normal((spec.T, spec.d))
    z_pre = np.random.default_rng(presample).standard_normal((n_pre, spec.d))
    chol = np.linalg.cholesky(spec.innovation_cov)
    z = np.vstack([z_pre[::-1], z_fwd]) @ chol.T
    if spec.d == 1:  # numpy sums a contiguous window pairwise, not in order
        return sliding_window_view(z, m + 1, axis=0).sum(axis=-1) / math.sqrt(m + 1)
    xi = z[: len(z) - m].copy()  # for d >= 2 the window adds in order, as here
    for i in range(1, m + 1):
        xi += z[i : i + len(xi)]
    xi /= math.sqrt(m + 1)
    return xi


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
    taps = spec.rho ** np.arange(spec.K_max + 1)
    filtered = np.column_stack([np.convolve(taps, col, "valid") for col in xi.T])
    x = filtered @ spec.base.T
    t_star = None
    if spec.k_star is not None:
        t_star = math.floor(spec.k_star * spec.T)
        x[t_star:] += spec.delta
    return MultivariateSeries(x, _fresh=True), t_star
