"""CUSUM curve, studentized test statistic, change-point estimators, and the
local-extrema scan for multiple changes.

One path leads from a series to its studentized curve: `studentize` forms
the long-run covariance, then the `cusum` curve and its `quadform`.  The
test, the scan and the quadratic-form estimate all read the curve it
returns, so they read the curve the test decided on.

The running statistic is evaluated on the grid t = k/N, k = 0..N, where the
integer prefix structure makes the endpoint values exactly zero and constant
inputs cancel exactly.  The test compares the supremum of the studentized
quadratic form against the sup of a sum of squared Brownian bridges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .critical import CriticalValueTable
from .errors import (DimensionMismatch, DomainError, TooShort,
                     _check_prominence, _check_trim, _check_window)
from .series import MultivariateSeries, _frozen, _write_table
from .spectral import LongRunCovariance, _int_fourth_root, long_run_covariance

__all__ = [
    "ChangePointEstimate",
    "CusumCurve",
    "Extremum",
    "ExtremaScan",
    "TestResult",
    "cusum",
    "estimate_changepoint",
    "export_curve_csv",
    "quadform",
    "scan_extrema",
    "studentize",
    "test",
]

# curve rows per block, in `cusum` and in every reader: it bounds their temporaries
_CURVE_CHUNK = 1 << 16


@dataclass(frozen=True)
class CusumCurve:
    """Running-sum curve on the grid k/N, kept as what forms it: row k is
    (N*P_k - k*P_N) / (N*sqrt(N)), where P_k sums the first k rows of
    ``X - X[0]``.  `blocks` forms it block by block, all but the last block
    (``tail``, formed by `cusum`) anew; ``q`` (once filled) is its quadratic
    form under the inverse long-run covariance, the only full-length array."""

    X: np.ndarray
    P_N: np.ndarray
    tail: np.ndarray
    q: np.ndarray | None
    N: int

    def __post_init__(self):
        for a in (self.X, self.P_N, self.tail, self.q):
            if a is not None:
                _frozen(a)

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def blocks(self):
        """Yield ``(lo, rows lo..lo+len-1 of the curve)`` block by block."""
        lo_tail = self.N + 1 - len(self.tail)
        for lo, P in _partial_sums(self.X, lo_tail):
            yield lo, _scaled(P, lo, self.P_N, self.N)
        yield lo_tail, self.tail


@dataclass(frozen=True)
class TestResult:
    """Outcome of `test`.  ``sigma`` is the long-run covariance of the
    whole series and ``curve`` the curve studentized by it (q filled),
    whose maximum is the statistic; the estimate, the scan and the curve
    export read it instead of rebuilding it."""

    statistic: float
    critical_value: float
    alpha: float
    reject: bool
    d: int
    sigma: LongRunCovariance
    curve: CusumCurve


@dataclass(frozen=True)
class ChangePointEstimate:
    k_hat: float
    t_hat: int
    method: str
    curve_value: float


@dataclass(frozen=True)
class Extremum:
    index: int
    value: float
    kind: str  # "max" or "min"
    prominence: float


@dataclass(frozen=True)
class ExtremaScan:
    extrema: tuple[Extremum, ...]
    smoothing_window: int
    min_prominence: float


def _partial_sums(X: np.ndarray, stop: int):
    """Yield ``(lo, P[lo:lo + _CURVE_CHUNK])`` for lo < ``stop``, where row k
    of P sums the first k rows of ``X - X[0]``.  Each block's cumsum starts
    from the last row of the one before, added into its first row, so every
    sum is formed in the order of one cumsum over all of P."""
    carry = np.zeros(X.shape[1])
    for lo in range(0, stop, _CURVE_CHUNK):
        P = np.zeros((min(_CURVE_CHUNK, len(X) + 1 - lo), X.shape[1]))
        first = int(lo == 0)  # row 0 of P is zero
        with np.errstate(over="ignore", invalid="ignore"):  # as in _scaled
            np.subtract(X[lo + first - 1 : lo + len(P) - 1], X[0], out=P[first:])
            P[0] += carry
            np.cumsum(P, axis=0, out=P)
        carry = P[-1].copy()
        yield lo, P


def _scaled(P: np.ndarray, lo: int, P_N: np.ndarray, N: int) -> np.ndarray:
    """Curve rows lo.. from the partial sums ``P`` of those rows, in place.
    Values near the float limit overflow here without a warning: the
    non-finite curve is reported by the typed error of its reader."""
    with np.errstate(over="ignore", invalid="ignore"):
        P *= N
        P -= np.arange(lo, lo + len(P), dtype=float)[:, None] * P_N
        P /= N * math.sqrt(N)
    return P


def cusum(series: MultivariateSeries) -> CusumCurve:
    """Scaled partial-sum deviation curve on the grid t = k/N.

    The first observation is subtracted from every row before accumulating —
    mathematically a no-op for this curve, but it makes a constant series
    cancel to exact zeros for any constant, and the integer form
    (N*P_k - k*P_N) / (N*sqrt(N)) keeps both endpoints exactly zero.  One
    pass over the series finds P_N; only its last block is kept, as the
    curve's ``tail``.
    """
    X = series.values
    N = len(X)
    if N < 2:
        raise TooShort(f"need at least 2 observations, got {N}")
    for lo, P in _partial_sums(X, N + 1):
        pass
    P_N = P[-1].copy()  # k*P_N reads the row before the scaling by N
    return CusumCurve(X=X, P_N=P_N, tail=_scaled(P, lo, P_N, N), q=None, N=N)


def quadform(curve: CusumCurve, sigma: LongRunCovariance) -> CusumCurve:
    """Fill the quadratic-form values q[k] = s[k]' * sigma_inv * s[k].

    Evaluated through the Cholesky factor of the inverse (one without a
    factor raises DomainError) so every value is a sum of squares —
    nonnegative by construction, with exact zeros at the exactly-zero
    endpoint rows.  The factored rows are formed one curve block at a time.
    """
    if sigma.sigma.shape[0] != curve.d:
        raise DimensionMismatch(
            f"covariance is {sigma.sigma.shape[0]}-dimensional, curve is {curve.d}"
        )
    try:
        G = np.linalg.cholesky(sigma.sigma_inv)
    except np.linalg.LinAlgError:
        raise DomainError("sigma_inv must be positive definite") from None
    q = np.empty(curve.N + 1)
    for lo, s in curve.blocks():
        Y = s @ G
        q[lo : lo + len(Y)] = np.einsum("kd,kd->k", Y, Y)
        del Y  # free before the next block is formed
    return replace(curve, q=q)


def studentize(
    series: MultivariateSeries, h: int | None = None
) -> tuple[LongRunCovariance, CusumCurve]:
    """The long-run covariance of the whole series at bandwidth ``h`` and
    the ``cusum(series)`` curve studentized by it (q filled): the one path
    from a series to the curve that the test, the scan and the
    quadratic-form estimate read.

    Sigma_hat averages 2h+1 periodogram ordinates, one of them zero after
    centering and the rest h conjugate pairs, so its rank is at most 2h: a
    bandwidth with 2h < d raises DomainError naming the smallest admissible
    h, ceil(d/2), rather than let the ridge stand in for the missing
    directions.  Sigma_hat is formed before the curve, so the curve is not
    held while its periodogram is.  Propagates DegenerateSpectrum from
    covariance estimation.
    """
    lr = long_run_covariance(series, h)
    d = series.d
    if 2 * lr.h_used < d:
        raise DomainError(
            f"bandwidth h={lr.h_used} leaves the long-run covariance of d={d} "
            f"columns singular (rank at most 2h={2 * lr.h_used}); "
            f"use --h {-(-d // 2)} or more"
        )
    return lr, quadform(cusum(series), lr)


def test(
    series: MultivariateSeries,
    alpha: float,
    cv: CriticalValueTable,
    h: int | None = None,
) -> TestResult:
    """Mean-shift test: sup of the studentized quadratic form against the
    cached critical value for (d, alpha).

    The curve comes from `studentize` at bandwidth ``h``, so under the null
    the statistic tends to the sup of a sum of d squared Brownian bridges,
    the law the critical value comes from.  That value is looked up, never
    simulated here; a missing entry raises MissingCriticalValue, whose
    message names the commands that add it.
    """
    value = cv.lookup(series.d, alpha)
    lr, curve = studentize(series, h)
    statistic = float(curve.q.max())
    return TestResult(
        statistic=statistic,
        critical_value=value,
        alpha=alpha,
        reject=bool(statistic > value),
        d=series.d,
        sigma=lr,
        curve=curve,
    )


def _q(curve: CusumCurve) -> np.ndarray:
    if curve.q is None:
        raise DomainError("curve has no quadratic-form values; apply quadform first")
    return curve.q


def _interior_bounds(N: int, trim: float) -> tuple[int, int]:
    _check_trim(trim)
    lo = max(1, math.ceil(trim * N))
    hi = min(N - 1, math.floor((1.0 - trim) * N))
    if lo > hi:
        raise DomainError(f"trim {trim} leaves no interior candidates for N={N}")
    return lo, hi


def estimate_changepoint(
    curve: CusumCurve,
    method: str = "quadform_argmax",
    trim: float = 0.0,
) -> ChangePointEstimate:
    """Argmax change-point estimate over the interior grid k = 1..N-1.

    ``norm_argmax`` maximizes the Euclidean norm of the curve (a curve or a
    norm that is not finite raises DomainError); ``quadform_argmax``
    maximizes its studentized quadratic form, so the curve must come from
    `quadform` (as `TestResult.curve` does).
    Ties go to the smallest index; ``trim`` optionally excludes the outer
    fraction of the grid on each side.
    """
    N = curve.N
    if N < 3:
        raise TooShort(f"need at least 3 observations, got {N}")
    lo, hi = _interior_bounds(N, trim)
    if method == "norm_argmax":
        # scaled exactly, by a power of two, so that the largest entry is in
        # [0.5, 1): no square overflows, and none that counts underflows
        e = np.frexp(np.max([np.abs(s).max() for _, s in curve.blocks()]))[1]
        values = np.empty(N + 1)
        for at, s in curve.blocks():  # not lo: it bounds the candidates
            with np.errstate(over="ignore"):
                norms = np.linalg.norm(np.ldexp(s, -e), axis=1)
                values[at : at + len(s)] = np.ldexp(norms, e)
        if not np.all(np.isfinite(values)):
            raise DomainError("curve norm is not finite; input values are too large")
    elif method == "quadform_argmax":
        values = _q(curve)
    else:
        raise DomainError(
            f"unknown method {method!r}; use norm_argmax or quadform_argmax"
        )
    k = lo + int(np.argmax(values[lo : hi + 1]))
    return ChangePointEstimate(
        k_hat=k / N, t_hat=k, method=method, curve_value=float(values[k])
    )


def _smooth(q: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average of odd width ``window`` <= len(q), q reflected
    at each end: ``np.convolve(np.pad(q, window // 2, mode="reflect"), ...)``
    bit for bit, each block of outputs from its own reflect-padded slice."""
    pad, n = window // 2, len(q)
    kernel = np.full(window, 1.0 / window)
    sm = np.empty(n)
    for lo in range(0, n, _CURVE_CHUNK):
        hi = min(lo + _CURVE_CHUNK, n)
        a, b = max(lo - pad, 0), min(hi + pad, n)
        part = np.pad(q[a:b], (a - lo + pad, hi + pad - b), mode="reflect")
        sm[lo:hi] = np.convolve(part, kernel, mode="valid")
    return sm


def _peaks(x: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Indices and prominences of the local maxima of ``x`` whose prominence
    is at least ``floor``: ``scipy.signal.find_peaks(x, prominence=floor)``,
    bit for bit.

    A peak is an interior run of equal values higher than both neighbours,
    reported at its midpoint ``(start + end) // 2``; edge runs never are.
    Its prominence is ``x[p] - max(left_min, right_min)``, each side's
    minimum taken from the peak to the first higher value or the array end.
    No peak lies between two consecutive peaks (or a peak and an end), so
    the values there fall and then rise: a side's minimum is the least of
    the valleys passed before a higher peak, which one monotone stack per
    side collects.
    """
    x = np.asarray(x, dtype=np.float64)
    if len(x) < 3:
        return np.empty(0, dtype=np.intp), np.empty(0)
    differs = x[1:] != x[:-1]  # with no equal neighbours, every index starts a run
    starts = None if differs.all() else np.flatnonzero(np.append(True, differs))
    v = x if starts is None else x[starts]
    top = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1
    peaks = top if starts is None else (starts[top] + starts[top + 1] - 1) // 2
    # valley[i] is the least value between peak i - 1 (or index 0) and peak
    # i (or the end); the half-open span still holds each peak's lower left
    # neighbour, so leaving out the peak itself changes no minimum
    valley = np.minimum.reduceat(x, np.append(0, peaks)).tolist()
    height = x[peaks].tolist()

    def side_minima(heights, before):
        # before[i] is the valley just before peak i; pop the lower peaks
        # passed on the way out, keeping the least value seen
        stack, out = [], []  # stack: (height, least value out to its base)
        for h, low in zip(heights, before):
            while stack and stack[-1][0] <= h:
                low = min(low, stack.pop()[1])
            stack.append((h, low))
            out.append(low)
        return out

    left = side_minima(height, valley[:-1])
    right = side_minima(height[::-1], valley[:0:-1])[::-1]
    prominences = x[peaks] - np.maximum(left, right)
    keep = prominences >= floor
    return peaks[keep], prominences[keep]


def scan_extrema(
    curve: CusumCurve,
    smoothing_window: int | None = None,
    min_prominence: float | None = None,
    trim: float = 0.0,
) -> ExtremaScan:
    """Local maxima and minima of the smoothed quadratic-form curve.

    Multiple mean shifts leave alternating local extrema on the curve; this
    is a heuristic reading surface, not an inference procedure — no
    separation or significance theory backs the defaults (centered moving
    average of width 2*floor(N^(1/4))+1; prominence floor at 10% of the
    smoothed range), and both are overridable.
    """
    q = _q(curve)
    N = curve.N
    _check_window(smoothing_window)
    _check_prominence(min_prominence)
    lo, hi = _interior_bounds(N, trim)
    if smoothing_window is None:
        smoothing_window = 2 * _int_fourth_root(N) + 1
    w = smoothing_window
    if w > len(q):
        raise DomainError(f"smoothing window {w} exceeds curve length {len(q)}")
    sm = _smooth(q, int(w))
    if min_prominence is None:
        min_prominence = 0.1 * float(sm.max() - sm.min())
        _check_prominence(min_prominence)  # nan where the curve is not finite
    found = []
    for kind, sign in (("max", 1.0), ("min", -1.0)):
        for i, p in zip(*_peaks(sm, min_prominence)):
            if lo <= i <= hi:
                found.append(Extremum(int(i), sign * float(sm[i]), kind, float(p)))
        np.negative(sm, out=sm)  # the min pass reads the peaks of -sm
    found.sort(key=lambda e: e.index)
    return ExtremaScan(
        extrema=tuple(found),
        smoothing_window=int(w),
        min_prominence=float(min_prominence),
    )


def export_curve_csv(curve: CusumCurve, path) -> None:
    """Write the curve to CSV: k, t = k/N, q, q/N (the plotting scale of the
    argmax estimator), then the curve components s_0..s_{d-1}."""
    q, N = _q(curve), curve.N

    def rows():
        for lo, s in curve.blocks():
            k = np.arange(lo, lo + len(s), dtype=np.float64)  # %.17g prints 3.0 as 3
            q_k = q[lo : lo + len(s)]
            yield [k, k / N, q_k, q_k / N, s]

    _write_table(
        path, ["k", "t", "q", "q_over_n"] + [f"s_{i}" for i in range(curve.d)], rows()
    )

