"""CUSUM curve, studentized test statistic, change-point estimators, and the
local-extrema scan for multiple changes.

The running statistic is evaluated on the grid t = k/N, k = 0..N, where the
integer prefix structure makes the endpoint values exactly zero and constant
inputs cancel exactly.  The test compares the supremum of the studentized
quadratic form against the sup of a sum of squared Brownian bridges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .critical import CriticalValueTable
from .errors import DimensionMismatch, DomainError, TooShort
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
    "test",
    "test_result_text",
]


@dataclass(frozen=True)
class CusumCurve:
    """Running-sum curve on the grid k/N: row k of ``s_tilde`` is the scaled
    partial-sum deviation at t = k/N; ``q`` (once filled) is its quadratic
    form under the inverse long-run covariance."""

    s_tilde: np.ndarray
    q: np.ndarray | None
    N: int

    def __post_init__(self):
        _frozen(self.s_tilde)
        if self.q is not None:
            _frozen(self.q)

    @property
    def d(self) -> int:
        return self.s_tilde.shape[1]


@dataclass(frozen=True)
class TestResult:
    """Outcome of `test`.  ``curve`` is the studentized curve (q filled)
    whose maximum is the statistic; the estimate, the scan and the curve
    export read it instead of rebuilding it."""

    statistic: float
    critical_value: float
    alpha: float
    reject: bool
    d: int
    sigma: LongRunCovariance
    curve: CusumCurve

    @property
    def sigma_diag(self) -> np.ndarray:
        return np.diag(self.sigma.sigma)


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


def cusum(series: MultivariateSeries) -> CusumCurve:
    """Scaled partial-sum deviation curve on the grid t = k/N.

    The first observation is subtracted from every row before accumulating —
    mathematically a no-op for this curve, but it makes a constant series
    cancel to exact zeros for any constant, and the integer form
    (N*P_k - k*P_N) / (N*sqrt(N)) keeps both endpoints exactly zero.
    """
    X = series.values
    N, d = X.shape
    if N < 2:
        raise TooShort(f"need at least 2 observations, got {N}")
    D = X - X[0]
    P = np.vstack([np.zeros((1, d)), np.cumsum(D, axis=0)])
    k = np.arange(N + 1, dtype=float)[:, None]
    s = (N * P - k * P[N]) / (N * math.sqrt(N))
    return CusumCurve(s_tilde=s, q=None, N=N)


def quadform(curve: CusumCurve, sigma: LongRunCovariance) -> CusumCurve:
    """Fill the quadratic-form values q[k] = s[k]' * sigma_inv * s[k].

    Evaluated through the Cholesky factor of the inverse so every value is a
    sum of squares — nonnegative by construction, with exact zeros at the
    exactly-zero endpoint rows.
    """
    s = curve.s_tilde
    if sigma.sigma.shape[0] != curve.d:
        raise DimensionMismatch(
            f"covariance is {sigma.sigma.shape[0]}-dimensional, curve is {curve.d}"
        )
    M = sigma.sigma_inv
    try:
        G = np.linalg.cholesky(M)
        Y = s @ G
        q = np.einsum("kd,kd->k", Y, Y)
    except np.linalg.LinAlgError:
        q = np.einsum("kd,de,ke->k", s, M, s)
        np.maximum(q, 0.0, out=q)
    return CusumCurve(s_tilde=s, q=q, N=curve.N)


def test(
    series: MultivariateSeries,
    alpha: float,
    cv: CriticalValueTable,
    h: int | None = None,
    sigma: LongRunCovariance | None = None,
    curve: CusumCurve | None = None,
) -> TestResult:
    """Mean-shift test: sup of the studentized quadratic form against the
    cached critical value for (d, alpha).

    The critical value is looked up, never simulated here; a missing entry
    raises MissingCriticalValue (extend the table with the `critval`
    subcommand).  Propagates DegenerateSpectrum from covariance estimation.
    ``sigma`` overrides the internally estimated long-run covariance — the
    two-pass pipeline passes one estimated from segment-demeaned residuals,
    together with ``curve``, the ``cusum(series)`` curve its pilot already
    built, which is then studentized under ``sigma`` instead of rebuilt.
    """
    value = cv.lookup(series.d, alpha)
    lr = long_run_covariance(series, h) if sigma is None else sigma
    curve = quadform(cusum(series) if curve is None else curve, lr)
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
    if not 0.0 <= trim < 0.5:
        raise DomainError(f"trim fraction must be in [0, 0.5), got {trim}")
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

    ``norm_argmax`` maximizes the Euclidean norm of the curve;
    ``quadform_argmax`` maximizes its studentized quadratic form, so the
    curve must come from `quadform` (as `TestResult.curve` does).
    Ties go to the smallest index; ``trim`` optionally excludes the outer
    fraction of the grid on each side.
    """
    N = curve.N
    if N < 3:
        raise TooShort(f"need at least 3 observations, got {N}")
    if method == "norm_argmax":
        values = np.linalg.norm(curve.s_tilde, axis=1)
    elif method == "quadform_argmax":
        values = _q(curve)
    else:
        raise DomainError(
            f"unknown method {method!r}; use norm_argmax or quadform_argmax"
        )
    lo, hi = _interior_bounds(N, trim)
    k = lo + int(np.argmax(values[lo : hi + 1]))
    return ChangePointEstimate(
        k_hat=k / N, t_hat=k, method=method, curve_value=float(values[k])
    )


def _smooth(q: np.ndarray, window: int) -> np.ndarray:
    pad = window // 2
    padded = np.pad(q, pad, mode="reflect")
    return np.convolve(padded, np.full(window, 1.0 / window), mode="valid")


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
    starts = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    v = x[starts]
    top = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1
    peaks = (starts[top] + starts[top + 1] - 1) // 2
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
    if smoothing_window is None:
        smoothing_window = 2 * _int_fourth_root(N) + 1
    w = smoothing_window
    if int(w) != w or w < 1 or w % 2 == 0:
        raise DomainError(f"smoothing window must be odd and >= 1, got {w}")
    if w > len(q):
        raise DomainError(f"smoothing window {w} exceeds curve length {len(q)}")
    sm = _smooth(q, int(w))
    if min_prominence is None:
        min_prominence = 0.1 * float(sm.max() - sm.min())
    if not min_prominence >= 0:  # NaN fails this too
        raise DomainError(f"prominence floor must be >= 0, got {min_prominence}")
    lo, hi = _interior_bounds(N, trim)
    found = []
    for sign, kind in ((1.0, "max"), (-1.0, "min")):
        for i, p in zip(*_peaks(sign * sm, min_prominence)):
            if lo <= i <= hi:
                found.append(
                    Extremum(
                        index=int(i),
                        value=float(sm[i]),
                        kind=kind,
                        prominence=float(p),
                    )
                )
    found.sort(key=lambda e: e.index)
    return ExtremaScan(
        extrema=tuple(found),
        smoothing_window=int(w),
        min_prominence=float(min_prominence),
    )


def export_curve_csv(curve: CusumCurve, path) -> None:
    """Write the curve to CSV: k, t = k/N, q, q/N (the plotting scale of the
    argmax estimator), then the curve components s_0..s_{d-1}."""
    q = _q(curve)
    N = curve.N
    k = np.arange(N + 1, dtype=np.float64)  # %.17g prints whole floats as integers
    _write_table(
        path,
        ["k", "t", "q", "q_over_n"] + [f"s_{i}" for i in range(curve.d)],
        [k, k / N, q, q / N, curve.s_tilde],
    )


def test_result_text(result: TestResult) -> str:
    """Flat key=value rendering of a test result, one pair per line."""
    diag = ",".join(format(v, ".17g") for v in result.sigma_diag)
    lines = [
        f"statistic={format(result.statistic, '.17g')}",
        f"critical_value={format(result.critical_value, '.17g')}",
        f"alpha={format(result.alpha, '.17g')}",
        f"reject={'true' if result.reject else 'false'}",
        f"d={result.d}",
        f"h_used={result.sigma.h_used}",
        f"ridge_applied={format(result.sigma.ridge_applied, '.17g')}",
        f"sigma_diag={diag}",
    ]
    return "\n".join(lines) + "\n"
