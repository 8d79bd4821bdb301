import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mvcusum import cli, engine, series
from mvcusum.critical import CriticalEntry, CriticalValueTable, default_table
from mvcusum.engine import (
    ChangePointEstimate,
    cusum,
    estimate_changepoint,
    export_curve_csv,
    quadform,
    scan_extrema,
)
from mvcusum.errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    DomainError,
    MissingCriticalValue,
    TooShort,
)
from mvcusum.series import MultivariateSeries, write_csv
from mvcusum.simulate import SimulationSpec, gen_series
from mvcusum.spectral import LongRunCovariance, long_run_covariance


def naive_cusum(X):
    """O(N^2) oracle: per-k recomputation straight from the definition."""
    N, d = X.shape
    total = X.sum(axis=0)
    rows = np.zeros((N + 1, d))
    for k in range(N + 1):
        rows[k] = (X[:k].sum(axis=0) - (k / N) * total) / math.sqrt(N)
    return rows


def curve_rows(curve):
    """The whole curve, stacked from the blocks its readers form it in."""
    return np.concatenate([s for _, s in curve.blocks()])


def manual_lr(sigma):
    """LongRunCovariance built from an exact matrix (no estimation)."""
    sigma = np.asarray(sigma, dtype=float)
    return LongRunCovariance(
        sigma=sigma,
        sigma_inv=np.linalg.inv(sigma),
        ridge_applied=0.0,
        h_used=1,
        N=100,
    )


def fake_table(d, alpha, value):
    t = CriticalValueTable()
    t.put(d, alpha, CriticalEntry(value, 1, 2, 0, 0.0))
    return t


# ---------------------------------------------------------------- cusum


def test_cusum_hand_value():
    c = cusum(MultivariateSeries(np.array([[1.0], [-1.0]])))
    assert c.N == 2
    assert curve_rows(c)[1, 0] == pytest.approx(1 / math.sqrt(2), rel=1e-15)


def test_cusum_endpoints_exact_zero():
    rng = np.random.default_rng(0)
    c = cusum(MultivariateSeries(rng.normal(size=(37, 3)) * 100))
    s = curve_rows(c)
    assert np.all(s[0] == 0.0)
    assert np.all(s[-1] == 0.0)


@given(
    st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=150, deadline=None)
def test_cusum_constant_series_exactly_zero(c, N, d):
    curve = cusum(MultivariateSeries(np.full((N, d), c)))
    assert np.all(curve_rows(curve) == 0.0)


@pytest.mark.parametrize("T,d", [(10, 1), (200, 3), (33, 2)])
def test_cusum_matches_naive_oracle(T, d):
    rng = np.random.default_rng(T + d)
    X = rng.normal(size=(T, d)) * 5
    c = cusum(MultivariateSeries(X))
    np.testing.assert_allclose(curve_rows(c), naive_cusum(X), atol=1e-10)


@given(
    hnp.arrays(
        np.int64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=48),
        elements=st.integers(min_value=-1000, max_value=1000),
    ),
    st.integers(min_value=-10**6, max_value=10**6),
)
@settings(max_examples=120, deadline=None)
def test_cusum_integer_shift_invariance_bitwise(Xint, c):
    # with integer-valued data every intermediate is exact, so adding a
    # constant must leave the curve bit-for-bit unchanged
    X = Xint.astype(float)
    a = cusum(MultivariateSeries(X))
    b = cusum(MultivariateSeries(X + float(c)))
    np.testing.assert_array_equal(curve_rows(a), curve_rows(b))


def test_cusum_dyadic_shift_invariance_bitwise():
    rng = np.random.default_rng(1)
    X = rng.integers(-8, 8, size=(32, 2)) / 8.0
    for c in (0.5, -3.25, 1024.125):
        a = cusum(MultivariateSeries(X))
        b = cusum(MultivariateSeries(X + c))
        np.testing.assert_array_equal(curve_rows(a), curve_rows(b))


def test_cusum_float_shift_invariance_tolerance():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(100, 2))
    a = cusum(MultivariateSeries(X))
    b = cusum(MultivariateSeries(X + math.pi))
    np.testing.assert_allclose(curve_rows(a), curve_rows(b), atol=1e-12)


def test_cusum_too_short():
    with pytest.raises(TooShort):
        cusum(MultivariateSeries(np.array([[1.0]])))


# ---------------------------------------------------------------- quadform


def test_quadform_zero_curve():
    c = cusum(MultivariateSeries(np.full((10, 2), 3.0)))
    q = quadform(c, manual_lr(np.eye(2)))
    assert np.all(q.q == 0.0)


def test_quadform_scalar_hand_value():
    # d=1, sigma=2, curve 3 everywhere inside -> q = 9/2; the steps at
    # both ends of this series give that curve exactly
    curve = cusum(MultivariateSeries(np.array([6.0, 0.0, 0.0, -6.0])))
    assert curve_rows(curve)[:, 0].tolist() == [0.0, 3.0, 3.0, 3.0, 0.0]
    out = quadform(curve, manual_lr([[2.0]]))
    np.testing.assert_allclose(out.q[1:-1], 4.5, rtol=1e-15)
    assert out.q[0] == 0.0 and out.q[-1] == 0.0


def test_quadform_dimension_mismatch():
    c = cusum(MultivariateSeries(np.random.default_rng(0).normal(size=(10, 3))))
    with pytest.raises(DimensionMismatch):
        quadform(c, manual_lr(np.eye(2)))


def test_quadform_nonnegative_and_matches_inverse_oracle():
    rng = np.random.default_rng(7)
    c = cusum(MultivariateSeries(rng.normal(size=(150, 3))))
    A = rng.normal(size=(3, 3))
    sigma = A @ A.T + 0.5 * np.eye(3)
    lr = manual_lr(sigma)
    out = quadform(c, lr)
    assert out.q.min() >= 0.0
    s = curve_rows(c)
    oracle = np.einsum("kd,de,ke->k", s, np.linalg.inv(sigma), s)
    np.testing.assert_allclose(out.q, oracle, rtol=1e-9, atol=1e-12)


def test_quadform_inverse_without_cholesky_factor_is_domain_error():
    # diag(1, -1) has no Cholesky factor, and quadform has no other formula;
    # long_run_covariance never builds such an inverse (see test_spectral)
    c = cusum(MultivariateSeries(np.random.default_rng(5).normal(size=(40, 2))))
    lr = LongRunCovariance(sigma=np.eye(2), sigma_inv=np.diag([1.0, -1.0]),
                           ridge_applied=0.0, h_used=1, N=40)
    with pytest.raises(DomainError) as exc:
        quadform(c, lr)
    assert str(exc.value) == "sigma_inv must be positive definite"


def test_quadform_keeps_s_tilde():
    c = cusum(MultivariateSeries(np.random.default_rng(3).normal(size=(20, 2))))
    out = quadform(c, manual_lr(np.eye(2)))
    np.testing.assert_array_equal(curve_rows(out), curve_rows(c))
    assert out.N == c.N


# ------------------------------------------- chunked curve and q, bit for bit


def whole_array_cusum(X):
    """The curve as one expression over whole-array temporaries: the formula
    `cusum` evaluates in place and in row chunks."""
    N, d = X.shape
    P = np.vstack([np.zeros((1, d)), np.cumsum(X - X[0], axis=0)])
    k = np.arange(N + 1, dtype=float)[:, None]
    return (N * P - k * P[N]) / (N * math.sqrt(N))


def whole_array_q(s, sigma_inv):
    """q with every row factored in one product, as `quadform` does in chunks."""
    Y = s @ np.linalg.cholesky(sigma_inv)
    return np.einsum("kd,kd->k", Y, Y)


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def whole_array_norm_argmax(s):
    """The norm_argmax estimate with the norms of the whole curve at once."""
    e = np.frexp(np.abs(s).max())[1]
    values = np.ldexp(np.linalg.norm(np.ldexp(s, -e), axis=1), e)
    k = 1 + int(np.argmax(values[1:-1]))
    return k, float(values[k])


def whole_array_export(path, s, q):
    """The curve CSV with every column a whole-array expression."""
    N = len(q) - 1
    k = np.arange(N + 1, dtype=np.float64)
    header = ["k", "t", "q", "q_over_n"] + [f"s_{i}" for i in range(s.shape[1])]
    series._write_table(path, header, [[k, k / N, q, q / N, s]])


@pytest.mark.parametrize("N", [16, 65_535, 65_536, 65_537, 131_073, 1_000_000])
@pytest.mark.parametrize("d", [1, 2, 5, 10])
def test_curve_and_q_bit_identical_to_whole_array_formulas(N, d, tmp_path):
    # block edges at 65,536 rows fall inside, on and just past the curve;
    # at N = 131,073 the last of three blocks has 2 rows.  Every reader
    # forms the curve block by block, and each must give the bits of the
    # whole-array formulas.
    rng = np.random.default_rng(N + d)
    X = rng.normal(size=(N, d)) + 3.0
    X[N // 2 :] -= 0.5
    A = rng.normal(size=(d, d))
    lr = manual_lr(A @ A.T + 0.5 * np.eye(d))
    curve = quadform(cusum(MultivariateSeries(X)), lr)
    s = whole_array_cusum(X)
    assert_same_bits(curve_rows(curve), s)
    q = whole_array_q(s, lr.sigma_inv)
    assert_same_bits(curve.q, q)
    e = estimate_changepoint(curve, method="norm_argmax")
    assert (e.t_hat, e.curve_value) == whole_array_norm_argmax(s)
    if N < 1_000_000:  # the %.17g writer takes seconds at 1e6 rows
        export_curve_csv(curve, tmp_path / "blocks.csv")
        whole_array_export(tmp_path / "whole.csv", s, q)
        assert (tmp_path / "blocks.csv").read_bytes() == (
            tmp_path / "whole.csv").read_bytes()


def traced_peak(f, *args):
    """The result of ``f(*args)`` and the tracemalloc peak of the call."""
    tracemalloc.start()
    try:
        out = f(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_cusum_peak_memory_is_the_curve():
    # one pass over the series keeps a carry row and the last block; the
    # bound is the size of the whole curve, (N + 1) * d float64 values
    N, d = 1_000_000, 5
    s = MultivariateSeries(np.random.default_rng(19).normal(size=(N, d)))
    _, peak = traced_peak(cusum, s)
    assert peak < 1.2 * (N + 1) * d * 8


def test_cusum_and_quadform_peak_memory_is_q_and_blocks():
    # the curve is never whole: q (1/5 of the series here) is the only array
    # as long as it, the rest is a few 65,536-row blocks
    s = MultivariateSeries(np.random.default_rng(19).normal(size=(1_000_000, 5)))
    lr = manual_lr(np.eye(5))
    _, peak = traced_peak(lambda: quadform(cusum(s), lr))
    assert peak < 0.5 * s.values.nbytes


# ---------------------------------------------------------------- test()


def _h0_series(T=400, d=2, seed=0):
    return MultivariateSeries(np.random.default_rng(seed).normal(size=(T, d)))


def test_test_rejects_iff_statistic_exceeds():
    s = _h0_series()
    low = engine.test(s, 0.05, fake_table(2, 0.05, 1e-9))
    high = engine.test(s, 0.05, fake_table(2, 0.05, 1e9))
    assert low.statistic == high.statistic
    assert low.reject is True and high.reject is False
    assert low.reject == (low.statistic > low.critical_value)
    assert high.reject == (high.statistic > high.critical_value)
    assert low.d == 2 and low.alpha == 0.05


def test_test_constant_series_degenerate():
    with pytest.raises(DegenerateSpectrum):
        engine.test(
            MultivariateSeries(np.full((100, 2), 2.5)), 0.05, fake_table(2, 0.05, 1.0)
        )


def test_test_missing_critical_value():
    with pytest.raises(MissingCriticalValue):
        engine.test(_h0_series(), 0.05, CriticalValueTable())


def test_test_statistic_is_sup_of_quadform():
    s = _h0_series(seed=5)
    res = engine.test(s, 0.05, fake_table(2, 0.05, 2.0))
    lr = long_run_covariance(s)
    curve = quadform(cusum(s), lr)
    assert res.statistic == float(curve.q.max())
    # the result carries the curve the statistic came from, frozen
    assert res.curve.q.max() == res.statistic
    np.testing.assert_array_equal(res.curve.q, curve.q)
    assert not res.curve.q.flags.writeable
    assert not res.curve.P_N.flags.writeable
    assert not res.curve.tail.flags.writeable


def test_test_bandwidth_passthrough():
    s = _h0_series(seed=6)
    res = engine.test(s, 0.05, fake_table(2, 0.05, 2.0), h=3)
    assert res.sigma.h_used == 3


def test_test_statistic_detects_big_shift():
    # note: with the full-sample covariance the statistic saturates near
    # N/(16 * window mass) as the shift grows (the step inflates the
    # spectrum quadratically), so the threshold here is modest
    rng = np.random.default_rng(11)
    x = rng.normal(size=(400, 2))
    x[200:] += 3.0
    res = engine.test(MultivariateSeries(x), 0.05, fake_table(2, 0.05, 2.0))
    assert res.reject is True
    null = engine.test(
        MultivariateSeries(rng.normal(size=(400, 2))), 0.05, fake_table(2, 0.05, 2.0)
    )
    assert res.statistic > null.statistic


def power_cap(tau, h):
    """The limit of the statistic as a single shift at fraction tau grows
    (d = 1): the shift's own periodogram mass in the 2h+1 ordinates of the
    covariance estimate grows with it."""
    j = np.arange(1, h + 1)
    leak = np.sum(np.sin(math.pi * j * tau) ** 2 / j**2)
    return math.pi**2 * (2 * h + 1) * tau**2 * (1 - tau) ** 2 / (2 * leak)


@pytest.mark.parametrize("tau", [0.2, 0.5, 0.7])
@pytest.mark.parametrize("h", [9, 20])
def test_statistic_at_a_large_shift_is_the_power_cap(tau, h):
    # N(0, 1) noise plus a shift of 100 at tau*T, T = 8000.  With this
    # series at seeds 0-19, tau in {0.1, 0.2, 0.3, 0.5, 0.7} and h in
    # {5, 9, 20}, the largest gap between the statistic and the cap was
    # 0.0031 (0.08% of its cap); 0.005 is that gap with room to spare, and
    # under 0.2% of every cap tested here
    T = 8000
    x = np.random.default_rng(0).standard_normal(T)
    x[int(tau * T) :] += 100.0
    res = engine.test(MultivariateSeries(x), 0.05, fake_table(1, 0.05, 2.0), h=h)
    assert res.statistic == pytest.approx(power_cap(tau, h), abs=0.005)


def test_size_at_a_small_bandwidth_is_far_above_alpha():
    # Σ̂ averages 2h+1 periodogram ordinates, about 2h real degrees of
    # freedom: 6 at the default h = 3 for T = 250, barely above d = 5, so
    # its inverse is heavy-tailed and iid N(0, I) nulls reject far more
    # often than 5% (151/200 at seeds 0..199; README §"Size at finite h")
    table = default_table()
    rejects = sum(
        engine.test(gen_series(SimulationSpec(5, 250, 0, rho=0.0, seed=r))[0],
                    0.05, table).reject
        for r in range(200))
    assert rejects >= 100


# ---------------------------------------------------------------- estimators


def test_estimate_deterministic_jump():
    x = np.concatenate([np.zeros(100), np.full(100, 10.0)])
    s = MultivariateSeries(x)
    e1 = estimate_changepoint(cusum(s), method="norm_argmax")
    assert e1.t_hat == 100 and e1.k_hat == 0.5
    e2 = estimate_changepoint(quadform(cusum(s), manual_lr([[1.0]])),
                              method="quadform_argmax")
    assert e2.t_hat == 100 and e2.k_hat == 0.5
    assert e1.method == "norm_argmax" and e2.method == "quadform_argmax"


def test_estimate_bounds_and_types():
    rng = np.random.default_rng(0)
    s = MultivariateSeries(rng.normal(size=(50, 2)))
    e = estimate_changepoint(cusum(s), method="norm_argmax")
    assert isinstance(e, ChangePointEstimate)
    assert 1 <= e.t_hat <= 49
    assert 0.0 < e.k_hat < 1.0
    assert e.k_hat == e.t_hat / 50


def test_estimate_first_index_wins_ties():
    # alternating +-1 gives equal curve heights at k=1 and k=3
    s = MultivariateSeries(np.array([1.0, -1.0, 1.0, -1.0]))
    e = estimate_changepoint(cusum(s), method="norm_argmax")
    assert e.t_hat == 1


def test_estimate_norm_overflow_is_domain_error():
    x = np.random.default_rng(3).normal(size=(200, 3))
    finite = cusum(MultivariateSeries(x))
    e = estimate_changepoint(finite, method="norm_argmax")
    assert e.curve_value == np.linalg.norm(curve_rows(finite), axis=1)[e.t_hat]
    # every entry is finite, but the interior row k = 2 has no representable
    # norm: its 64 entries are each 3a / sqrt(27), about 2.9e307
    a = 5e307
    huge = cusum(MultivariateSeries(np.outer([0.0, a, -a], np.ones(64))))
    assert np.all(np.isfinite(curve_rows(huge)))
    # a value near the top of the range makes the curve overflow
    x[7, 1] = 1e308
    with np.errstate(over="ignore", invalid="ignore"):
        vast = cusum(MultivariateSeries(x))
        assert not np.all(np.isfinite(curve_rows(vast)))
    for bad in (huge, vast):
        with pytest.raises(DomainError, match=r"^curve norm is not finite; "
                                              r"input values are too large$"):
            estimate_changepoint(bad, method="norm_argmax")


def test_estimate_norm_argmax_is_scale_safe():
    # the norm is taken of the curve scaled by a power of two, which is the
    # plain norm bit for bit wherever that norm neither over- nor underflows
    rng = np.random.default_rng(31)
    for _ in range(100):
        N, d = int(rng.integers(3, 3000)), int(rng.integers(1, 8))
        x = rng.normal(size=(N, d)) * 10.0 ** rng.uniform(-30, 30)
        c = cusum(MultivariateSeries(x))
        want = np.linalg.norm(curve_rows(c), axis=1)
        e = estimate_changepoint(c, method="norm_argmax")
        assert e.t_hat == 1 + int(np.argmax(want[1:N]))
        assert e.curve_value == want[e.t_hat]
    # where the squares over- or underflow, the answer is the unit-scale one
    x = np.random.default_rng(3).normal(size=(200, 3))
    unit = estimate_changepoint(cusum(MultivariateSeries(x)), "norm_argmax")
    for scale in (1e160, 1e-160):
        e = estimate_changepoint(cusum(MultivariateSeries(x * scale)),
                                 "norm_argmax")
        assert e.t_hat == unit.t_hat
        assert e.curve_value / scale == pytest.approx(unit.curve_value,
                                                      rel=1e-13)


def test_estimate_quadform_matches_brute_force():
    rng = np.random.default_rng(13)
    for T in (17, 64, 100):
        X = rng.normal(size=(T, 2))
        X[T // 3 :] += 0.8
        s = MultivariateSeries(X)
        lr = manual_lr(np.eye(2))
        e = estimate_changepoint(quadform(cusum(s), lr), method="quadform_argmax")
        q = quadform(cusum(s), lr).q
        # brute force: first maximizer over the interior
        best = 1
        for k in range(1, T):
            if q[k] > q[best]:
                best = k
        assert e.t_hat == best
        assert e.curve_value == q[best]


def test_estimate_norm_curve_value_is_norm():
    x = np.concatenate([np.zeros(10), np.full(10, 4.0)])
    e = estimate_changepoint(cusum(MultivariateSeries(x)), method="norm_argmax")
    c = cusum(MultivariateSeries(x))
    assert e.curve_value == pytest.approx(
        np.linalg.norm(curve_rows(c)[e.t_hat]), rel=1e-15
    )


def test_estimate_unknown_method():
    with pytest.raises(DomainError):
        estimate_changepoint(cusum(_h0_series()), method="midpoint")


def test_curve_consumers_require_q_alike(tmp_path):
    # the estimate, the scan and the export refuse a curve without q the
    # same way
    c = cusum(_h0_series())
    messages = set()
    for consume in (
        lambda: estimate_changepoint(c, method="quadform_argmax"),
        lambda: scan_extrema(c),
        lambda: export_curve_csv(c, tmp_path / "x.csv"),
    ):
        with pytest.raises(DomainError) as info:
            consume()
        messages.add(str(info.value))
    assert len(messages) == 1


def test_estimate_too_short():
    with pytest.raises(TooShort):
        estimate_changepoint(cusum(MultivariateSeries(np.array([1.0, 2.0]))),
                             "norm_argmax")


def test_estimate_trim_excludes_edges():
    # force the untrimmed argmax to sit at k=1, then trim it away
    x = np.zeros(40)
    x[0] = 50.0
    x[20:] += 1.0
    c = cusum(MultivariateSeries(x))
    e0 = estimate_changepoint(c, method="norm_argmax")
    assert e0.t_hat == 1
    e = estimate_changepoint(c, method="norm_argmax", trim=0.2)
    assert 8 <= e.t_hat <= 32
    with pytest.raises(DomainError):
        estimate_changepoint(c, method="norm_argmax", trim=0.6)


def test_scale_equivariance_of_statistic():
    # transforming observations by any invertible A while substituting the
    # exactly transformed covariance leaves the statistic and argmax alone
    rng = np.random.default_rng(17)
    X = rng.normal(size=(300, 3))
    X[150:] += (0.5, -0.3, 0.2)
    A = np.array([[2.0, 0.3, 0.0], [-0.5, 1.0, 0.1], [0.2, 0.0, 0.7]])
    sigma = np.cov(X.T) + 0.2 * np.eye(3)
    lrA = manual_lr(A @ sigma @ A.T)
    q1 = quadform(cusum(MultivariateSeries(X)), manual_lr(sigma)).q
    q2 = quadform(cusum(MultivariateSeries(X @ A.T)), lrA).q
    assert abs(q1.max() - q2.max()) < 1e-6 * q1.max()
    assert q1.argmax() == q2.argmax()


# ---------------------------------------------------------------- extrema scan


def _two_shift_series(T=300):
    x = np.zeros(T)
    x[T // 3 :] += 5.0
    x[2 * T // 3 :] -= 5.0
    return MultivariateSeries(x)


def _scanned(series, **kw):
    lr = manual_lr([[1.0]])
    return scan_extrema(quadform(cusum(series), lr), **kw)


def test_scan_single_jump_one_max():
    T = 200
    x = np.concatenate([np.zeros(T // 2), np.full(T // 2, 5.0)])
    scan = _scanned(MultivariateSeries(x))
    maxima = [e for e in scan.extrema if e.kind == "max"]
    assert len(maxima) == 1
    assert abs(maxima[0].index - T // 2) <= scan.smoothing_window


def test_scan_two_shifts_two_maxima_one_min():
    T = 300
    scan = _scanned(_two_shift_series(T))
    maxima = [e for e in scan.extrema if e.kind == "max"]
    minima = [e for e in scan.extrema if e.kind == "min"]
    assert len(maxima) == 2
    assert abs(maxima[0].index - T // 3) <= scan.smoothing_window
    assert abs(maxima[1].index - 2 * T // 3) <= scan.smoothing_window
    # the curve crosses zero between the two shifts
    assert len(minima) == 1
    assert maxima[0].index < minima[0].index < maxima[1].index


def test_scan_monotone_ramp_empty():
    q = np.linspace(0.0, 3.0, 101)
    curve = replace(cusum(MultivariateSeries(np.zeros(100))), q=q)
    scan = scan_extrema(curve, smoothing_window=5, min_prominence=0.1)
    assert scan.extrema == ()


def test_scan_even_window_rejected():
    with pytest.raises(DomainError):
        _scanned(_two_shift_series(), smoothing_window=4)


def test_scan_requires_q():
    c = cusum(_two_shift_series())
    with pytest.raises(DomainError):
        scan_extrema(c)


def test_scan_invariants_and_defaults():
    # 625 = 5^4: the default window needs the exact integer fourth root
    for T, window in ((480, 2 * int(480**0.25) + 1), (625, 11)):
        scan = _scanned(_two_shift_series(T))
        assert scan.smoothing_window == window
        idx = [e.index for e in scan.extrema]
        assert idx == sorted(idx) and len(set(idx)) == len(idx)
        assert all(e.prominence >= scan.min_prominence for e in scan.extrema)
        assert all(1 <= e.index <= T - 1 for e in scan.extrema)


def test_scan_prominence_filter():
    # a harsh prominence threshold suppresses everything
    scan = _scanned(_two_shift_series(), min_prominence=1e9)
    assert scan.extrema == ()


def padded_smooth(q, window):
    """The moving average through one reflect-padded copy of all of q."""
    pad = window // 2
    kernel = np.full(window, 1.0 / window)
    return np.convolve(np.pad(q, pad, mode="reflect"), kernel, mode="valid")


def padded_scan_extrema(q, window, floor):
    """(index, value, kind, prominence) of every extremum of the padded
    oracle's average, the min pass on a negated copy."""
    sm = padded_smooth(q, window)
    found = [(int(i), float(sm[i]), kind, float(p))
             for x, kind in ((sm, "max"), (-sm, "min"))
             for i, p in zip(*engine._peaks(x, floor))]
    return sorted(found)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 41, 64])
def test_smooth_bit_identical_to_padded_oracle_every_window(n):
    q = np.random.default_rng(n).random(n) * 7.0
    for w in range(1, n + 1, 2):
        assert_same_bits(engine._smooth(q, w), padded_smooth(q, w))


@pytest.mark.parametrize("n", [65_536, 65_537, 65_538, 131_073, 200_001])
def test_smooth_bit_identical_to_padded_oracle_at_block_edges(n):
    # each 65,536-row block of outputs reads its own padded slice; the
    # windows cross every block edge, and at n = 65,537 the last block is
    # one output whose window reaches back into the block before
    q = np.cumsum(np.random.default_rng(n).standard_normal(n)) ** 2
    for w in (1, 3, 5, 9, 31, 63, 1025):
        assert_same_bits(engine._smooth(q, w), padded_smooth(q, w))


def test_scan_matches_padded_oracle_every_window():
    curve = quadform(cusum(_two_shift_series(40)), manual_lr([[1.0]]))
    for w in range(1, len(curve.q) + 1, 2):
        scan = scan_extrema(curve, smoothing_window=w)
        got = [(e.index, e.value, e.kind, e.prominence) for e in scan.extrema]
        assert got == padded_scan_extrema(curve.q, w, scan.min_prominence)


def test_scan_matches_padded_oracle_across_blocks():
    T = 131_073
    x = np.random.default_rng(37).standard_normal((T, 2))
    x[T // 3 :] += 0.05
    x[2 * T // 3 :] -= 0.1
    curve = quadform(cusum(MultivariateSeries(x)), manual_lr(np.eye(2)))
    for w, floor in ((None, None), (1, 0.0), (63, 0.0)):
        scan = scan_extrema(curve, smoothing_window=w, min_prominence=floor)
        got = [(e.index, e.value, e.kind, e.prominence) for e in scan.extrema]
        want = padded_scan_extrema(curve.q, scan.smoothing_window,
                                   scan.min_prominence)
        assert got == want and len(got) > 0


def test_scan_peak_memory_is_one_smoothed_copy():
    # the smoothed curve and the peak finder's temporaries (about 1.5 times
    # q's bytes); a padded copy of q and a negated copy of the smoothed one
    # would add 2 more
    T = 1_000_000
    x = np.random.default_rng(29).standard_normal((T, 1))
    x[T // 3 :] += 0.05
    x[2 * T // 3 :] -= 0.1
    curve = quadform(cusum(MultivariateSeries(x)), manual_lr([[1.0]]))
    _, peak = traced_peak(scan_extrema, curve)
    assert peak < 2.0 * curve.q.nbytes


# ---------------------------------------------------------------- peak helper


def assert_peaks_match_scipy(x, floor):
    """engine._peaks against its oracle, scipy's find_peaks: equal indices
    and bit-equal prominences."""
    from scipy.signal import find_peaks

    x = np.asarray(x, dtype=float)
    want, props = find_peaks(x, prominence=floor)
    got, prominences = engine._peaks(x, floor)
    np.testing.assert_array_equal(got, want)
    assert prominences.dtype == np.float64
    assert prominences.tobytes() == props["prominences"].tobytes()


@pytest.mark.parametrize(
    "x",
    [
        [],
        [1.0],
        [1.0, 2.0],
        [2.0, 1.0],
        [0.0, 1.0, 0.0],
        [1.0, 0.0, 1.0],
        [1.0, 1.0, 1.0],
        np.full(50, 3.25),
        [5.0, 5.0, 1.0, 3.0, 1.0, 4.0, 4.0],  # edge plateaus are never peaks
        [0.0, 2.0, 2.0, 2.0, 0.0, 2.0, 2.0, 1.0, 2.0, 0.0],  # equal heights
        [0.0, 3.0, 1.0, 3.0, 1.0, 3.0, 0.0],
        [0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0],  # even and odd plateaus
        [1.0, 2.0, 3.0, 2.0, 3.0, 4.0, 3.0, 1.0, 5.0],
        [0.0, 1.0, 1.0, 2.0, 2.0, 1.0, 2.0, 2.0, 3.0],  # rising shelves
    ],
)
@pytest.mark.parametrize("floor", [0.0, 0.5, 1.0, 1e9])  # 1.0 equals some prominences
def test_peaks_match_find_peaks_fixed_cases(x, floor):
    assert_peaks_match_scipy(x, floor)


def test_peaks_match_find_peaks_random_arrays():
    rng = np.random.default_rng(71)
    for trial in range(400):
        n = int(rng.integers(0, 200))
        if trial % 3 == 0:
            x = rng.standard_normal(n)
        elif trial % 3 == 1:
            x = rng.integers(0, 4, n).astype(float)  # plateaus everywhere
        else:
            x = np.round(np.cumsum(rng.standard_normal(n)), 1)
        floor = float(rng.uniform(0.0, 1.0)) if trial % 2 else 0.0
        assert_peaks_match_scipy(x, floor)
        if n:
            # a floor above every prominence keeps nothing
            assert_peaks_match_scipy(x, float(np.ptp(x)) + 1.0)


def test_scan_window_one_reads_unsmoothed_curve():
    x = np.random.default_rng(7).standard_normal(1001)
    curve = quadform(cusum(MultivariateSeries(x)), manual_lr([[1.0]]))
    q = curve.q
    assert np.array_equal(engine._smooth(q, 1), q)
    scan = scan_extrema(curve, smoothing_window=1)
    assert scan.min_prominence == 0.1 * float(q.max() - q.min())
    expected = sorted(
        (int(i), kind)
        for sign, kind in ((1.0, "max"), (-1.0, "min"))
        for i in engine._peaks(sign * q, scan.min_prominence)[0]
    )
    assert [(e.index, e.kind) for e in scan.extrema] == expected
    assert len(expected) > 0
    assert all(e.value == q[e.index] for e in scan.extrema)


def test_peaks_match_find_peaks_on_two_break_curve():
    T, d = 100_000, 5
    x = np.random.default_rng(29).standard_normal((T, d))
    x[T // 3 :] += 0.05
    x[2 * T // 3 :] -= 0.1
    series = MultivariateSeries(x)
    q = quadform(cusum(series), long_run_covariance(series)).q
    sm = engine._smooth(q, 2 * 17 + 1)  # the default window at N = 1e5
    floor = 0.1 * float(sm.max() - sm.min())
    for sign in (1.0, -1.0):
        for p in (0.0, floor):
            assert_peaks_match_scipy(sign * sm, p)
    assert len(engine._peaks(sm, 0.0)[0]) > 100


# ---------------------------------------------------------------- exports


def test_curve_export_csv(tmp_path):
    rng = np.random.default_rng(23)
    s = MultivariateSeries(rng.normal(size=(12, 2)))
    curve = quadform(cusum(s), manual_lr(np.eye(2)))
    path = tmp_path / "curve.csv"
    export_curve_csv(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,t,q,q_over_n,s_0,s_1"
    assert len(lines) == 14  # header + N+1 rows
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0 and float(first[2]) == 0.0
    row5 = lines[6].split(",")
    assert float(row5[1]) == pytest.approx(5 / 12)
    assert float(row5[2]) == pytest.approx(curve.q[5], rel=1e-15)
    assert float(row5[3]) == pytest.approx(curve.q[5] / 12, rel=1e-12)
    assert float(row5[4]) == pytest.approx(curve_rows(curve)[5, 0], rel=1e-15)


def test_curve_export_requires_q(tmp_path):
    c = cusum(MultivariateSeries(np.random.default_rng(1).normal(size=(10, 1))))
    with pytest.raises(DomainError):
        export_curve_csv(c, tmp_path / "x.csv")


def test_result_text_format(tmp_path, capsys):
    # the test lines of `detect` stdout, on a CSV that holds the series bit
    # for bit (%.17g), against the same one-entry table
    s = _h0_series(seed=9)
    res = engine.test(s, 0.05, fake_table(2, 0.05, 2.0))
    write_csv(s, tmp_path / "s.csv")
    fake_table(2, 0.05, 2.0).save_csv(tmp_path / "cv.csv")
    assert cli.main(["detect", str(tmp_path / "s.csv"),
                     "--table", str(tmp_path / "cv.csv")]) == 0
    text = capsys.readouterr().out
    lines = dict(line.split("=", 1) for line in text.strip().splitlines())
    assert float(lines["statistic"]) == res.statistic
    assert float(lines["critical_value"]) == 2.0
    assert lines["reject"] in ("true", "false")
    assert lines["reject"] == ("true" if res.reject else "false")
    assert int(lines["d"]) == 2
    assert float(lines["alpha"]) == 0.05
    assert int(lines["h_used"]) == res.sigma.h_used
    assert "sigma_diag" in lines
    diag = [float(v) for v in lines["sigma_diag"].split(",")]
    assert diag == np.diag(long_run_covariance(s).sigma).tolist()


# ----------------------------------------------- estimator consistency trend


def test_argmax_consistency_trend_paired_seeds():
    """Doubling the series length must not degrade localization: over 30
    paired seeded replications of the strong mid-sample shift, the mean
    absolute deviation at T=16000 stays within +10 index units of the mean
    at T=8000.  The localization error of a fixed-size shift converges in
    distribution, so the two means are close; the pinned block measures
    about 28.4 (T=8000) against 18.4 (T=16000)."""
    from mvcusum.simulate import SimulationSpec, exchangeable_cov, gen_series

    def mean_abs_dev(T):
        devs = []
        for seed in range(30):
            spec = SimulationSpec(
                d=2,
                T=T,
                m=10,
                innovation_cov=exchangeable_cov(2, 0.5),
                delta=np.array([0.5, 1.2]),
                k_star=0.5,
                seed=seed,
            )
            series, t_star = gen_series(spec)
            curve = quadform(cusum(series), long_run_covariance(series))
            devs.append(abs(estimate_changepoint(curve).t_hat - t_star))
        return float(np.mean(devs))

    shorter = mean_abs_dev(8000)
    doubled = mean_abs_dev(16000)
    assert doubled <= shorter + 10.0
    assert shorter < 60.0 and doubled < 60.0
