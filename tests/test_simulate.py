import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings
from hypothesis import strategies as st

from mvcusum.errors import DimensionMismatch, DomainError
from mvcusum.series import MultivariateSeries
from mvcusum.simulate import (
    SimulationSpec,
    exchangeable_cov,
    gen_innovations,
    gen_series,
)
from mvcusum.spectral import long_run_covariance


# Pinned seeds for the statistical value checks (all tolerances here are
# >= 4 MC standard deviations, so nearly any seed passes; pinning keeps the
# suite deterministic).
SEED_M0_COV = 0
SEED_MDEP = 0
SEED_LAG1 = 0
SEED_RHO0 = 0
SEED_TABLE1 = 0
SEED_H0GAP = 0


def spec_of(
    d=2,
    T=1000,
    m=0,
    rho=0.5,
    base=None,
    cov=None,
    delta=None,
    k_star=None,
    seed=0,
    tol=1e-12,
):
    return SimulationSpec(
        d=d,
        T=T,
        m=m,
        rho=rho,
        base=base,
        tol=tol,
        innovation_cov=cov,
        delta=delta,
        k_star=k_star,
        seed=seed,
    )


def reconstruct_z(spec):
    """Oracle for the documented RNG layout: forward stream for t = 1..T,
    presample stream drawn at t = 0, -1, -2, ..., stacked in ascending time
    order and colored by the Cholesky factor."""
    n_pre = spec.K_max + spec.m
    fwd, pre = np.random.SeedSequence(spec.seed).spawn(2)
    zf = np.random.default_rng(fwd).standard_normal((spec.T, spec.d))
    zp = np.random.default_rng(pre).standard_normal((n_pre, spec.d))
    zraw = np.vstack([zp[::-1], zf])
    return zraw @ np.linalg.cholesky(spec.innovation_cov).T


# ---------------------------------------------------------------- coefficients


def test_geometric_kmax_frozen_half():
    # the tail after K is 0.5**K, first below 1e-12 at K = 40
    assert SimulationSpec(2, 100, 0, rho=0.5).K_max == 40


@pytest.mark.parametrize("rho", [0.1, 0.3, 0.5, 0.7, 0.9, 0.95])
def test_geometric_tail_invariant(rho):
    k_max = SimulationSpec(1, 100, 0, rho=rho).K_max
    tail = rho ** (k_max + 1) / (1 - rho)  # sum_{k > K_max} rho^k
    assert tail < 1e-12


def test_geometric_rho_zero():
    assert SimulationSpec(3, 100, 0, rho=0.0).K_max == 0


def test_geometric_rho_domain():
    with pytest.raises(DomainError):
        SimulationSpec(1, 100, 0, rho=1.0)
    with pytest.raises(DomainError):
        SimulationSpec(1, 100, 0, rho=-0.2)


def _brute_k_max(rho, tol):
    """The smallest K with sum_{k > K} rho**k < tol, by scanning K."""
    return next(k for k in range(100_000) if rho ** (k + 1) / (1 - rho) < tol)


@pytest.mark.parametrize("rho, tol, k_max", [
    (0.2, 1e-12, 17),  # not ceil(log tol / log rho) = 18
    (0.4, 1e-12, 30),  # not 31
    (0.5, 3.9, 0),  # tols above the tail after depth 0
    (0.5, 10.0, 0),
    (0.5, math.inf, 0),
    # the closed form rounds up to 47: the step down finds 46
    (0.5, math.nextafter(0.5 ** 46, math.inf), 46),
])
def test_geometric_kmax_is_smallest_depth(rho, tol, k_max):
    assert SimulationSpec(2, 100, 0, rho=rho, tol=tol).K_max == k_max
    tail = lambda k: rho ** (k + 1) / (1 - rho)  # sum_{j > k} rho^j
    assert tail(k_max) < tol
    assert k_max == 0 or tail(k_max - 1) >= tol


@given(st.floats(min_value=0.0, max_value=0.99),
       st.one_of(st.floats(min_value=1e-15, max_value=1e3), st.just(math.inf)))
@settings(max_examples=300, deadline=None)
def test_geometric_kmax_matches_brute_force(rho, tol):
    assert SimulationSpec(1, 100, 0, rho=rho, tol=tol).K_max == _brute_k_max(rho, tol)


def _loop_k_max(rho, tol):
    """The depth found one tap at a time, the loop the closed form replaces."""
    k_max = 0
    while rho ** (k_max + 1) / (1.0 - rho) >= tol:
        k_max += 1
    return k_max


@pytest.mark.parametrize("rho", [
    0.0, 1e-300, 0.05, 0.2, 0.4, 0.5, 0.7, 0.9, 0.99, 0.999, 0.9999, 0.99999])
def test_geometric_kmax_matches_tap_loop(rho):
    tols = [1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 1.0, 3.9, 10.0]
    if rho == 0.99999:  # the loop takes about a second per tol here
        tols = [1e-15, 1e-6, 10.0]
    for tol in tols:
        assert SimulationSpec(1, 100, 0, rho=rho, tol=tol).K_max == _loop_k_max(rho, tol)


def test_geometric_kmax_matches_tap_loop_near_one():
    rng = np.random.default_rng(13)
    for _ in range(40):
        rho = 1.0 - 10.0 ** -rng.uniform(0.5, 4.0)
        tol = 10.0 ** rng.uniform(-15.0, 1.0)
        assert SimulationSpec(1, 100, 0, rho=rho, tol=tol).K_max == _loop_k_max(rho, tol)


def test_geometric_replace_keeps_resolved_base():
    s = SimulationSpec(2, 100, 0, rho=0.2)
    r = replace(s, rho=0.6, seed=3)
    np.testing.assert_array_equal(r.base, 0.8 * np.eye(2))
    assert (r.rho, r.K_max) == (0.6, SimulationSpec(2, 100, 0, rho=0.6).K_max)


def test_geometric_base_shape_checked():
    with pytest.raises(DimensionMismatch):
        spec_of(d=2, base=np.eye(3))


def test_spec_rejects_cov_of_the_wrong_shape():
    with pytest.raises(DimensionMismatch) as exc:
        SimulationSpec(d=2, T=10, m=0, innovation_cov=np.eye(3))
    assert str(exc.value) == "innovation_cov must be (2, 2), got (3, 3)"


def test_exchangeable_cov():
    R = exchangeable_cov(3, 0.5)
    np.testing.assert_array_equal(np.diag(R), np.ones(3))
    assert R[0, 1] == R[2, 0] == 0.5
    np.testing.assert_array_equal(R, R.T)
    with pytest.raises(DomainError, match=r"^d must be >= 1, got 0$"):
        exchangeable_cov(0, 0.5)


# ---------------------------------------------------------------- spec validation


def test_spec_rejects_asymmetric_cov():
    with pytest.raises(DomainError):
        spec_of(cov=np.array([[1.0, 0.5], [0.2, 1.0]]))


def test_spec_rejects_bad_delta_length():
    with pytest.raises(DimensionMismatch):
        spec_of(delta=np.array([1.0, 2.0, 3.0]))


def test_spec_rejects_bad_kstar():
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(DomainError):
            spec_of(k_star=bad)


def test_spec_rejects_negative_m():
    with pytest.raises(DomainError):
        spec_of(m=-1)


@pytest.mark.parametrize("field, value, message", [
    ("tol", 0.0, "tail tolerance must be positive, got 0.0"),
    ("seed", -1, "seed must be >= 0, got -1"),
    ("d", 0, "d must be >= 1, got 0"),
])
def test_spec_rejects_out_of_domain_scalars(field, value, message):
    with pytest.raises(DomainError) as exc:
        spec_of(**{field: value})
    assert str(exc.value) == message


@pytest.mark.parametrize("field, value", [
    ("T", 10.5), ("m", 0.5), ("d", 2.0), ("d", True), ("seed", 1.0)])
def test_spec_refuses_a_count_that_is_not_an_integer(field, value):
    # named before any other fault, here the tolerance of 0
    with pytest.raises(DomainError) as exc:
        spec_of(tol=0.0, **{field: value})
    assert str(exc.value) == f"{field} must be an integer, got {value}"


def test_spec_takes_numpy_integers():
    spec = spec_of(d=np.int64(2), T=np.int32(10), m=np.uint8(1),
                   seed=np.int64(3))
    assert (spec.d, spec.T, spec.m, spec.seed) == (2, 10, 1, 3)


@pytest.mark.parametrize("cov", [[[1.0, 2.0], [2.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]],
                         ids=["indefinite", "singular"])
def test_spec_rejects_cov_without_cholesky_factor(cov):
    # symmetric, but no Cholesky factor: rejected when the spec is built, not
    # when the innovations are drawn
    with pytest.raises(DomainError) as exc:
        spec_of(cov=np.array(cov))
    assert str(exc.value) == "innovation_cov must be positive definite"


@pytest.mark.parametrize("field, value", [
    ("cov", [[math.inf, 0.0], [0.0, 1.0]]),
    ("cov", [[1.0, math.nan], [math.nan, 1.0]]),
    ("base", [[1.0, 0.0], [0.0, -math.inf]]),
    ("delta", [0.0, math.nan]),
], ids=["cov-inf", "cov-nan", "base", "delta"])
def test_spec_rejects_non_finite(field, value):
    with pytest.raises(DomainError) as exc:
        spec_of(**{field: np.array(value)})
    name = "innovation_cov" if field == "cov" else field
    assert str(exc.value) == f"{name} must be finite"


@pytest.mark.parametrize("field, default, shape_error", [
    ("base", 0.5 * np.eye(2), "base must be (2, 2), got (3, 3)"),
    ("innovation_cov", np.eye(2), "innovation_cov must be (2, 2), got (3, 3)"),
    ("delta", np.zeros(2), "delta must be (2,), got (3,)"),
])
def test_spec_array_fields_follow_one_rule(field, default, shape_error):
    # an omitted field takes its default (base: (1 - rho) * I at rho = 0.5)
    spec = SimulationSpec(d=2, T=10, m=0)
    np.testing.assert_array_equal(getattr(spec, field), default)
    # a given one is stored as a write-protected float64 copy
    given = default.astype(int).tolist()
    stored = getattr(SimulationSpec(d=2, T=10, m=0, **{field: given}), field)
    assert stored.dtype == np.float64 and not stored.flags.writeable
    np.testing.assert_array_equal(stored, given)
    # then checked for its shape, and for finite entries
    wrong = np.ones(tuple(n + 1 for n in default.shape))
    with pytest.raises(DimensionMismatch) as exc:
        SimulationSpec(d=2, T=10, m=0, **{field: wrong})
    assert str(exc.value) == shape_error
    bad = default.copy()
    bad[(0,) * bad.ndim] = math.inf
    with pytest.raises(DomainError) as exc:
        SimulationSpec(d=2, T=10, m=0, **{field: bad})
    assert str(exc.value) == f"{field} must be finite"


# ---------------------------------------------------------------- innovations


def window_sum_innovations(spec):
    """The innovations as one sum over sliding windows of the colored
    stream, for every d: what `gen_innovations` does for d = 1."""
    z = reconstruct_z(spec)
    windows = sliding_window_view(z, spec.m + 1, axis=0)
    return windows.sum(axis=-1) / math.sqrt(spec.m + 1)


@pytest.mark.parametrize("d", range(1, 7))
def test_innovations_bit_identical_to_window_sum(d):
    for m in range(65):
        s = spec_of(d=d, T=257, m=m, cov=exchangeable_cov(d, 0.3), seed=100 * d + m)
        got, want = gen_innovations(s), window_sum_innovations(s)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), m


def test_innovations_m0_equals_colored_stream():
    # bitwise oracle for the stream layout: at m=0 the window is identity
    s = spec_of(d=2, T=50, m=0, cov=exchangeable_cov(2, 0.5), seed=11)
    xi = gen_innovations(s)
    assert xi.shape == (50 + s.K_max, 2)
    np.testing.assert_array_equal(xi, reconstruct_z(s))


def test_innovations_window_relation_across_m():
    # sqrt(m+1) * xi_m(t) equals the sum of the m+1 most recent xi_0(t)
    # values at the same seed: the two runs share one underlying Z stream
    s0 = spec_of(d=2, T=200, m=0, seed=3)
    s5 = spec_of(d=2, T=200, m=5, seed=3)
    xi0 = gen_innovations(s0)
    xi5 = gen_innovations(s5)
    K = s0.K_max
    assert s5.K_max == K
    want = sum(xi0[5 - j : len(xi0) - j] for j in range(6)) / math.sqrt(6)
    np.testing.assert_allclose(xi5[5:], want[: len(xi5) - 5], atol=1e-12)


def test_innovations_deterministic():
    a = gen_innovations(spec_of(seed=7, m=4))
    b = gen_innovations(spec_of(seed=7, m=4))
    np.testing.assert_array_equal(a, b)
    c = gen_innovations(spec_of(seed=8, m=4))
    assert not np.array_equal(a, c)


def test_innovations_refuse_a_filter_deeper_than_the_cap():
    # the spec builds at any rho < 1; the presample draw is what is bounded
    s = spec_of(d=2, T=100, m=0, rho=0.99999)
    assert s.K_max == 3_914_375
    with pytest.raises(DomainError) as exc:
        gen_series(s)
    assert str(exc.value) == (
        "filter depth K_max=3914375 at rho=0.99999 and tol=1e-12 exceeds "
        "1000000 presample rows; lower rho or raise tol")
    s = spec_of(d=2, T=100, m=0, rho=0.9999)  # 368,395 taps: under the cap
    assert gen_innovations(s).shape == (100 + 368_395, 2)
    # K_max + m rows are drawn, so a wide window counts against the cap too
    s = spec_of(d=2, T=50, m=999_961, rho=0.5)
    assert s.K_max == 40
    with pytest.raises(DomainError) as exc:
        gen_innovations(s)
    assert str(exc.value) == (
        "filter depth K_max=40 plus dependence range m=999961 exceeds "
        "1000000 presample rows; lower m")


def test_innovations_m0_sample_cov():
    R = exchangeable_cov(2, 0.5)
    s = spec_of(d=2, T=16000, m=0, cov=R, seed=SEED_M0_COV)
    xi = gen_innovations(s)[s.K_max :]
    sample = xi.T @ xi / len(xi)
    assert np.linalg.norm(sample - R) < 0.1


def test_innovations_m_dependence_lag_cutoff():
    # lag m+1 cross-covariance is exactly zero in truth; the sample version
    # stays inside 4 MC standard errors entrywise. The innovations have
    # triangular autocovariance tri(h) = 1 - |h|/(m+1), so by Bartlett's
    # formula the sample covariance at lag m+1 has variance
    # sum_h tri(h)^2 / T (the cross term vanishes beyond the window).
    T = 16000
    m = 10
    s = spec_of(d=2, T=T, m=m, cov=exchangeable_cov(2, 0.5), seed=SEED_MDEP)
    xi = gen_innovations(s)[s.K_max :]
    lag = m + 1
    cross = xi[lag:].T @ xi[:-lag] / (T - lag)
    bartlett_var = 1 + m * (2 * m + 1) / (3 * (m + 1))
    assert np.abs(cross).max() < 4 * math.sqrt(bartlett_var / T)


def test_innovations_within_window_correlation_present():
    # positive control for the window shape: lag-1 covariance of the
    # windowed innovations is (m/(m+1)) * innovation_cov
    T = 16000
    m = 10
    s = spec_of(d=1, T=T, m=m, cov=np.eye(1), seed=SEED_LAG1)
    xi = gen_innovations(s)[s.K_max :, 0]
    lag1 = float(xi[1:] @ xi[:-1] / (T - 1))
    assert lag1 == pytest.approx(m / (m + 1), abs=0.05)


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=25, deadline=None)
def test_innovations_shape_property(m, seed):
    s = spec_of(d=2, T=30, m=m, seed=seed)
    xi = gen_innovations(s)
    assert xi.shape == (30 + s.K_max, 2)
    assert np.isfinite(xi).all()


# ---------------------------------------------------------------- series


def test_series_rho0_m0_closed_form():
    base = np.array([[2.0, 0.0], [1.0, 1.0]])
    R = exchangeable_cov(2, 0.5)
    s = spec_of(d=2, T=16000, m=0, rho=0.0, base=base, cov=R, seed=SEED_RHO0)
    series, t_star = gen_series(s)
    assert t_star is None
    # exact construction oracle: X = xi @ base' with no filtering, no burn-in
    xi = gen_innovations(s)
    np.testing.assert_allclose(series.values, xi @ base.T, atol=1e-12)
    sample = series.values.T @ series.values / s.T
    truth = base @ R @ base.T
    assert np.linalg.norm(sample - truth) < 0.1 * np.linalg.norm(truth)


def test_series_filter_matches_direct_convolution():
    # brute-force oracle for the linear filter on a small case
    s = spec_of(d=2, T=40, m=2, rho=0.5, seed=5, tol=1e-6)
    series, _ = gen_series(s)
    xi = gen_innovations(s)
    K = s.K_max
    rows = []
    for t in range(1, 41):
        acc = np.zeros(2)
        for k in range(K + 1):
            # xi row index for time t-k is (t-k) - (1-K) = t-k-1+K
            acc += (0.5**k) * xi[t - k - 1 + K]
        rows.append(acc @ s.base.T)
    np.testing.assert_allclose(series.values, np.array(rows), rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("k_max", [0, 1, 40])
@pytest.mark.parametrize("m", [0, 10])
@pytest.mark.parametrize("d", [1, 5])
@pytest.mark.parametrize("shift", [False, True])
def test_series_filter_bit_identical_to_lfilter(k_max, m, d, shift):
    from scipy.signal import lfilter

    rng = np.random.default_rng(k_max + 7 * m + 31 * d)
    base = np.eye(d) + 0.1 * rng.standard_normal((d, d))
    s = SimulationSpec(
        d=d,
        T=700,
        m=m,
        rho=0.5,
        base=base,
        tol={0: 1.5, 1: 1.0, 40: 1e-12}[k_max],
        innovation_cov=exchangeable_cov(d, 0.5),
        delta=np.linspace(0.5, 1.5, d) if shift else None,
        k_star=0.3 if shift else None,
        seed=k_max + m + d,
    )
    assert s.K_max == k_max
    series, t_star = gen_series(s)
    taps = 0.5 ** np.arange(k_max + 1)
    want = lfilter(taps, [1.0], gen_innovations(s), axis=0)[k_max:] @ base.T
    if shift:
        want[t_star:] += s.delta
    assert series.values.shape == want.shape
    assert series.values.tobytes() == want.tobytes()


@pytest.mark.parametrize("rho", [0.0, 0.2, 0.9, 0.99])
@pytest.mark.parametrize("T", [2, 17, 500])
@pytest.mark.parametrize("m", [0, 3])
def test_series_filter_bit_identical_to_full_convolution(rho, T, m):
    # the filter keeps only the T outputs that see K_max presample rows: the
    # rows [K_max, T + K_max) of the full convolution, bit for bit
    s = spec_of(d=2, T=T, m=m, rho=rho, cov=exchangeable_cov(2, 0.3), seed=3)
    xi = gen_innovations(s)
    taps = rho ** np.arange(s.K_max + 1)
    full = np.column_stack([np.convolve(taps, col) for col in xi.T])
    want = full[s.K_max : len(xi)] @ s.base.T
    assert gen_series(s)[0].values.tobytes() == want.tobytes()


def test_series_shift_is_strict_after_tstar():
    # identical seeds, with and without a huge shift: rows must agree up to
    # and including T*, and differ strictly after it
    base_kwargs = dict(d=2, T=101, m=3, seed=13)
    h0, _ = gen_series(spec_of(**base_kwargs))
    ha, t_star = gen_series(
        spec_of(**base_kwargs, delta=np.array([100.0, 100.0]), k_star=0.5)
    )
    assert t_star == 50
    np.testing.assert_array_equal(h0.values[:50], ha.values[:50])
    assert np.all(ha.values[50:] != h0.values[50:])
    np.testing.assert_allclose(ha.values[50:] - h0.values[50:], 100.0, rtol=1e-12)


@given(
    st.integers(min_value=10, max_value=500),
    st.floats(min_value=0.01, max_value=0.99),
)
@settings(max_examples=60, deadline=None)
def test_series_tstar_bookkeeping(T, k_star):
    s = spec_of(d=1, T=T, m=0, rho=0.0, delta=np.array([1.0]), k_star=k_star)
    _, t_star = gen_series(s)
    assert t_star == math.floor(k_star * T)


def test_series_table1_shift_magnitude():
    # the shipped dependent-model defaults: the realized two-half mean gap
    # reproduces the injected shift within 4 long-run standard errors
    delta = np.array([0.5, 0.2])
    s = spec_of(
        d=2,
        T=8000,
        m=10,
        cov=exchangeable_cov(2, 0.5),
        delta=delta,
        k_star=0.5,
        seed=SEED_TABLE1,
    )
    series, t_star = gen_series(s)
    x = series.values
    gap = x[t_star:].mean(axis=0) - x[:t_star].mean(axis=0)
    # 4 * sqrt(LR_jj * 2 / (T/2)), LR estimated from the centered halves
    demeaned = np.vstack([x[:t_star] - x[:t_star].mean(0), x[t_star:] - x[t_star:].mean(0)])
    lr = long_run_covariance(MultivariateSeries(demeaned))
    se = np.sqrt(np.diag(lr.sigma) * 2 / (s.T / 2))
    assert np.all(np.abs(gap - delta) < 4 * se)


def test_series_h0_halves_agree():
    s = spec_of(d=2, T=8000, m=10, cov=exchangeable_cov(2, 0.5), seed=SEED_H0GAP)
    series, t_star = gen_series(s)
    assert t_star is None
    x = series.values
    gap = x[4000:].mean(axis=0) - x[:4000].mean(axis=0)
    lr = long_run_covariance(series)
    se = np.sqrt(np.diag(lr.sigma) * 2 / 4000)
    assert np.all(np.abs(gap) < 4 * se)


def test_series_truncation_soundness():
    s1 = spec_of(d=2, T=500, m=4, rho=0.5, seed=21)
    s2 = spec_of(d=2, T=500, m=4, rho=0.5, seed=21, tol=1e-24)
    assert (s1.K_max, s2.K_max) == (40, 80)
    a, _ = gen_series(s1)
    b, _ = gen_series(s2)
    assert np.abs(a.values - b.values).max() < 1e-9


def test_series_stationarity_coverage_h0():
    # two-half mean agreement within 4 estimated SEs in >= 95 of 100 runs
    hits = 0
    for seed in range(100):
        s = spec_of(d=2, T=2000, m=3, cov=exchangeable_cov(2, 0.5), seed=seed)
        series, _ = gen_series(s)
        x = series.values
        gap = x[1000:].mean(axis=0) - x[:1000].mean(axis=0)
        lr = long_run_covariance(series)
        se = np.sqrt(np.diag(lr.sigma) * 2 / 1000)
        hits += bool(np.all(np.abs(gap) < 4 * se))
    assert hits >= 95
