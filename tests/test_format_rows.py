"""The number kernel of the CSV writers, `series._format_rows`, against its
reference `_format_rows_percent`, which formats each value with CPython's
``'%.17g'``: the text must be byte-equal on values chosen where a
vectorised digit generator would go wrong first."""

import numpy as np
import pytest

from mvcusum.series import (_format_rows, _format_rows_percent,
                            _format_tables, _times_power)
from test_csv_writers import SPECIAL


def _random_bits(rng, n):
    bits = rng.integers(0, 2**64, size=n, dtype=np.uint64)
    # every binary exponent, subnormals (exponent field 0) included, 8 times
    field = np.repeat(np.arange(2047, dtype=np.uint64), 8)
    mantissa = rng.integers(0, 2**52, size=len(field), dtype=np.uint64)
    sign = rng.integers(0, 2, size=len(field), dtype=np.uint64)
    every = (sign << np.uint64(63)) | (field << np.uint64(52)) | mantissa
    return np.concatenate([bits, every]).view(np.float64)


def _powers_of_ten():
    p = np.array([float(f"1e{k}") for k in range(-300, 300)])
    return np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])


def _ties(rng):
    """Values whose 17-digit rounding is an exact tie: x * 10**k = D + 1/2
    with D of 17 digits holds for x = j / 2**(k+1), j odd and j * 5**k / 2
    in [1e16, 1e17). That has solutions for k = 1..24, and 10**k is no
    double for k = 23 and 24."""
    out = []
    for k in range(1, 25):
        lo, hi = -(-2 * 10**16 // 5**k), min(2 * 10**17 // 5**k, 2**53)
        j = rng.integers(lo // 2, (hi + 1) // 2, size=200) * 2 + 1
        out.append(j[(j >= lo) & (j < hi)] / 2.0 ** (k + 1))
    return np.concatenate(out)


def _near_ties():
    """Values within 2**-46 of a 17-digit tie where 10**k is no double
    (k = 23, 24): y = x * 10**k = m * 5**k / 2**s with the odd residue
    m * 5**k = 2**(s-1) + delta (mod 2**s), |delta| < 16, for each s that
    puts y in [1e16, 1e17). The product's error can reach about 1e-14, so
    only the undecided band rounds these right."""
    out = []
    for k in (23, 24):
        for s in (50, 51, 52):
            inv = pow(5**k, -1, 2**s)
            for delta in range(-15, 16, 2):
                m0 = (2 ** (s - 1) + delta) * inv % 2**s
                for m in range(m0, 2**53, 2**s):
                    if m >= 2**52 and 10**16 <= m * 5**k // 2**s < 10**17:
                        out.append(m / 2.0 ** (s + k))
    return np.array(out)


def _quarters(rng):
    # m / 4 for odd m in [8e15, 1.8e16]: ties where m / 4 is a double
    return (rng.integers(4 * 10**15, 9 * 10**15, size=2000) * 2 + 1) / 4.0


def _integers(rng):
    return np.concatenate([
        rng.integers(0, 2**63, size=20_000).astype(np.float64),
        np.arange(10_001, dtype=np.float64),
        2.0 ** np.arange(64),
    ])


def _short_decimals(rng):
    # 1-17 significant digits at decimal exponents around both ends of the
    # fixed notation (-4 <= X < 17), so every count of trailing zeros shows
    digits = rng.integers(1, 18, size=20_000)
    mant = [int(rng.integers(10 ** (n - 1), 10**n)) for n in digits]
    exps = rng.integers(-30, 30, size=len(mant))
    return np.array([float(f"{m}e{e}") for m, e in zip(mant, exps)])


FAMILIES = ["random_bits", "powers_of_ten", "ties", "near_ties", "quarters",
            "integers", "short_decimals", "special"]


def _family(name, rng, bits=100_000):
    """The finite values of one family, each with its negation."""
    values = {
        "random_bits": lambda: _random_bits(rng, bits),
        "powers_of_ten": _powers_of_ten,
        "ties": lambda: _ties(rng),
        "near_ties": _near_ties,
        "quarters": lambda: _quarters(rng),
        "integers": lambda: _integers(rng),
        "short_decimals": lambda: _short_decimals(rng),
        "special": lambda: np.array([0.0, -0.0] + SPECIAL),
    }[name]()
    values = values[np.isfinite(values)]
    return np.concatenate([values, -values])


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("width", [1, 3])
def test_kernel_text_equals_percent_g17(family, width):
    values = _family(family, np.random.default_rng(2024))
    chunk = values[: len(values) // width * width].reshape(-1, width)
    _assert_same_text(chunk)


@pytest.mark.parametrize("family", FAMILIES)
def test_small_chunks_text_equals_percent_g17(family):
    # the CSV writers hand the kernel chunks of every size, one value too
    rng = np.random.default_rng(2025)
    values = np.resize(rng.permutation(_family(family, rng, bits=1000)), 144)
    for rows, width in ((1, 1), (1, 9), (16, 3)):
        for chunk in values.reshape(-1, rows, width):
            _assert_same_text(chunk)


def _assert_same_text(chunk):
    got, want = _format_rows(chunk), _format_rows_percent(chunk)
    if got != want:  # name the first rows that differ, not a diff of MBs
        bad = [(i, g, w) for i, (g, w) in
               enumerate(zip(got.split("\r\n"), want.split("\r\n"))) if g != w]
        pytest.fail(f"{len(bad)} rows differ (row, kernel, %.17g): {bad[:3]}")


def test_tie_family_holds_exact_ties():
    # so the test above checks round-half-even, not only easy cases
    from fractions import Fraction

    ties = _ties(np.random.default_rng(1))
    assert len(ties) > 2000
    for x in ties[::10]:
        assert any(y.denominator == 2 and 10**16 <= y < 10**17
                   for y in (Fraction(x) * 10**k for k in range(1, 25))), x
    near = _near_ties()
    assert len(near) > 100
    for x in near:
        y = Fraction(x) * 10 ** (16 - int(np.floor(np.log10(x))))
        assert 10**16 <= y < 10**17
        assert 0 < abs(y - y.numerator // y.denominator - Fraction(1, 2)) <= 2.0**-46


def test_product_error_is_far_inside_the_undecided_band():
    # the kernel leaves a value to '%.16e' when its product's rest lies
    # within 1e-9 of a half; that is safe while the product's error is far
    # smaller, which this checks against exact rationals over every power
    from fractions import Fraction

    rng = np.random.default_rng(7)
    a = 10.0 ** rng.uniform(-275, 290, size=3000)
    k = 16 - np.floor(np.log10(a)).astype(np.intp)
    p, t = _times_power(a, k, _format_tables()["powers"])
    worst = max(abs(Fraction(ai) * Fraction(10) ** int(ki) - int(pi) - Fraction(ti))
                for ai, ki, pi, ti in zip(a, k, p, t))
    assert worst < 1e-13


def test_chunk_with_nan_or_inf_takes_the_reference():
    x = np.random.default_rng(3).normal(size=(40, 3))
    x[5] = SPECIAL[-3:]
    x[6:10] = np.reshape(SPECIAL, (4, 3))
    _assert_same_text(x[:20])
    _assert_same_text(x[20:])
