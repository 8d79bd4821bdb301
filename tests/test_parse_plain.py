"""The plain-number CSV reader, `series._parse_plain`, against ``float``:
every cell it reads must come out with the bits that ``float`` gives it, on
strings chosen where a vectorised decimal reader would go wrong first, and
the cells next to a rounding midpoint must be the ones it hands to
``float`` (`series._float_cells`)."""

import random
import struct
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from mvcusum import series
from mvcusum.series import load_csv

SEED = 20261019


def _parse(cells, monkeypatch=None, width=1):
    """The values `_parse_plain` reads from ``cells`` laid out ``width`` to a
    line, and the cells it handed to ``float``."""
    handed = []
    if monkeypatch is not None:
        exact = series._float_cells

        def recorded(data, start, end):
            handed.extend(data[s:e].decode() for s, e in zip(start, end))
            return exact(data, start, end)

        monkeypatch.setattr(series, "_float_cells", recorded)
    lines = [",".join(cells[i:i + width]) for i in range(0, len(cells), width)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = series._parse_plain(("\n".join(lines) + "\n").encode(),
                                     width, list(range(width)))
    assert values is not None
    return values.ravel(), handed


def _assert_float_bits(cells, values):
    expect = np.array([float(c) for c in cells])
    bad = np.flatnonzero(values.view(np.uint64) != expect.view(np.uint64))
    assert not len(bad), [(cells[i], values[i], expect[i]) for i in bad[:5]]


def _signed(rng, cells):
    return [c if c[:1] in "+-" else rng.choice(("", "-", "+")) + c
            for c in cells]


def _random_bits(rng):
    out = []
    while len(out) < 20_000:
        x = struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]
        if np.isfinite(x):
            out.append("%.17g" % x)
    return out


def _reprs(rng):
    return [repr(rng.uniform(-1, 1) * 10.0 ** rng.randint(-40, 40))
            for _ in range(10_000)]


def _g_formats(rng):
    out = []
    while len(out) < 20_000:
        s = "%.*g" % (rng.randint(1, 19),
                      rng.random() * 10.0 ** rng.randint(-300, 299))
        if len(s) <= 23:
            out.append(s)
    return out


def _midpoints(rng):
    """The midpoints between random doubles and their neighbours above and
    below, rounded to 17, 18 and 19 significant digits."""
    out = []
    with localcontext() as ctx:
        ctx.prec = 40
        for _ in range(3_000):
            x = abs(struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0])
            if not 1e-280 < x < 1e280:
                continue
            for y in (np.nextafter(x, np.inf), np.nextafter(x, 0)):
                m = (Fraction(x) + Fraction(float(y))) / 2
                m = Decimal(m.numerator) / Decimal(m.denominator)
                out += [format(m, f".{n - 1}e") for n in (17, 18, 19)]
    return out


def _exact_midpoints():
    """Strings of at most 19 digits whose value lies exactly halfway between
    two doubles: halfway between neighbours in [2**e, 2**(e+1)), which is
    an integer from e = 53 up and has 1-3 decimals for e = 50-52;
    2**j * 10**23; and, below the powers of two 2**(53 + j), where the gap
    below is half the gap above, (2**54 - 1) * 2**(j - 1)."""
    mids = [2**e + Fraction(2 * q + 1, 2) * Fraction(2) ** (e - 52)
            for e in range(50, 63) for q in (0, 1, 12345, 2**52 - 1)]
    mids += [Fraction(2**54 - 1, 2**i) for i in (1, 2, 3)]
    mids += [(2**54 - 1) * 2**j for j in range(10)]
    out = [str(Decimal(m.numerator) / Decimal(m.denominator)) for m in mids]
    out += [f"{2**j}e23" for j in range(0, 61, 4)]
    assert all(len(s.split("e")[0].replace(".", "")) <= 19 for s in out)
    return out


def _near_midpoints():
    """Strings D * 10**k, k = 22..24, 2**-38 to 2**-33 of an ulp away from
    a midpoint: D * 5**k = 2**s * odd + delta for a small delta, solved for
    D modulo 2**(s+1) as in `test_format_rows`, with the odd factor of 54
    bits."""
    out = []
    for k in (22, 23, 24):
        five = 5**k
        for s in range(44, 62):
            period = 2 ** (s + 1)
            for delta in (2 ** (s - 37) + 3, -(2 ** (s - 34)) - 1, 2 ** (s - 32) - 5):
                first = (2**s + delta) * pow(five, -1, period) % period
                lo = -(-(2 ** (s + 53) + delta) // five)
                hi = min((2 ** (s + 54) + delta) // five, 10**19)
                for D in range(lo + (first - lo) % period, hi, period):
                    out.append(f"{D}e{k}")
    return out


def _integers(rng):
    return [str(rng.randrange(10 ** rng.randint(1, 18))) for _ in range(10_000)]


def _fixed(rng):
    return ["%.3f" % (rng.uniform(-1, 1) * 10.0 ** rng.randint(-4, 15))
            for _ in range(5_000)]


HAND = ["0", "-0", "+0", "0.0", "-0.0", "-0e-999", "0e99999", "+1", "-1",
        ".5", "-.5", "+.5", "5.", "-5.", "+5.", "1E+05", "1e-05", "1E5",
        "1e0000", "00012", "007.500", "9.9e+265", "7.2e-35", "1e-320",
        "4.9406564584124654e-324", "2.2250738585072014e-308",
        "1.7976931348623157e308", "1e300", "9.99999999999999999e299",
        "1e-290", "1e-280", "1e-281", "0.00012345678901234567",
        "123456789012345678901234", "18446744073709551616.5",
        "18446744073709551615", "99999999999999999999999",
        "-1.2345678901234567e-100", "1e23", "8.98846567431158e307"]


def _widths():
    """A field of every length from 1 to 24 bytes, of digits, a point and
    an exponent."""
    out = []
    for n in range(1, 25):
        out.append("7" * n)
        if n >= 2:
            out += ["1." + "3" * (n - 2), "." + "9" * (n - 1)]
        if n >= 4:
            out += ["6" * (n - 3) + "e-7", "4." + "1" * (n - 4) + "E9"]
    return out


def _powers_of_ten():
    out = []
    for k in range(-300, 300):
        p = float(f"1e{k}")
        out += [f"1e{k}", repr(np.nextafter(p, 0)), repr(np.nextafter(p, np.inf))]
    return out


FAMILIES = ["random_bits", "reprs", "g_formats", "midpoints", "integers",
            "fixed", "hand", "widths", "powers_of_ten", "exact_midpoints",
            "near_midpoints"]


@pytest.mark.parametrize("family", FAMILIES)
def test_values_are_floats_bits(family):
    rng = random.Random(f"{SEED}-{family}")
    cells = {
        "random_bits": lambda: _random_bits(rng),
        "reprs": lambda: _reprs(rng),
        "g_formats": lambda: _g_formats(rng),
        "midpoints": lambda: _midpoints(rng),
        "integers": lambda: _integers(rng),
        "fixed": lambda: _fixed(rng),
        "hand": lambda: HAND,
        "widths": _widths,
        "powers_of_ten": _powers_of_ten,
        "exact_midpoints": _exact_midpoints,
        "near_midpoints": _near_midpoints,
    }[family]()
    cells = [c for c in _signed(rng, cells) if len(c) <= 24]
    assert len(cells) > 30
    for width in (1, 3):
        cut = len(cells) - len(cells) % width
        values, _ = _parse(cells[:cut], width=width)
        _assert_float_bits(cells[:cut], values)


def test_cells_next_to_a_midpoint_take_float(monkeypatch):
    exact, near = _exact_midpoints(), _near_midpoints()
    assert len(exact) >= 30 and len(near) >= 30
    # the families are what they claim: on a midpoint, or just off one
    for s in exact + near:
        x = Fraction(s)
        lo = float(x)
        hi = float(np.nextafter(lo, np.inf if Fraction(lo) < x else 0))
        gap = abs(Fraction(hi) - Fraction(lo))
        off = abs(x - (Fraction(lo) + Fraction(hi)) / 2) / gap
        assert off < Fraction(1, 2**31), s
        assert (off == 0) == (s in exact), s
    cells = exact + near
    values, handed = _parse(cells, monkeypatch)
    _assert_float_bits(cells, values)
    assert sorted(handed) == sorted(cells)


def test_most_cells_do_not_take_float(monkeypatch):
    rng = random.Random(SEED)
    cells = _random_bits(rng)
    values, handed = _parse(cells, monkeypatch)
    _assert_float_bits(cells, values)
    assert len(handed) < 0.25 * len(cells)


@pytest.mark.parametrize("cell", [
    "nan", "inf", "-inf", "1_000", " 1", "1 ", "#1", "١", "１", "1e", "e5",
    ".", "+", "-", "", "1.2.3", "1e5e5", "1e5.3", "--1", "+-1", "0x10",
    "1d5", "1e+", "1.e", "1,5", "1" * 25, "-" + "1" * 24, "1\x00"])
def test_cells_outside_the_grammar_refuse_the_chunk(cell):
    data = f"1,2\n{cell},3\n".encode()
    assert series._parse_plain(data, 2, [0, 1]) is None


@pytest.mark.parametrize("text", [
    'a,b\n1,2\n"3",4\n',  # a quote anywhere
    "a,b\n1,2\n\n3,4\n",  # a blank line
    "a,b\n1,2\n3\n",  # a short line
    "a,b\n1,2,3\n4,5\n",  # a long line
    "a,b\n1,2\r3,4\n",  # a CR that ends no line
])
def test_lines_outside_the_grammar_refuse_the_chunk(text):
    data = text.split("\n", 1)[1].encode()
    assert series._parse_plain(data, 2, [0, 1]) is None


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("last", [True, False])
def test_layouts_read_without_numpy(tmp_path, monkeypatch, width, newline,
                                    last):
    def refuse(*args, **kwargs):
        raise AssertionError("np.loadtxt called on a plain file")

    monkeypatch.setattr(np, "loadtxt", refuse)
    monkeypatch.setattr(series, "_PLAIN_CHUNK", 4096)  # many chunks
    rng = random.Random(f"{SEED}-{width}-{newline}-{last}")
    rows = [_signed(rng, ["%.17g" % rng.gauss(0, 1), repr(rng.random()),
                          str(rng.randrange(10**6))])[:width]
            for _ in range(1_500)]
    text = newline.join(",".join(r) for r in [[f"c{j}" for j in range(width)]] + rows)
    path = tmp_path / "in.csv"
    path.write_bytes((text + (newline if last else "")).encode())
    values = load_csv(path).values
    assert values.shape == (len(rows), width)
    _assert_float_bits(sum(rows, []), values.ravel())


def test_more_rows_than_the_first_chunk_foretells(tmp_path, monkeypatch):
    monkeypatch.setattr(series, "_PLAIN_CHUNK", 4096)
    rng = random.Random(SEED)
    cells = ["%.17g" % rng.gauss(0, 1) for _ in range(200)]
    cells += [str(rng.randrange(10)) for _ in range(5_000)]
    (tmp_path / "in.csv").write_text("x\n" + "\n".join(cells) + "\n")
    values = load_csv(tmp_path / "in.csv").values
    _assert_float_bits(cells, values.ravel())
