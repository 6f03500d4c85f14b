"""``text.LineWriter`` writes exactly the bytes of ``'%.17g' % x`` and ``'%d' % i``."""

from decimal import Decimal

import numpy as np
import pytest

from minkruled import text
from minkruled.config import MAX_MESH_POINTS


def formatted(values) -> list[bytes]:
    """One line per value from a ``text.LineWriter``, without its newline."""
    writer = text.LineWriter([b"", b"\n"], [text.FLOAT_WIDTH], len(values))
    return writer.fill([np.asarray(values)]).split(b"\n")[:-1]


def mismatches(values, template="%.17g") -> list:
    """The values whose ``text.LineWriter`` bytes differ from ``template % v``, with both texts."""
    got = formatted(values)
    want = [(template % v).encode() for v in np.asarray(values).tolist()]
    assert len(got) == len(want)
    return [(v, g, w) for v, g, w in zip(np.asarray(values).tolist(), got, want) if g != w]


def random_bits(rng, n):
    return rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)


def every_exponent(rng, per_exponent):
    """Random significands and signs at every biased binary exponent, 0 (subnormal) to 2047 (inf and nan)."""
    exponent = np.repeat(np.arange(2048, dtype=np.uint64), per_exponent)
    significand = rng.integers(0, 2**52, len(exponent), dtype=np.uint64)
    sign = rng.integers(0, 2, len(exponent), dtype=np.uint64)
    return ((sign << np.uint64(63)) | (exponent << np.uint64(52)) | significand).view(np.float64)


def fast_range(rng, n):
    """Random values spread over the binary exponents of fixed notation, 1e-4 <= |x| < 1e15."""
    return rng.choice([-1.0, 1.0], n) * np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(-13, 51, n))


def neighbours(x):
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    return np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])


def exact_ties(rng, per_k):
    """Values whose exact decimal expansion ends in a 5 as its 18th significant digit.

    ``x * 10**k`` is an integer plus one half for ``x = odd / 2**(k + 1)``,
    and it has 17 digits before the point for ``10**(16 - k) <= x < 10**(17 - k)``.
    """
    values = []
    for k in range(1, 16):
        lo = int(10 ** (16 - k)) << (k + 1)
        hi = min(int(10 ** (17 - k)) << (k + 1), 2**53)
        if lo >= hi:
            continue
        odd = rng.integers(lo // 2, hi // 2, per_k) * 2 + 1
        values.append(np.ldexp(odd.astype(np.float64), -(k + 1)))
    values = np.concatenate(values)
    for x in values.tolist():
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    return values


SPECIAL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]


class TestFloats:
    def test_random_bit_patterns(self):
        rng = np.random.default_rng(1)
        assert mismatches(random_bits(rng, 50_000)) == []

    def test_every_binary_exponent(self):
        rng = np.random.default_rng(2)
        assert mismatches(every_exponent(rng, 40)) == []

    def test_fixed_notation_range(self):
        rng = np.random.default_rng(3)
        assert mismatches(fast_range(rng, 100_000)) == []
        assert mismatches(rng.standard_normal(50_000)) == []

    def test_special_values_and_subnormals(self):
        subnormals = np.ldexp(np.arange(1.0, 50.0), -1074)
        assert mismatches(np.concatenate([SPECIAL, subnormals, -subnormals, neighbours(0.0)])) == []

    def test_powers_of_ten_and_their_neighbours(self):
        powers = 10.0 ** np.arange(-12, 18)
        assert mismatches(np.concatenate([neighbours(powers), -neighbours(powers)])) == []

    def test_fixed_notation_edges(self):
        edges = [1e-4, 1e15, 2.0**53, 0.5e-4, 0.99999999999999994e-4, 999999999999999.9, 999999999999999.94]
        assert mismatches(np.concatenate([neighbours(edges), -neighbours(edges)])) == []

    def test_integers_with_trailing_zeros(self):
        rng = np.random.default_rng(4)
        ints = rng.integers(1, 10**15, 20_000).astype(np.float64)
        scaled = np.round(rng.uniform(1.0, 1e6, 20_000)) * 10.0 ** rng.integers(0, 9, 20_000)
        short = np.round(rng.uniform(0, 1e4, 20_000)) / 10.0 ** rng.integers(0, 5, 20_000)
        assert mismatches(np.concatenate([[961594189325660.0, 100.0, 1e14, 120.5], ints, scaled, short])) == []

    def test_exact_ties_round_to_even(self):
        rng = np.random.default_rng(5)
        ties = exact_ties(rng, 200)
        assert mismatches(np.concatenate([ties, -ties, [123456789012345.125, 123456789012345.375]])) == []
        assert formatted([123456789012345.125, 123456789012345.375]) == [b"123456789012345.12", b"123456789012345.38"]

    def test_a_changed_digit_is_caught(self, monkeypatch):
        # one wrong entry of the four-digit table changes one digit of a value whose text holds it
        digits = text._DIGITS.copy()
        digits[2345] = digits[2346]
        monkeypatch.setattr(text, "_DIGITS", digits)
        found = mismatches([0.12345678901234566, 1.5])
        assert found == [(0.12345678901234566, b"0.12346678901234566", b"0.12345678901234566")]


class TestInts:
    def test_every_digit_count_up_to_the_mesh_limit(self):
        powers = 10 ** np.arange(0, 8)
        edges = np.concatenate([[0, 1, 2], powers - 1, powers, powers + 1, [MAX_MESH_POINTS - 1, MAX_MESH_POINTS]])
        assert mismatches(edges, "%d") == []
        assert mismatches(np.arange(0, 20_001), "%d") == []

    def test_outside_the_table_range(self):
        assert text.INT_LIMIT == 10**8
        assert mismatches(np.array([10**8 - 1, 7]), "%d") == []
        for bad in (10**8, 10**8 + 1, 2**62, -1, -(10**12)):
            with pytest.raises(ValueError, match=r"integers are written in \[0, 100000000\)"):
                formatted(np.array([7, bad]))
            with pytest.raises(ValueError, match=r"integers are written in \[0, 100000000\)"):
                text.cells(np.array([bad, 7]))

    def test_bools(self):
        assert formatted(np.array([True, False, True])) == [b"1", b"0", b"1"]


def reference_lines(floats, ints, flags) -> bytes:
    return "".join(
        f"<{'%.17g' % a},{'%d' % i},,{'%.17g' % b} {'%.17g' % c};{'%d' % f}\n"
        for (a, b, c), i, f in zip(floats.tolist(), ints.tolist(), flags.tolist())
    ).encode()


def interleaving_writer(rows):
    widths = [text.FLOAT_WIDTH, len(str(MAX_MESH_POINTS)), text.FLOAT_WIDTH, text.FLOAT_WIDTH, 1]
    return text.LineWriter([b"<", b",", b",,", b" ", b";", b"\n"], widths, rows)


def test_a_writer_interleaves_columns_and_separators():
    rng = np.random.default_rng(6)
    floats = rng.standard_normal((300, 3)) * 10.0 ** rng.integers(-6, 3, (300, 3))
    flags = rng.integers(0, 2, 300).astype(bool)
    ints = rng.integers(0, MAX_MESH_POINTS, 300)
    got = interleaving_writer(300).fill([floats[:, 0], ints, floats[:, 1:], flags])
    assert got == reference_lines(floats, ints, flags)


def test_a_refilled_writer_keeps_no_bytes_of_an_earlier_fill():
    rng = np.random.default_rng(9)
    writer = interleaving_writer(200)
    # a full block of the widest texts: 24-byte floats and 7-digit ints
    floats = -rng.uniform(1.0, 2.0, (200, 3)) * 1e-300
    ints = rng.integers(10**6, MAX_MESH_POINTS, 200)
    flags = np.ones(200, dtype=bool)
    assert writer.fill([floats[:, 0], ints, floats[:, 1:], flags]) == reference_lines(floats, ints, flags)
    # then fewer rows of shorter texts, the %-fallback values among them
    short = np.array([[0.5, 1e-300, np.nan], [-np.inf, 2.0, 0.0], [1e-7, -0.25, 3.0], [12.5, np.inf, -0.0]])
    ints, flags = np.array([7, 42, 0, 123]), np.array([False, True, False, False])
    assert writer.fill([short[:, 0], ints, short[:, 1:], flags]) == reference_lines(short, ints, flags)


def test_a_writer_refuses_what_its_slots_cannot_hold():
    writer = text.LineWriter([b"", b" ", b"\n"], [text.FLOAT_WIDTH, 2], 2)
    for columns in ([np.zeros(3), np.zeros(3, dtype=int)], [np.zeros(2)], [np.zeros((2, 2)), np.zeros(2, dtype=int)]):
        with pytest.raises(ValueError, match="do not fit a writer of 2 lines of 2"):
            writer.fill(columns)
    with pytest.raises(ValueError, match="a cell of 3 bytes does not fit a slot of 2"):
        writer.fill([np.zeros(2), np.array([5, 100])])
    with pytest.raises(ValueError, match="a float cell takes 24 bytes"):
        writer.fill([np.zeros(2), np.zeros(2)])
    with pytest.raises(ValueError, match="separator"):
        text.LineWriter([b"", b"\n"], [1, 1], 2)


def test_cells_keep_the_shape_and_are_as_wide_as_the_widest_text():
    ints = np.array([[9, 10], [99, 100]])
    for values, width in ((ints, 3), (ints + 10**7, 8), (ints - 10, None), (ints * 10**7, None)):
        if width is None:  # a negative value, or 10**8 and above
            with pytest.raises(ValueError, match="integers are written in"):
                text.cells(values)
            continue
        got = text.cells(values)
        assert got.shape == values.shape and got.dtype.itemsize == width
        texts = [bytes(cell).replace(b"\0", b"") for cell in got.ravel()]
        assert texts == [b"%d" % v for v in values.ravel().tolist()]
    assert text.cells(np.array([True, False])).dtype.itemsize == 1
    with pytest.raises(TypeError, match="float64"):  # astype(int64) would truncate them
        text.cells(np.array([0.5, -1e-300]))


def test_a_writer_takes_columns_of_cells():
    ints = np.array([9, 10, 11, 99, 100, 12345678])
    at = text.cells(ints)
    writer = text.LineWriter([b"f ", b" ", b" ", b"\n"], [8, 8, 1], 5)
    got = writer.fill([at[1:], at[:-1], np.arange(5)])
    assert got == b"".join(b"f %d %d %d\n" % row for row in zip(ints[1:].tolist(), ints[:-1].tolist(), range(5)))
    # cells narrower than their slot
    assert writer.fill([text.cells(np.array([10, 20]))] * 2 + [np.arange(2)]) == b"f 10 10 0\nf 20 20 1\n"


@pytest.mark.parametrize("n", [1, text.BLOCK - 1, text.BLOCK, 2 * text.BLOCK + 1])
def test_chunk_boundaries(n):
    # a writer of at most one block, refilled a block at a time as the package's writers are
    rng = np.random.default_rng(n)
    values = fast_range(rng, n)
    values[:: max(1, n // 7)] = 1e-7  # a few exponent-notation values in every block
    writer = text.LineWriter([b"", b"\n"], [text.FLOAT_WIDTH], min(n, text.BLOCK))
    got = b"".join(writer.fill([values[lo : lo + text.BLOCK]]) for lo in range(0, n, text.BLOCK))
    assert got == b"".join(b"%.17g\n" % v for v in values.tolist())


@pytest.mark.parametrize("shift", [2.0, -1.0], ids=["two-over", "one-under"])
def test_an_exponent_estimate_off_is_redone_or_takes_the_fallback(monkeypatch, shift):
    # log10 is within an ulp, so its floor is at most one off and one redo
    # fixes it; values it leaves off are formatted by % itself
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    rng = np.random.default_rng(7)
    powers = 10.0 ** np.arange(-4, 15)
    assert mismatches(np.concatenate([fast_range(rng, 1000), powers, -powers, [0.0, -0.0]])) == []
