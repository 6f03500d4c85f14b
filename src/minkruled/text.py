"""Exact ``%.17g`` and ``%d`` text of numpy blocks, formatted a whole array at a time.

A ``LineWriter`` is made once per output file, for lines of ``seps[0]``
followed by each cell and its separator.  It holds a line buffer for one
block of rows, with every separator written once, and the slots floats
are formatted in; each ``fill(columns)`` writes one block's cells into the
buffer and returns its lines.  A float cell reads exactly as
``'%.17g' % x`` and an integer or bool cell exactly as ``'%d' % i``; the
writers of the OBJ mesh and the sample CSV build every line through it.
``cells(values)`` formats integers or bools once, for a caller that puts
the same cell on several lines.

Each value is formatted into a fixed slot of bytes padded with NULs, and
the NULs are dropped once per block, by one ``bytearray.translate`` of the
line buffer.  A float takes the fast path when
``1e-4 <= |x| < 1e15`` or ``x == 0``, where ``%g`` writes fixed notation:
``x * 10**k`` for ``k = 16 - floor(log10|x|)`` (an exact power of ten,
at most ``10**22``) is formed exactly as ``p + e`` by Dekker's product,
and its nearest integer, ties to even, is the 17-digit significand.  Its
digits come from a table of four-digit groups, the decimal point is a zero
digit put in by arithmetic, and one row of a pattern table, chosen by the
decimal exponent, the last nonzero digit and the sign, writes the point
and the sign and clears the bytes outside the text.  Every other float
(exponent notation, ``nan``, ``inf``) and every integer outside
``[0, 10**8)`` is formatted by ``%`` itself, one ``%`` per chunk of such
values.
"""

from __future__ import annotations

import numpy as np

#: Bytes per value: the widest ``%.17g`` text is ``-2.2250738585072014e-308``.
_SLOT = 24
#: The slot of a float cell in a ``LineWriter`` line.
FLOAT_WIDTH = _SLOT

#: The fast path's range: ``%g`` writes fixed notation from decimal exponent
#: -4 on, and below ``1e15`` the exponent is at most 14, so ``x * 10**(16 - exp)``
#: takes an exact power of ten.  No value in it rounds up to the next exponent.
_LOW, _HIGH = 1e-4, 1e15

#: Floats formatted per pass of the arithmetic; bounds its temporaries.
_CHUNK = 4096

_POW10 = 10.0 ** np.arange(23)  # exact doubles
_POW10_INT = 10 ** np.arange(19, dtype=np.int64)


def _split(a):
    """Veltkamp's split of doubles into halves of 26 significant bits: ``a == hi + lo``."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)

#: ``_DIGITS[g]``: the four ASCII digits of ``0 <= g < 10**4``, most significant first in memory.
_g = np.arange(10_000, dtype=np.int32)
_digits = np.stack([_g // 1000, _g // 100 % 10, _g // 10 % 10, _g % 10], axis=1).astype(np.uint8) + ord("0")
_DIGITS = _digits.view(np.uint32).ravel()
#: Trailing zero digits of the four-digit text of ``g`` (4 for 0).
_TRAILING = sum((_g % 10**t == 0).astype(np.int8) for t in (1, 2, 3, 4))
#: ``_INT_TEXT[g]``: the four digits of ``g``, and at ``10**4 + g`` its ``%d`` text
#: right-aligned after NULs; the last entry is four NULs.
_width = 1 + (_g >= 10) + (_g >= 100) + (_g >= 1000)
_unpadded = np.where(np.arange(4) >= 4 - _width[:, None], _digits, 0).astype(np.uint8)
_INT_TEXT = np.concatenate([_DIGITS, _unpadded.view(np.uint32).ravel(), np.zeros(1, dtype=np.uint32)])

# A fast-path float's slot holds "0000", then the 18 digits of q' as five
# four-digit groups (bytes 4-23, the first group below 100).  q' is the
# 17-digit significand with a zero digit inserted after the integer part
# (decimal exponent X >= 0) or in front (X < 0), so digit r of q' is slot
# byte 6 + r.  With `last` the index of the last nonzero digit of q', the
# text is "-" if negative, then for X >= 0 digits 0 to max(last, X) with the
# inserted zero made ".", and for X < 0 bytes 6 + X to 6 + last, which read
# "0.", -X - 1 zeros and the significand, all but the "." made of leading
# zeros.  The patterns of class (X, last, sign) subtract 2 ("0" to ".") at
# the point and 3 ("0" to "-") at the sign, and keep only the text's bytes.
_X = np.arange(-4, 15)[:, None, None, None]
_LAST = np.arange(18)[None, :, None, None]
_NEG = np.arange(2)[None, None, :, None]
_pos = np.arange(_SLOT)[None, None, None, :]
_start = 6 + np.minimum(_X, 0) - _NEG
_end = 7 + np.where(_X < 0, _LAST, np.maximum(_LAST, _X))
_sub = 2 * (_pos == 7 + _X) + 3 * (_NEG * (_pos == _start))
_keep = (_start <= _pos) & (_pos < _end)
_SUB, _KEEP = (
    np.broadcast_to(v, _keep.shape).astype(np.uint8).reshape(-1, _SLOT).view(np.uint64) for v in (_sub, 255 * _keep)
)
del _g, _digits, _width, _unpadded, _X, _LAST, _NEG, _pos, _start, _end, _sub, _keep


def _fallback(slots: np.ndarray, rows: np.ndarray, values, conversion: str) -> None:
    """Write ``'%' + conversion`` of each of ``values`` into the slots of ``rows``.

    One ``%`` pads every text with spaces to the slot width; neither
    ``%.17g`` nor ``%d`` writes a space, so the padding becomes the NULs.
    """
    text = (f"%-{slots.shape[1]}{conversion}" * len(rows)) % tuple(values.tolist())
    slots[rows] = np.frombuffer(text.encode("ascii").replace(b" ", b"\0"), dtype=np.uint8).reshape(len(rows), -1)


def _significand(a: np.ndarray, exp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17-digit significand of each ``a > 0`` at decimal exponent ``exp``, and where ``exp`` is off.

    Rounds the exact ``a * 10**(16 - exp)`` to an integer, ties to even;
    ``exp`` is off where that falls outside ``[10**16, 10**17)``.  No value
    of the fast range rounds across either bound: the doubles just below a
    power of ten lie at least 0.8 units of the 17th digit below it.
    """
    k = 16 - exp
    b, b_hi, b_lo = _POW10.take(k), _POW10_HI.take(k), _POW10_LO.take(k)
    a_hi, a_lo = _split(a)
    p = a * b
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo  # a * b == p + e exactly
    # where exp is right, p >= 2**53 is an even integer: p + e rounds as e does
    q = p.astype(np.int64) + np.rint(e).astype(np.int64)
    return q, (q < 10**16) | (q >= 10**17)


def _float_chunk(x: np.ndarray, slots: np.ndarray) -> None:
    """Fill ``slots`` with the text of ``x``, at most ``_CHUNK`` values."""
    a = np.abs(x)
    fast = ((a >= _LOW) & (a < _HIGH)) | (a == 0)
    a[~fast | (a == 0)] = 1.0
    exp = np.floor(np.log10(a)).astype(np.int64)
    q, off = _significand(a, exp)
    rows = np.flatnonzero(off)  # log10 may put exp one off next to a power of ten
    if len(rows):
        exp[rows] += np.where(q[rows] < 10**16, -1, 1)
        q[rows], off[rows] = _significand(a[rows], exp[rows])
        rows = rows[off[rows]]  # none where log10 is within an ulp; left to the fallback
        fast[rows], q[rows], exp[rows] = False, 10**16, 0
    q[x == 0] = 0  # "0", with exp 0 from a = 1
    # the zero digit after the integer part: q' = q + 9 * 10**t * (q // 10**t)
    scale = _POW10_INT.take(np.minimum(16 - exp, 17))
    q += 9 * scale * (q // scale)
    # the five four-digit groups of q', the first below 100, after the slot's "0000"
    high = q // 10**8
    low = q - high * 10**8
    g0 = high // 10**8
    mid = high - g0 * 10**8
    g1 = mid // 10**4
    g3 = low // 10**4
    groups = (g0, g1, mid - g1 * 10**4, g3, low - g3 * 10**4)
    words = slots.view(np.uint32)
    words[:, 0] = _DIGITS[0]
    for c, g in enumerate(groups, 1):
        words[:, c] = _DIGITS.take(g)
    trailing = _TRAILING.take(groups[4])
    rows = np.flatnonzero(groups[4] == 0)  # few, unless the values are short decimals
    if len(rows):
        zeros = np.ones(len(rows), dtype=bool)
        for g in groups[3::-1]:
            g = g.take(rows)
            trailing[rows] += zeros * _TRAILING.take(g)
            zeros &= g == 0
    last = np.maximum(17 - trailing, 0)
    cls = exp * 36 + last * 2 + np.signbit(x) + 144
    lanes = slots.view(np.uint64)
    lanes -= _SUB.take(cls, axis=0)
    lanes &= _KEEP.take(cls, axis=0)
    rows = np.flatnonzero(~fast)
    if len(rows):
        _fallback(slots, rows, x[rows], ".17g")


def _ints(i: np.ndarray) -> np.ndarray:
    """``(len(i), width)`` uint8 slots holding ``'%d' % v`` of each value, right-aligned after NULs.

    ``width`` is the digit count of the largest value, or ``_SLOT`` when a
    value is outside ``[0, 10**8)``, whose text is then left-aligned.
    """
    i = np.asarray(i).astype(np.int64)
    fast = (i >= 0) & (i < 10**8)
    v = np.where(fast, i, 0)
    high = v // 10**4
    low = v - high * 10**4
    words = np.empty((len(i), 2), dtype=np.uint32)
    # below 10**4 the high word is NULs and the low word unpadded
    words[:, 0] = _INT_TEXT.take(np.where(high > 0, high + 10**4, 2 * 10**4))
    words[:, 1] = _INT_TEXT.take(low + 10**4 * (high == 0))
    slots = words.view(np.uint8)
    rows = np.flatnonzero(~fast)
    if len(rows):
        slots = np.concatenate([slots, np.zeros((len(i), _SLOT - 8), dtype=np.uint8)], axis=1)
        _fallback(slots, rows, i[rows], "d")
        return slots
    return slots[:, 8 - len(str(int(v.max(initial=0)))) :]


def cells(values) -> np.ndarray:
    """Each integer's or bool's text as one cell: an array of ``values``' shape whose items are NUL-padded bytes.

    Once its NULs are dropped, a cell reads ``'%d' % i``.  The items have a
    ``V`` dtype as wide as the digit count of the largest value, or
    ``_SLOT`` when a value is outside ``[0, 10**8)``.  Any other dtype is a
    TypeError; floats are formatted by a ``LineWriter``.
    """
    values = np.asarray(values)
    if values.dtype.kind not in "biu":
        raise TypeError(f"cells formats integers and bools, not {values.dtype}")
    slots = _ints(values.ravel())
    return slots.view(f"V{slots.shape[1]}").reshape(values.shape)


class LineWriter:
    """Text lines of cells, formatted a block of rows at a time into buffers made once.

    Each line is ``seps[0]``, then each cell's text followed by the next
    separator (bytes without NULs).  ``widths[c]`` is the slot of cell
    ``c`` in bytes: ``FLOAT_WIDTH`` for a float, and for an integer or
    bool at least the digit count of its largest value, or ``FLOAT_WIDTH``
    when a value may be outside ``[0, 10**8)``.  The line buffer holds
    ``rows`` lines with every separator written once; ``fill`` writes only
    the cells.
    """

    def __init__(self, seps, widths, rows: int):
        if len(seps) != len(widths) + 1:
            raise ValueError("a line writer takes one separator more than it has cells")
        self._rows = rows
        self._width = sum(map(len, seps)) + sum(widths)
        self._buf = bytearray(rows * self._width)
        self._lines = np.frombuffer(self._buf, dtype=np.uint8).reshape(rows, self._width)
        self._cells = []  # (first byte, width) of each cell's slot in a line
        at = 0
        for sep, width in zip(seps, [*widths, 0]):
            self._lines[:, at : at + len(sep)] = np.frombuffer(sep, dtype=np.uint8)
            self._cells.append((at + len(sep), width))
            at += len(sep) + width
        self._cells.pop()
        self._slots = np.empty((min(rows, _CHUNK), _SLOT), dtype=np.uint8)

    def fill(self, columns) -> bytearray:
        """The text of one block of lines, each row of ``columns`` giving one line's cells.

        A column is a 1-d array of one value per line or a 2-d array of
        several, of numbers or of ``cells``; floats are written as
        ``%.17g``, integers and bools as ``%d``.  The columns hold at most
        ``rows`` rows and exactly ``len(widths)`` cells per row.  The cells
        go into the line buffer, and its first ``n`` lines come back as a
        new ``bytearray`` with the NULs of the slots dropped.
        """
        columns = [np.asarray(column) for column in columns]
        n = len(columns[0])
        cells = [values for column in columns for values in column.reshape(n, -1).T]
        if n > self._rows or len(cells) != len(self._cells):
            raise ValueError(
                f"{n} lines of {len(cells)} cells do not fit a writer of {self._rows} lines of {len(self._cells)}"
            )
        for values, (at, width) in zip(cells, self._cells):
            self._place(values, self._lines[:n, at : at + width])
        return (self._buf if n == self._rows else self._buf[: n * self._width]).translate(None, b"\0")

    def _place(self, values: np.ndarray, out: np.ndarray) -> None:
        """Write the text of ``values`` into ``out``, one row of slot bytes per value."""
        if values.dtype.kind == "f":
            if out.shape[1] != _SLOT:
                raise ValueError(f"a float cell takes {_SLOT} bytes, not {out.shape[1]}")
            for lo in range(0, len(values), _CHUNK):
                slots = self._slots[: len(values) - lo]
                _float_chunk(values[lo : lo + _CHUNK], slots)
                out[lo : lo + len(slots)] = slots
            return
        if values.dtype.kind != "V":
            values = _ints(values)
            values = values.view(f"V{values.shape[1]}")[:, 0]
        pad = out.shape[1] - values.itemsize
        if pad < 0:
            raise ValueError(f"a cell of {values.itemsize} bytes does not fit a slot of {out.shape[1]}")
        out[:, :pad] = 0
        out[:, pad:].view(values.dtype)[:, 0] = values
