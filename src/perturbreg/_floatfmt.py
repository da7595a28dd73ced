"""Text of float64 arrays, byte for byte what ``repr(float(x))`` prints.

Python's ``repr`` gives the shortest decimal that reads back as the same
double, the one closest to it when several are that short. Called once per
value it costs about a microsecond, most of a CSV write. This module finds
the same digits for whole arrays in numpy ``uint64`` arithmetic with the
Schubfach algorithm (R. Giulietti, "The Schubfach way to render doubles",
2020): each normal value's shortest-closest decimal significand comes from
its interval of round-trip decimals, scaled by one 126-bit power of ten and
rounded to odd. The 64x64-bit products are built from 32-bit limbs.

``cells(columns)`` lays each value out as ``repr`` does, in a NUL-padded
cell of ``WIDTH`` bytes: fixed notation for ``-4 < decpt <= 16`` (``decpt``
digits stand before the point), exponent notation otherwise, ``.0`` on
integral values, an exponent of at least two digits, a leading ``-`` also
on ``-0.0``. Zeros, subnormals, NaN and infinities are rare: those elements
alone take ``repr``, and their text is copied into their cells. Dropping
the NULs leaves the text.

numpy 1.x promotes ``uint64`` with a signed integer to ``float64``, so every
constant below has the dtype of the array it meets. The tables are built on
first use, and only the rows a call needs, so importing the module costs
nothing.
"""

from __future__ import annotations

import numpy as np

# One cell: sign | "0." and up to three zeros | 17 digits with a point among
# them | "e", exponent sign, three exponent digits.
_SIGN, _LEAD, _BODY, _EXP = 0, 1, 6, 24
WIDTH = 29

# Values per pass of the integer kernel: one block of a ``differentiate``
# CSV (4096 rows of three columns) is one pass. The temporaries take about
# 150 bytes a value, so a full pass peaks near 2.4 MB.
_CHUNK = 16384
_DIGITS = 17
_K_MIN, _K_MAX = -324, 292  # decimal scales of the normal doubles

_U = np.uint64
_I = np.int32
_M32 = _U(0xFFFF_FFFF)
_LOW63 = _U((1 << 63) - 1)
_FRACTION = _U((1 << 52) - 1)
_HIDDEN = _U(1 << 52)
_ONE = np.float64(1.0).view(np.uint64)
_ZERO, _POINT, _MINUS, _PLUS = (np.uint8(ord(c)) for c in "0.-+")

# 10**-k = g * 2**r with 2**125 <= g < 2**126, g rounded up, kept as
# g = g1 * 2**63 + g0 in the rows g0, g1; column k - _K_MIN is filled on
# first use.
_G = np.zeros((2, _K_MAX - _K_MIN + 1), np.uint64)
_G_BUILT = np.zeros(_K_MAX - _K_MIN + 1, bool)
# The four ASCII digits of 0..9999 as one uint32 each, and their trailing
# zeros (four for 0); built on first use.
_QUAD_TABLES: tuple[np.ndarray, np.ndarray] | None = None


def _floor_log2_pow10(e):
    return (e * _I(1741647)) >> _I(19)


def _powers(k: np.ndarray) -> np.ndarray:
    """g0 and g1 of 10**-k for each scale ``k``, as the rows of a (2, N) array."""
    column = (k - _I(_K_MIN)).astype(np.intp)
    if not _G_BUILT[column].all():
        needed = np.zeros_like(_G_BUILT)
        needed[column] = True
        for i in np.flatnonzero(needed & ~_G_BUILT).tolist():
            e = _K_MIN + i
            r = int(_floor_log2_pow10(_I(-e))) - 125
            g = (10 ** max(-e, 0) << max(-r, 0)) // (10 ** max(e, 0) << max(r, 0)) + 1
            _G[::-1, i] = divmod(g, 1 << 63)
            _G_BUILT[i] = True
    return np.take(_G, column, axis=1)


def _quad_tables() -> tuple[np.ndarray, np.ndarray]:
    global _QUAD_TABLES
    if _QUAD_TABLES is None:
        n = np.arange(10_000, dtype=np.uint32)
        digits = [n // 1000, n // 100 % 10, n // 10 % 10, n % 10]
        # little-endian words, so that the bytes read in order on any machine
        quads = sum((d + ord("0")) << (8 * i) for i, d in enumerate(digits)).astype("<u4")
        zeros = sum((n % 10 ** i == 0).astype(np.uint8) for i in (1, 2, 3)) + (n == 0)
        _QUAD_TABLES = quads, zeros
    return _QUAD_TABLES


def _high(a: np.ndarray, b0: np.ndarray, b1: np.ndarray) -> np.ndarray:
    """The high 64 bits of a * b, for b given as its 32-bit limbs b0 and b1."""
    a0, high = a & _M32, a >> _U(32)
    middle, cross = a0 * b0, high * b0
    a0 *= b1
    high *= b1
    middle >>= _U(32)
    for part in (cross, a0):  # the two cross products
        middle += part & _M32
        part >>= _U(32)
        high += part
    middle >>= _U(32)
    high += middle
    return high


def _round_to_odd(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """rop of Giulietti's paper: g * cp / 2**127 rounded to odd.

    ``high`` and ``low`` hold the 64-bit halves of g0 * cp and g1 * cp in
    their rows. As in the paper, the bits of the product below 2**64 are
    dropped before the sticky bit is taken.
    """
    z = low[1] >> _U(1)
    z += high[0]
    rounded = z >> _U(63)
    rounded += high[1]
    z &= _LOW63
    rounded |= z != _U(0)
    return rounded


def _moved(high: np.ndarray, low: np.ndarray, g: np.ndarray, shift: np.ndarray, sign: int):
    """(high, low) + sign * g * 2**shift, in 128 bits, for the product (high, low) of g and cp.

    The ends of the rounding interval are cp -+ 2**shift: their products are
    the product for cp and a shifted g, and need no multiplication.
    """
    step = np.subtract if sign < 0 else np.add
    new_low = g << shift
    step(low, new_low, out=new_low)
    carry = (new_low > low) if sign < 0 else (new_low < low)
    new_high = g >> (_U(64) - shift)
    step(high, new_high, out=new_high)
    step(new_high, carry, out=new_high)
    return new_high, new_low


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(digits, e) for each normal double v of ``bits``, sign ignored.

    digits * 10**e is the shortest decimal that reads back as v, the closest
    one to v if several are as short; trailing zeros pad digits to 17.
    Schubfach as in figures 7 and 9 of Giulietti's paper: v's rounding
    interval, scaled by 10**-k and by 4, is rounded to odd at both ends; the
    one multiple of ten inside it is the shortest decimal, else the closer
    of s and s + 1.
    """
    biased = (bits >> _U(52)).astype(_I) & _I(0x7FF)
    c = bits & _FRACTION
    # Below a power of two the next double down is half as far away.
    irregular = (c == _U(0)) & (biased > _I(1))
    odd = (c & _U(1)).astype(bool)
    q = biased - _I(1075)
    del biased
    k = np.where(irregular, (q * _I(631305) - _I(261663)) >> _I(21),
                 (q * _I(315653)) >> _I(20))
    h = (q + _floor_log2_pow10(-k) + _I(2)).astype(np.uint8)  # 2 to 5
    del q
    g = _powers(k)
    c |= _HIDDEN
    c <<= h + np.uint8(2)  # cp = 4c * 2**h
    # g0 * cp and g1 * cp, their halves in two rows each
    high, low = _high(g, c & _M32, c >> _U(32)), g * c  # uint64 products wrap
    del c
    vb = _round_to_odd(high, low)
    # cbr = cb + 2 and cbl = cb - 2, or cb - 1 below a power of two
    right = h + np.uint8(1)
    left = right - irregular
    del h
    # An odd significand's interval is open: its ends do not read back.
    vbr = _round_to_odd(*_moved(high, low, g, right, 1)) - odd
    vbl = _round_to_odd(*_moved(high, low, g, left, -1)) + odd
    del high, low, g, right, left

    s = vb >> _U(2)
    four_s = vb & ~_U(3)
    sp10 = s // _U(10) * _U(10)
    upin = vbl <= sp10 << _U(2)
    wpin = (sp10 << _U(2)) + _U(40) <= vbr
    uin = vbl <= four_s
    win = four_s + _U(4) <= vbr
    # When both s and s + 1 read back, the one closer to v, the even one on
    # a tie; at least one of them always does.
    above = (vb - four_s) + (s & _U(1)) > _U(2)
    digits = s + (win & (above | ~uin))
    # A multiple of ten reads back: no other decimal that short does.
    digits = np.where(upin ^ wpin, sp10 + wpin * _U(10), digits)
    short = digits < _U(10 ** 16)
    digits *= _U(1) + short * _U(9)
    return digits, k - short


def _layout(out: np.ndarray, bits: np.ndarray) -> None:
    """Write the text of the normal doubles ``bits`` into the zeroed columns of ``out``.

    ``out`` has one row per character slot and one column per value, so
    every step below runs along the values, not along a few characters.
    """
    quads, quad_zeros = _quad_tables()
    digits, e = _shortest(bits)
    # five groups of digits, the first a single one; int64 indexes directly
    high, low = np.divmod(digits.view(np.int64), np.int64(10 ** 8))
    first, high = np.divmod(high, np.int64(10 ** 8))
    groups = [first, *np.divmod(high, np.int64(10 ** 4)), *np.divmod(low, np.int64(10 ** 4))]
    text = np.empty((bits.size, 5), quads.dtype)
    for i, group in enumerate(groups):
        text[:, i] = quads[group]
    text = text.view(np.uint8).T[3:]  # one row per digit
    zeros = quad_zeros[groups[1]]
    for group in groups[2:]:
        zeros = quad_zeros[group] + (group == 0) * zeros
    used = np.int16(_DIGITS) - zeros  # significant digits
    del digits, high, low, first, groups, group

    decpt = (e + _I(_DIGITS)).astype(np.int16)  # the point sits after this many digits
    exponent = (decpt <= -4) | (decpt > 16)
    lead = ~exponent & (decpt <= 0)  # 0.000ddd
    keep = np.where(exponent | lead, used, np.maximum(used, decpt + np.int16(1)))
    point = np.where(exponent, np.int16(1), np.where(lead, np.int16(_DIGITS), decpt))

    out[_SIGN] = (bits >> _U(63)) * _MINUS
    if lead.any():
        out[_LEAD] = lead * _ZERO
        out[_LEAD + 1] = lead * _POINT
        for i in range(1, 4):
            out[_LEAD + 1 + i] = (lead & (decpt <= -i)) * _ZERO
    # digit j goes to place j before the point and to place j + 1 after it
    places = np.arange(_DIGITS, dtype=np.int16)[:, None]
    shown = text * (places < keep)
    body = out[_BODY:_EXP]
    body[:_DIGITS] = shown
    np.copyto(body[1:], shown, where=places >= point)
    body[point, np.arange(bits.size)] = (~lead & (~exponent | (used > 1))) * _POINT
    if exponent.any():
        power = np.abs(decpt - np.int16(1))
        hundreds, tens = np.divmod(power, np.int16(100))
        tens, ones = np.divmod(tens, np.int16(10))
        out[_EXP] = exponent * np.uint8(ord("e"))
        out[_EXP + 1] = exponent * np.where(decpt > 0, _PLUS, _MINUS)
        out[_EXP + 2] = (exponent & (hundreds > 0)) * (hundreds + _ZERO)
        out[_EXP + 3] = exponent * (tens + _ZERO)
        out[_EXP + 4] = exponent * (ones + _ZERO)


def _fill(out: np.ndarray, x: np.ndarray) -> None:
    """Write the text of the float64 values ``x`` into the zeroed columns of ``out``."""
    bits = x.view(np.uint64)
    biased = (bits >> _U(52)) & _U(0x7FF)
    special = np.flatnonzero((biased == _U(0)) | (biased == _U(0x7FF)))
    if special.size:  # zeros, subnormals, NaN and infinities
        bits = bits.copy()
        bits[special] = _ONE
    _layout(out, bits)
    if special.size:
        text = [repr(v).encode() for v in x[special].tolist()]
        out[:, special] = np.array(text, dtype=f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH).T


def cells(columns: list[np.ndarray]) -> np.ndarray:
    """``repr`` of each value of the equally long float64 ``columns``, NUL-padded.

    Returns a (WIDTH, len(columns) * rows) uint8 array whose column
    ``j * rows + i`` holds the text of ``columns[j][i]``. The values pass
    through the kernel _CHUNK at a time; short columns share a pass.
    """
    rows = len(columns[0]) if columns else 0
    out = np.zeros((WIDTH, len(columns) * rows), np.uint8)
    for start in range(0, out.shape[1], _CHUNK):
        stop = min(start + _CHUNK, out.shape[1])
        pieces = [columns[j][max(start - j * rows, 0):stop - j * rows]
                  for j in range(start // rows, (stop - 1) // rows + 1)]
        _fill(out[:, start:stop], pieces[0] if len(pieces) == 1 else np.concatenate(pieces))
    return out
