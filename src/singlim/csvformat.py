"""CSV bytes with every cell exactly '%.17g' of its float.

csv_bytes formats a chunk of rows at a time with numpy arithmetic.  A
magnitude a in [1e-290, 1e290) is scaled to y = a * 10^(16 - E),
E = floor(log10 a), as a double-double: the exact product of a and the
double nearest 10^(16 - E) (Dekker 1971), plus a times that power's
rounding remainder.  Three roundings, each at most 2^-53 of a value below
16, bound its error by 5.4e-15, so y rounds to the integer N of a's 17
correctly rounded digits unless it lies within 1e-14 of a half-integer.
Such a cell, one outside that range and a non-finite one take '%.17g'
itself; zeros read 0 or -0.  The module is imported by the commands that
write CSVs, not with singlim.cli: where bytecode is not cached, compiling
it costs a few milliseconds that verify need not pay.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["csv_bytes"]

_CHUNK_ROWS = 512  # the rows formatted together
_FAST_RANGE = (1e-290, 1e290)  # the magnitudes that are scaled
_TIE_GAP = 1e-14  # a scaled value this close to a half-integer is a tie
_POWER_RANGE = range(-280, 309)  # the exponents 16 - E of the scaling
_DEKKER_SPLIT = 134217729.0  # 2^27 + 1
# The digits of x < 10^9 by fixed point: t = x * _DIGIT_SCALE holds the top
# digit in t >> 57, and t = (t & _FRACTION) * 10 brings up the next one.
# tools/check_digit_scale.py checks this for every x < 10^9.
_DIGIT_SCALE = np.uint64(-(-(2**57) // 10**8))  # ceil(2^57 / 10^8)
_FRACTION = np.uint64(2**57 - 1)
# A cell is 30 byte slots in five regions, each kept as a prefix: the sign;
# the "0.000" of %f below 1; the 17 digits with the point among them; the
# "e", sign and 2 or 3 digits of %e; the separator.  Slots are rows, cells
# columns, until the cells are laid out one after another.
_REGIONS = (1, 5, 18, 5, 1)
_SLOT_REGION = np.repeat(np.arange(len(_REGIONS)), _REGIONS)
_SLOT_OFFSET = np.concatenate([np.arange(n, dtype=np.uint8) for n in _REGIONS])[:, None]
_BODY = _SLOT_OFFSET[6:24]  # 0, ..., 17


@functools.cache
def _powers_of_ten() -> np.ndarray:
    """(4, len(_POWER_RANGE)), made on first use from Python integers: for
    each k of _POWER_RANGE, the double hi nearest 10^k, the double nearest
    10^k - hi, and hi split into two halves of 26 bits for Dekker's
    product."""
    powers = []
    for k in _POWER_RANGE:
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den  # integer true division rounds correctly
        m, d = hi.as_integer_ratio()
        lo = (num * d - m * den) / (den * d)
        mant, exp = math.frexp(hi)  # split in [0.5, 1): 2^27 hi may overflow
        c = _DEKKER_SPLIT * mant
        upper = c - (c - mant)
        powers.append((hi, lo, math.ldexp(upper, exp), math.ldexp(mant - upper, exp)))
    return np.array(powers).T.copy()


@functools.cache
def _exponent_slots() -> np.ndarray:
    """(3, 400): the three digit slots of %e's exponent |X| for each
    |X| < 400, its "%02d" digits and then a filler."""
    return np.array([list(f"{x:02d}0".encode()[:3]) for x in range(400)], dtype=np.uint8).T.copy()


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10^k as the unnormalized double-double (p, rest): p the rounded
    product of a and hi, rest its exact error plus a * lo."""
    hi, lo, upper, lower = _powers_of_ten().take(k - _POWER_RANGE.start, axis=1)
    c = _DEKKER_SPLIT * a
    a_upper = c - (c - a)
    a_lower = a - a_upper
    p = a * hi
    err = ((a_upper * upper - p) + a_upper * lower + a_lower * upper) + a_lower * lower
    return p, err + a * lo


def _decimal(a: np.ndarray, zero: np.ndarray):
    """The 17 correctly rounded digits N (an int64 in [10^16, 10^17), 0 for
    a zero) and the decimal exponent X of each a, and the cells whose
    scaled value is too near a tie to round by."""
    e = np.floor(np.log10(a)).astype(np.int16)
    p, rest = _scaled(a, 16 - e)
    # log10 misses the decade by one at most, next to a power of ten; after
    # one move y lies in [10^16, 10^17], up to an error that rounds alike
    up = (p > 1e17) | ((p == 1e17) & (rest >= 0))
    down = (p < 1e16) | ((p == 1e16) & (rest < 0))
    off = np.flatnonzero(up | down)
    if off.size:
        e[off] += up[off].astype(np.int16) - down[off]
        p[off], rest[off] = _scaled(a[off], 16 - e[off])
    # p >= 1e16 > 2^53 is an integer, and rest is below 16 in magnitude
    whole = np.rint(rest)
    tie = np.abs(np.abs(rest - whole) - 0.5) < _TIE_GAP
    n = p.astype(np.int64) + whole.astype(np.int64)
    carry = n == 10**17  # 99999999999999999.5 and above round up a decade
    n[carry] = 10**16
    n[zero] = 0
    x = e + carry
    x[zero] = 0
    return n, x, tie


def _ascii_digits(n: np.ndarray) -> np.ndarray:
    """The ASCII digits of each N as the rows (19, n.size): a zero, N's 17
    digits, from its parts of 8 and 9 digits, and a filler."""
    digits = np.empty((19, n.size), dtype=np.uint8)
    t = np.array(np.divmod(n, 10**9), dtype=np.uint64)
    t *= _DIGIT_SCALE
    nine = digits[:18].reshape(2, 9, n.size)
    for i in range(9):
        np.right_shift(t, 57, out=nine[:, i], casting="unsafe")
        t &= _FRACTION
        t *= np.uint64(10)
    digits[18] = 0
    digits += ord("0")
    return digits


def _slots(v: np.ndarray, separators: np.ndarray) -> np.ndarray:
    """The slots (30, v.size) of the '%.17g' text of each value of v and
    its separator, one column per value; a dropped slot reads 0."""
    m = v.size
    a = np.abs(v)
    fast = (a >= _FAST_RANGE[0]) & (a < _FAST_RANGE[1])  # False for 0, inf, nan
    zero = a == 0
    n, x, tie = _decimal(np.where(fast, a, 1.0), zero)
    digits = _ascii_digits(n)
    last_digit = ((digits[1:18] != ord("0")) * _BODY[:17]).max(axis=0)  # %g drops trailing zeros
    exponential = (x < -4) | (x > 16)
    leading = (x < 0) & ~exponential  # %f's "0." and up to three zeros
    point = np.where(exponential, 1, np.where(leading, last_digit + 1, x + 1)).astype(np.uint8)
    last = np.where(last_digit >= point, last_digit + 1, point - 1)
    big = np.abs(x)

    slots = np.empty((len(_SLOT_REGION), m), dtype=np.uint8)
    slots[:6] = np.frombuffer(b"-0.000", dtype=np.uint8)[:, None]
    # the digits before the point in their slots, those after it one slot on
    body = slots[6:24]
    np.subtract(digits[1:], digits[:18], out=body)
    body *= _BODY < point
    body += digits[:18]
    body[point, np.arange(m)] = ord(".")
    slots[24] = ord("e")
    slots[25] = np.where(x < 0, ord("-"), ord("+"))
    slots[26:29] = _exponent_slots().take(big, axis=1)
    slots[29] = separators[:m]
    lengths = np.empty((len(_REGIONS), m), dtype=np.uint8)
    lengths[0] = np.signbit(v)
    lengths[1] = np.where(leading, 1 - x, 0)
    lengths[2] = last + 1
    lengths[3] = np.where(exponential, 4 + (big >= 100), 0)
    lengths[4] = 1
    for i in np.flatnonzero(~(fast | zero) | tie):  # the text fills slots 0 to 23
        text = b"%.17g" % v[i]
        size = len(text)
        slots[:size, i] = np.frombuffer(text, dtype=np.uint8)
        lengths[:, i] = (min(size, 1), min(max(size - 1, 0), 5), max(size - 6, 0), 0, 1)
    keep = lengths[_SLOT_REGION]
    slots *= np.greater(keep, _SLOT_OFFSET, out=keep)
    return slots


def csv_bytes(header: str, columns) -> bytes:
    """CSV bytes: the header, then row i of the columns, each cell exactly
    '%.17g' % float(x) for its value x, cells separated by "," and rows
    ended by a newline."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    rows = min(c.size for c in columns)
    separators = np.full((_CHUNK_ROWS, len(columns)), ord(","), dtype=np.uint8)
    separators[:, -1] = ord("\n")
    out = [header.encode() + b"\n"]
    for start in range(0, rows, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, rows)
        block = np.column_stack([c[start:stop] for c in columns])
        cells = _slots(block.ravel(), separators.ravel()).T.ravel()
        out.append(np.compress(cells != 0, cells).tobytes())
    return b"".join(out)
