"""The text of curve.csv rows: exactly the bytes of ``configio.CURVE_ROW %
values``, made with numpy integer arithmetic instead of one ``%`` per value.

A value whose magnitude lies in [1e-4, 1e7) is written by the integer path:
there %.17g is fixed notation, with E = floor(log10 |v|) in [-4, 6] (no double
below 1e7 rounds up to it at 17 digits), at most 7 integer digits and 16 - E
fraction digits before trailing zeros and a bare point are dropped.  Every
other value (zeros, subnormals, tiny, large, nan, inf) goes through
``configio.FMT %``, all of a block's in one call, and a block with no value in
the range is formatted by ``CURVE_ROW %`` as a whole.

Each value is laid out in a 32-byte slot, and its text is its separator plus
the window [start, end) of the slot:
  bytes 1-2   "\r\n" before a row's first value, byte 2 "," before the others
  byte  3     sign slot of a 7-digit integer part
  bytes 4-10  integer digits, zero-padded; byte 11 the point
  bytes 12-31 fraction digits, zero-padded
so a block's text is the kept bytes of its slots, less the first "\r\n", plus
a final one.

``configio`` imports this module, and so builds its tables, when it first
writes a curve: the CLI calls that write none do not pay for it, while every
CLI call imports ``configio``.
"""

from __future__ import annotations

import numpy as np

from .configio import CURVE_ROW, FMT

_U = np.uint64  # every integer operand below is uint64: with int64 it would promote to float64
_SLOT = 32
_POINT = 11
_LIMB = _U(2**26 - 1)
_LOW52 = _U(2**52 - 1)
_E4, _E8, _E16, _E17 = _U(10**4), _U(10**8), _U(10**16), _U(10**17)


def _tables():
    """The 4 ASCII bytes of each chunk 0000..9999, then of "ddd." for
    000..999; the trailing decimal zeros of each chunk (4 for 0000); and the
    kept bytes of a slot for each separator, start and end."""
    k = np.arange(10000)
    digits = (np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=1)
              + ord("0")).astype(np.uint8)
    dotted = np.concatenate([digits[:1000, 1:], np.full((1000, 1), ord("."), np.uint8)], axis=1)
    zeros = (k % 10 == 0).astype(np.int64) + (k % 100 == 0) + (k % 1000 == 0) + (k == 0)
    col = np.arange(_SLOT)
    window = (col >= np.arange(_SLOT)[:, None, None]) & (col < np.arange(_SLOT + 1)[:, None])
    keep = np.stack([window | (col == 1) | (col == 2), window | (col == 2)])
    return (np.concatenate([digits, dotted]).view("V4").ravel(), zeros,
            keep.view(f"V{_SLOT}").ravel())


_CHUNKS, _ZEROS, _KEEP = _tables()
_POW5 = 5 ** np.arange(22, dtype=_U)
_POW10 = 10 ** np.arange(17, dtype=_U)


def _scaled_floor(m, exp, e):
    """floor(m 2^(exp-53) 10^s) for s = 16 - e, with its remainder and half its
    divisor, all exact: the quotient is m 5^s / 2^t with t = 53 - exp - s
    (18..47 bits here), and m 5^s < 2^102 is carried as hi 2^52 + lo from
    26-bit limbs of m < 2^53 and 5^s < 2^49, so no uint64 product overflows."""
    s = 16 - e
    t = (53 - exp - s).astype(_U)
    p = _POW5[s]
    m0, m1, p0, p1 = m & _LIMB, m >> _U(26), p & _LIMB, p >> _U(26)
    mid = m1 * p0 + m0 * p1
    lo = m0 * p0 + ((mid & _LIMB) << _U(26))
    hi = m1 * p1 + (mid >> _U(26)) + (lo >> _U(52))
    lo &= _LOW52
    return (hi << (_U(52) - t)) | (lo >> t), lo & ((_U(1) << t) - _U(1)), _U(1) << (t - _U(1))


def _decimal17(a):
    """Finite a in [1e-4, 1e7) as D 10^(e-16) rounded half to even at 17
    significant digits, D in [10^16, 10^17): the digits %.17g prints."""
    mant, exp = np.frexp(a)
    m = np.ldexp(mant, 53).astype(_U)
    exp = exp.astype(np.int64)
    e = np.floor(np.log10(a)).astype(np.int64)
    d, r, half = _scaled_floor(m, exp, e)
    off = (d >= _E17).astype(np.int64) - (d < _E16)  # log10 can miss by one
    redo = np.flatnonzero(off)
    if redo.size:
        e[redo] += off[redo]
        d[redo], r[redo], half[redo] = _scaled_floor(m[redo], exp[redo], e[redo])
    d += (r > half) | ((r == half) & (d & _U(1)).astype(bool))
    carry = d == _E17
    d[carry] = _E16
    e[carry] += 1
    return d, e


def _trailing_zeros(d):
    """Trailing decimal zeros of each d > 0, four digits at a time."""
    count = np.zeros(d.size, np.int64)
    idx = np.arange(d.size)
    while idx.size:
        q = d // _E4
        z = _ZEROS[(d - q * _E4).astype(np.intp)]
        count[idx] += z
        more = z == 4
        idx, d = idx[more], q[more]
    return count


def curve_text(block) -> bytes:
    """The bytes of CURVE_ROW % block's values, for an (n, 3) float block."""
    v = block.ravel()
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e7)
    if not fast.any():
        return (CURVE_ROW * block.shape[0] % tuple(v.tolist())).encode()
    d, e = _decimal17(np.where(fast, a, 1.0))
    # The integer part I and the 20 fraction digits F as one 27-digit
    # integer d 10^(e+4) = I 10^20 + F, split as top 10^16 + low: top =
    # d // 10^(12-e) holds I and the first 4 digits of F, low the other 16.
    div = _POW10[12 - e]
    top = d // div
    low = (d - top * div) * _POW10[e + 4]
    whole = top // _E4
    low_hi = low // _E8
    low_lo = low - low_hi * _E8
    ch = np.empty((7, v.size), np.intp)  # chunk indices at bytes 4, 8, 12, ..., 28
    ch[0] = whole // _U(1000)
    ch[1] = whole % _U(1000) + _U(10000)
    ch[2] = top - whole * _E4
    ch[3] = low_hi // _E4
    ch[4] = low_hi % _E4
    ch[5] = low_lo // _E4
    ch[6] = low_lo % _E4
    text = np.empty((v.size, _SLOT), np.uint8)
    text.view("V4")[:, 1:] = _CHUNKS.take(ch).T
    fraction = np.maximum(16 - e - _trailing_zeros(d), 0)
    end = _POINT + (fraction > 0) + fraction
    start = _POINT - 1 - np.maximum(e, 0)
    neg = np.flatnonzero(np.signbit(v) & fast)
    start[neg] -= 1
    text[neg, start[neg]] = ord("-")
    slow = np.flatnonzero(~fast)
    if slow.size:
        words = ("\n".join([FMT] * slow.size) % tuple(v[slow].tolist())).split("\n")
        text[slow, 4:28] = np.array(words, dtype="S24").view(np.uint8).reshape(-1, 24)
        start[slow] = 4
        end[slow] = [4 + len(w) for w in words]
    rows = text.reshape(-1, 3, _SLOT)
    rows[:, 0, 1:3] = (ord("\r"), ord("\n"))
    rows[:, 1:, 2] = ord(",")
    key = (start * (_SLOT + 1) + end).reshape(-1, 3)
    key[:, 1:] += _SLOT * (_SLOT + 1)
    keep = _KEEP.take(key).view(bool).reshape(text.shape)
    return text[keep].tobytes()[2:] + b"\r\n"
