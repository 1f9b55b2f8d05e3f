"""'%.17g' % x for a float64 array, byte for byte, in numpy.

format_rows turns a block of rows into the CSV bytes that
",".join('%.17g' % x for x in row) + "\\n" gives, row after row, without
a Python-level step per value.  For each x with 1e-280 <= |x| < 1e280:

1. k = floor(log10 |x|) is the decimal exponent, so that the scaled value
   y = |x| * 10^(16 - k) lies in [1e16, 1e17).  10^(16 - k) is held as an
   exact-to-2^-106 pair hi + lo built from Python ints, and y as p + r:
   p = |x| * hi rounded (an integer, since p > 2^53), r the Dekker
   two-product error of that multiplication plus |x| * lo.  The error of
   p + r against the exact y is below 1e-14.  Where floor(y) falls outside
   [1e16, 1e17), log10 was one ulp off near a power of ten and k moves by
   one.
2. The 17 significant digits are round(y) as one int64.  Rounding half
   to even only matters at an exact tie; every y whose fraction lies
   within 1e-6 of 1/2 is left to '%' instead (below).
3. The digits are laid out as bytes into a fixed 32-byte source record
   per value, eight 4-byte words each taken from a lookup table, and each
   cell is gathered from its record through an index template, padded to
   25 slots with a zero byte of the record, which is then dropped.  A
   template is fixed by the layout: sign, notation (fixed for
   -4 <= k <= 16, as %g chooses, else exponent notation with 2 or 3
   exponent digits) and the number of significant digits left once %g
   strips trailing zeros: 2 x 23 x 17 = 782 layouts.  0.0 and -0.0 take
   the fixed layout of k = 0 with the single digit 0.

A row holding a value this cannot certify (NaN, +-inf, a subnormal or
other |x| outside [1e-280, 1e280) but 0, or a y near a tie) is formatted
by '%' and spliced back in, so the bytes equal '%.17g' for every input.

The lookup tables are built on the first call, not at import, so a run
that writes no all-float table pays nothing for them; powers of ten are
built only as blocks need them (about 1 ms in all on a 2-vCPU x86_64
host).  Filling in a power is idempotent, so calls that race on it agree.
"""

import functools

import numpy as np

FLOAT_FMT = "%.17g"
_LOW, _HIGH = 1e-280, 1e280  # |x| range of the fast path; the products below stay normal
_TIE = 1e-6  # distance from a rounding tie below which '%' formats the row
_K_MIN, _K_MAX = -281, 281  # decimal exponents the fast path can reach, one move included
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant for doubles
# A value's source record, as 8 words of 4 bytes: '-', '0', '.' and the
# first digit; the other 16 digits in 4 words; 'e', the exponent sign and
# two zero bytes; the exponent as 4 digits; the separator and three zero
# bytes.  Templates index its bytes (slots).
_WIDTH = 32
_MINUS, _ZERO, _POINT, _E, _EXP_SIGN, _SEP, _PAD = 0, 1, 2, 20, 21, 28, 29
_CELL = 25  # longest cell: sign, 17 digits, point, e, sign, 3 digits, separator
_FIXED_MODES = 21  # layouts for k = -4 .. 16; modes 21 and 22 are exponent notation
_MODES = _FIXED_MODES + 2


def _body(mode, sig):
    """Record slots of an unsigned cell with `sig` significant digits.

    Significant digit i (1-based) sits in slot 2 + i.
    """
    if mode < _FIXED_MODES:
        k = mode - 4
        if k < 0:  # 0.000ddd
            return [_ZERO, _POINT] + [_ZERO] * (-k - 1) + list(range(3, 3 + sig))
        # the k + 1 integer digits always show, the fraction only if digits remain
        if sig > k + 1:
            return list(range(3, 4 + k)) + [_POINT] + list(range(4 + k, 3 + sig))
        return list(range(3, 4 + k))
    cells = [3, _POINT, *range(4, 3 + sig)] if sig > 1 else [3]
    return cells + [_E, _EXP_SIGN] + ([26, 27] if mode == _FIXED_MODES else [25, 26, 27])


def _words(text):
    """4-byte groups of ASCII text as native uint32 record words."""
    return np.frombuffer(text.encode("ascii"), dtype=np.uint32)


class _Tables:
    """Record words, layout templates, and powers of ten filled in on demand."""

    def __init__(self):
        d = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T  # row w: the digits of w
        self.digits = (d + ord("0")).astype(np.uint8, order="C").view(np.uint32).ravel()
        z = (d == 0).astype(np.int8)  # trailing zeros of a 4-digit word, 4 for 0
        self.trailing = z[:, 3] * (1 + z[:, 2] * (1 + z[:, 1] * (1 + z[:, 0])))
        self.lead = _words("".join(f"-0.{i}" for i in range(10)))
        self.exp_sign = _words("e+\0\0e-\0\0")
        self.sep = _words(",\0\0\0\n\0\0\0")
        flat = bytearray()
        for mode in range(_MODES):
            for sig in range(1, 18):
                cells = _body(mode, sig) + [_SEP]
                flat += bytes(cells + [_PAD] * (_CELL - len(cells)))
        unsigned = np.frombuffer(flat, dtype=np.uint8).reshape(-1, _CELL)
        n = len(unsigned)
        self.templates = np.empty((2 * n, _CELL), dtype=np.uint8)
        self.templates[:n] = unsigned
        self.templates[n:, 0] = _MINUS
        self.templates[n:, 1:] = unsigned[:, :-1]
        self.lengths = (self.templates != _PAD).sum(axis=1)
        # 10^(16 - k) for k in [_K_MIN, _K_MAX] as hi + lo, hi split for Dekker
        size = _K_MAX - _K_MIN + 1
        self.built = np.zeros(size, dtype=bool)
        self.hi = np.zeros(size)
        self.lo = np.zeros(size)
        self.hi_head = np.zeros(size)
        self.hi_tail = np.zeros(size)

    def powers(self, k):
        """Table rows of 10^(16 - k) for an int array k, built where missing."""
        row = k - _K_MIN
        missing = ~self.built[row]
        if missing.any():
            # a set, not np.unique, which would import numpy.ma (0.6 MB)
            for i in sorted(set(row[missing].tolist())):
                e = 16 - (i + _K_MIN)
                if e >= 0:
                    n = 10**e
                    hi = float(n)
                    lo = float(n - int(hi))
                else:
                    d = 10**-e
                    hi = 1 / d  # int true division is correctly rounded
                    num, den = hi.as_integer_ratio()
                    lo = (den - num * d) / (den * d)
                c = _SPLIT * hi
                head = c - (c - hi)
                self.hi[i], self.lo[i] = hi, lo
                self.hi_head[i], self.hi_tail[i] = head, hi - head
                self.built[i] = True
        return row


@functools.cache
def _tables():
    return _Tables()


def _scale(a, k, t):
    """|x| * 10^(16 - k) as p + r: p the rounded product, r what it misses."""
    row = t.powers(k)
    hi, head, tail = t.hi[row], t.hi_head[row], t.hi_tail[row]
    p = a * hi
    c = _SPLIT * a
    a_head = c - (c - a)
    a_tail = a - a_head
    err = ((a_head * head - p) + a_head * tail + a_tail * head) + a_tail * tail
    return p, err + a * t.lo[row]


def _digits(x, t):
    """17 significant digits as an int64, the decimal exponent k, and
    whether the fast path certifies them, per value."""
    a = np.abs(x)
    zero = a == 0
    ok = (a >= _LOW) & (a < _HIGH)
    a[~ok] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    p, r = _scale(a, k, t)
    low = (p < 1e16) | ((p == 1e16) & (r < 0))
    high = (p > 1e17) | ((p == 1e17) & (r >= 0))
    moved = np.flatnonzero(low | high)
    if moved.size:
        k[moved] += np.where(high[moved], 1, -1)
        p[moved], r[moved] = _scale(a[moved], k[moved], t)
        ok[moved] &= (p[moved] >= 1e16) & (p[moved] < 1e17)
    floor_r = np.floor(r)
    frac = r - floor_r
    ok &= np.abs(frac - 0.5) >= _TIE
    digits = p.astype(np.int64) + floor_r.astype(np.int64) + (frac > 0.5)
    # a carry to 10^17 needs a double within 5e-18 (relative) below a power
    # of ten, and there is none; '%' would still format one correctly
    ok &= digits < 10**17
    ok |= zero
    digits[~ok | zero] = 0  # zeros, and values left to '%', lay out as 0
    k[zero] = 0
    return digits, k, ok


def _records(digits, k, negative, n_cols, t):
    """Source records, (values, _WIDTH) bytes, and layout codes."""
    upper, lower = np.divmod(digits, 10**8)
    lead, middle = np.divmod(upper, 10**8)
    w1, w2 = np.divmod(middle, 10**4)
    w3, w4 = np.divmod(lower, 10**4)
    tz = t.trailing
    trailing = tz[w4] + (w4 == 0) * (tz[w3] + (w3 == 0) * (tz[w2] + (w2 == 0) * tz[w1]))
    mode = np.where((k >= -4) & (k <= 16), k + 4,
                    np.where(np.abs(k) < 100, _FIXED_MODES, _FIXED_MODES + 1))
    code = (negative * _MODES + mode) * 17 + 16 - trailing
    words = np.empty((digits.size, _WIDTH // 4), dtype=np.uint32)
    words[:, 0] = t.lead[lead]
    words[:, 1] = t.digits[w1]
    words[:, 2] = t.digits[w2]
    words[:, 3] = t.digits[w3]
    words[:, 4] = t.digits[w4]
    words[:, 5] = t.exp_sign[(k < 0).view(np.int8)]
    words[:, 6] = t.digits[np.abs(k)]
    by_column = words.reshape(-1, n_cols, _WIDTH // 4)
    by_column[:, :-1, 7] = t.sep[0]
    by_column[:, -1, 7] = t.sep[1]
    return words.view(np.uint8), code


def _gather(src, code, t):
    """The cells' bytes, concatenated: each record through its template."""
    index = t.templates.take(code, axis=0) + np.arange(0, src.size, _WIDTH)[:, None]
    cells = src.ravel().take(index)
    return cells[cells != 0]


def format_rows(data):
    """CSV bytes of a 2-D float64 array, each cell '%.17g' % x."""
    n_rows, n_cols = data.shape
    t = _tables()
    x = data.ravel()
    digits, k, ok = _digits(x, t)
    src, code = _records(digits, k, np.signbit(x), n_cols, t)
    out = _gather(src, code, t)
    if ok.all():
        return out.tobytes()
    bad = np.flatnonzero(~ok.reshape(n_rows, n_cols).all(axis=1))
    ends = np.cumsum(t.lengths[code].reshape(n_rows, n_cols).sum(axis=1))
    starts = np.concatenate(([0], ends[:-1]))
    row_fmt = ",".join([FLOAT_FMT] * n_cols) + "\n"
    view = memoryview(out)
    pieces, pos = [], 0
    for i in bad.tolist():
        pieces.append(view[pos:starts[i]])
        pieces.append((row_fmt % tuple(data[i].tolist())).encode("ascii"))
        pos = ends[i]
    pieces.append(view[pos:])
    return b"".join(pieces)
