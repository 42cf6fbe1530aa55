"""``repr``'s text of float arrays, the shortest decimals that read back to the same floats.

The CLI writes ``decompose``, ``bounds``, ``spectrum`` and ``sweep`` CSV and JSON as
byte grids; ``float_text`` gives a float array as uint8 text along a new last axis, where
each value's bytes, 0 bytes dropped, are its ``repr``. ``shortest`` computes the digits of a
whole column at once: Dekker's error-free product (Numer. Math. 18, 1971) gives
``|x| 10^k`` exactly, and the shortest-digits test of Ryu (Adams, PLDI 2018) picks the
digits. ``repr`` itself writes the values the kernel leaves out, in one bulk call, and
every column of fewer than ``SHORT`` values, where that call is faster than the kernel's
fixed cost.

The CLI imports this module on its first float column, so that the jobs that
write none (``bounds`` as a text table, the library) never compile it; the kernel's
tables are built on the first column of ``SHORT`` values or more.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["CHUNK", "EDGE_BAND", "SHORT", "float_text", "shortest"]

#: values ``float_text`` writes at a time: the kernel's temporaries stay in cache
CHUNK = 2 ** 12
#: columns of fewer values go through ``repr`` alone: below about 200 values the bulk
#: ``repr`` call beats the kernel's fixed cost of about 80 us (2-CPU Xeon, numpy 2.4)
SHORT = 200
#: relative half-width of the band around the edge of a rounding interval where the
#: computed distance of a candidate does not decide whether it round-trips
EDGE_BAND = 1e-9


@functools.cache  # built on the first column written, not at import
def _tables() -> tuple:
    """The nearest doubles to 10^-5 ... 10^16; for k = 0..21 (columns) the exact double 10^k,
    its Dekker halves (26 bits each) and 10^k 2^-53; the four ASCII digits of 0..9999 as one
    uint32 each; the 0/1 byte masks of the column ranges [lo, hi] of a 24-column row, at
    row 24 lo + hi; 10^3 ... 10^17."""
    powers = np.array([float(f"1e{e}") for e in range(-5, 17)])
    scale = np.array([float(10 ** k) for k in range(22)])
    high = scale * 134217729.0  # 2^27 + 1
    high -= high - scale
    digit = np.arange(48, 58, dtype=np.uint8)
    quad = np.stack(np.meshgrid(digit, digit, digit, digit, indexing="ij"), axis=-1)
    column = np.arange(24)
    ranges = (column[:, None, None] <= column) & (column <= column[None, :, None])
    return (powers, np.stack([scale, high, scale - high, scale * 2.0 ** -53]),
            quad.view(np.uint32).ravel(), ranges.view(np.uint8).reshape(576, 24),
            10 ** np.arange(3, 18))


def shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shortest round-trip decimals of floats: ``|x| = n / 10^k`` with ``n`` integral.

    Returns ``(n, k, zeros, fallback)``: ``n`` has 16 to 18 digits and
    ``zeros`` trailing zeros; ``fallback`` marks where repr must write the
    value instead. For |x| in [1e-4, 1e16), X = |x| 10^k lies in about [1e16,
    1e17) and, by Dekker's TwoProduct, is exactly p + err with p an even
    int64. A candidate m 10^j round-trips when it lies closer to X than
    10^k ulp(x)/2, the half-width of x's rounding interval; the shortest
    digits are the nearest candidate of the largest j that does. The nearest
    integer (17 digits) always round-trips, the nearest multiples of 10 and
    of 100 are tested, and past 100 at most one multiple lies that close to
    X, so each further trailing zero of that multiple is one more level.
    Falls back: zero, non-finite and |x| outside [1e-4, 1e16) (repr writes an
    exponent there), powers of two (their interval is not symmetric), exact
    ties between two candidates, and distances within ``EDGE_BAND`` of the
    interval's edge.
    """
    powers, scales, _, _, tens = _tables()
    a = np.abs(x)
    fallback = ~((a >= 1e-4) & (a < 1e16)) | (a.view(np.int64) & (2 ** 52 - 1) == 0)
    a[fallback] = 1.5
    e10 = np.minimum(np.floor(np.log10(a)), 15).astype(np.intp)
    e10 += a >= np.take(powers, e10 + 6)  # log10 may round down past a power of ten
    k = 16 - e10
    scale, high, low, ulp = np.take(scales, k, axis=1)
    a_high = a * 134217729.0
    a_high -= a_high - a
    a_low = a - a_high
    p = a * scale
    err = ((a_high * high - p) + a_high * low + a_low * high) + a_low * low
    half = (a.view(np.int64) & 0x7FF << 52).view(float) * ulp  # 10^k ulp(x) / 2
    near = np.rint(err)
    rest = err - near  # X = b + rest exactly, |rest| <= 1/2
    b = p.astype(np.int64) + near.astype(np.int64)
    by10 = b // 10
    r1 = (b - by10 * 10).astype(float)
    r2 = (b - by10 // 10 * 100).astype(float)
    v1, v2 = r1 + rest, r2 + rest  # X less the multiple of 10 (100) at or below b
    up1, up2 = v1 > 5, v2 > 50
    gap1 = np.abs(v1 - 10.0 * up1) - half  # < 0: the nearest multiple round-trips
    gap2 = np.abs(v2 - 100.0 * up2) - half
    pass1 = gap1 < 0
    pass2 = pass1 & (gap2 < 0)
    band = half * EDGE_BAND
    fallback |= ((np.abs(gap1) <= band) | (pass1 & (np.abs(gap2) <= band))
                 | (np.abs(rest) == 0.5) | (pass1 & (v1 == 5)))
    n = b + np.where(pass2, 100.0 * up2 - r2,
                     np.where(pass1, 10.0 * up1 - r1, 0.0)).astype(np.int64)
    zeros = pass1.astype(np.int8) + pass2
    more = np.flatnonzero(pass2)
    if len(more):
        zeros[more] = 2 + (n[more, None] % tens == 0).sum(axis=1)
    return n, k, zeros, fallback


def _repr_rows(values: np.ndarray) -> np.ndarray:
    """``repr`` of each float of a 1-d array in one bulk call, as (rows, width) uint8, 0-padded."""
    text = np.array([repr(value) for value in values.tolist()], dtype="S")
    return text.view(np.uint8).reshape(len(values), text.itemsize)


def float_text(values) -> np.ndarray:
    """``repr`` of each float as a uint8 row along a new last axis, 0 bytes anywhere as padding.

    Fewer than ``SHORT`` values go through ``_repr_rows`` whole, more through
    ``_kernel_rows``; both give every value a row of one shared width.
    """
    x = np.asarray(values, dtype=float).ravel()
    out = _repr_rows(x) if len(x) < SHORT else _kernel_rows(x)
    return out.reshape(np.shape(values) + out.shape[1:])


def _kernel_rows(x: np.ndarray) -> np.ndarray:
    """``float_text`` of a 1-d array through ``shortest``: (rows, width) uint8.

    ``shortest`` gives the digits of most values, ``CHUNK`` values at a time,
    each digit of n in the column of its place, masked to the row's digits
    from the leading one to the last nonzero one. A row is the sign, the
    integer columns, a point column shared by all rows and the fraction
    columns, the columns no row uses dropped, 0 bytes wherever a row has no
    digit; a column that is an integer digit of one row and a fraction digit
    of another is masked on each side of the point by the row's ones column.
    The fallbacks go through ``_repr_rows``, each over its whole row.
    """
    rows = len(x)
    _, _, quad, ranges, _ = _tables()
    digits = np.empty((rows, 24), dtype=np.uint8)
    units = np.empty(rows, dtype=np.int8)
    fallback = np.empty(rows, dtype=bool)
    spans = []
    for start in range(0, rows, CHUNK):
        stop = min(start + CHUNK, rows)
        n, k, zeros, fallback[start:stop] = shortest(x[start:stop])
        unit = 23 - k  # the column of the ones digit in n's 24 digits, 10^23 first
        units[start:stop] = unit
        top = n // 10 ** 16  # n has 16, 17 or 18 digits
        first = np.minimum(8 - (top > 0) - (top > 9), unit)  # the leading digit or the ones
        last = np.maximum(23 - zeros, unit + 1)  # the last nonzero digit or the tenths
        quads = np.empty((stop - start, 6), dtype=np.uint32)
        for place in range(5, 0, -1):
            over = n // 10000
            quads[:, place] = quad[n - over * 10000]
            n = over
        quads[:, 0] = quad[n]
        np.multiply(quads.view(np.uint8), np.take(ranges, first * 24 + last, axis=0),
                    out=digits[start:stop])
        kept = ~fallback[start:stop]
        if kept.any():  # the columns the digits of this chunk use
            spans.append((first[kept].min(), unit[kept].min(), unit[kept].max(), last[kept].max()))
    where = np.flatnonzero(fallback)
    sign = np.signbit(x) * np.uint8(45)
    sign[where] = 0
    columns = [sign[:, None] if sign.any() else np.zeros((rows, 0), dtype=np.uint8)]
    if spans:  # integer columns lo..point - 1, fraction columns fraction..hi - 1
        lo, unit_lo, unit_hi, hi = np.array(spans).T
        lo, point, fraction, hi = lo.min(), unit_hi.max() + 1, unit_lo.min() + 1, hi.max() + 1
        columns += [digits[:, lo:point], np.full((rows, 1), 46, dtype=np.uint8),
                    digits[:, fraction:hi]]
    out = np.concatenate(columns, axis=1)
    if spans:  # a column in both ranges holds integer digits of some rows, fraction digits of others
        dot = columns[0].shape[1] + point - lo
        for column in range(fraction, point):
            integer = units >= column
            left, right = out[:, dot - point + column], out[:, dot + 1 + column - fraction]
            np.multiply(left, integer.view(np.uint8), out=left)
            np.multiply(right, (~integer).view(np.uint8), out=right)
    if len(where):
        text = _repr_rows(x[where])
        if text.shape[1] > out.shape[1]:
            out = np.pad(out, ((0, 0), (0, text.shape[1] - out.shape[1])))
        out[where] = 0
        out[where, :text.shape[1]] = text
    return out
