"""``repr``'s text of float arrays, the shortest decimals that read back to the same floats.

The CLI writes ``decompose``, ``bounds``, ``spectrum`` and ``sweep`` CSV and JSON as
byte grids; ``float_text`` gives a float array as uint8 text along a new last axis, where
each value's bytes, 0 bytes dropped, are its ``repr``. ``shortest`` computes the digits of a
whole column at once, for every |x| in ``RANGE`` = [1e-280, 1e280): the value is scaled to
about 17 integer digits by 10^k, stored as a double-double ``hi + lo`` (exactly ``hi`` for k
in 0..22), with Dekker's error-free product (Numer. Math. 18, 1971) on ``hi``, and the
shortest-digits test of Ryu (Adams, PLDI 2018) picks the digits. Outside [1e-4, 1e16) the
kernel writes ``repr``'s exponent form (``1e-05``, ``1.2345e-07``, ``5.5e+123``) in each
chunk that holds ``WIDE`` such values or more. ``repr`` itself writes the values the kernel
leaves out, in one bulk call, and every column of fewer than ``SHORT`` values, where that
call is faster than the kernel's fixed cost.

The CLI imports this module on its first float column, so that the jobs that
write none (``bounds`` as a text table, the library) never compile it; the kernel's
tables are built on the first column of ``SHORT`` values or more.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["CHUNK", "EDGE_BAND", "RANGE", "SHORT", "WIDE", "float_text", "shortest"]

#: values ``float_text`` writes at a time: the kernel's temporaries stay in cache
CHUNK = 2 ** 12
#: columns of fewer values go through ``repr`` alone: below about 200 values the bulk
#: ``repr`` call beats the kernel's fixed cost of about 80 us (2-CPU Xeon, numpy 2.4)
SHORT = 200
#: relative half-width of the band around the edge of a rounding interval where the
#: computed distance of a candidate does not decide whether it round-trips
EDGE_BAND = 1e-9
#: the |x| the kernel writes; repr writes the others
RANGE = (1e-280, 1e280)
#: a chunk writes its values in ``RANGE`` outside [1e-4, 1e16) itself when it holds at least
#: WIDE of them and one in 32 of its values, else leaves them to repr, whose bulk call beats
#: the exponent form's cost below that: 30 us and 17 ns a value against 0.8 us a value
#: (2-CPU Xeon, numpy 2.4; the break-even was 48 values in a 250-value chunk, 100-128 in 4,000)
WIDE = 48


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of doubles into a high and a low half of 26 bits each."""
    high = v * 134217729.0  # 2^27 + 1
    high -= high - v
    return high, v - high


def _product(a: np.ndarray, b: np.ndarray, b_high: np.ndarray, b_low: np.ndarray) -> tuple:
    """``a b = p + err`` exactly, by Dekker's TwoProduct on b's halves ``b_high + b_low``."""
    a_high, a_low = _split(a)
    p = a * b
    return p, ((a_high * b_high - p) + a_high * b_low + a_low * b_high) + a_low * b_low


def _scaling() -> tuple:
    """What scales |x| in ``RANGE`` by 10^k, k in -264..297.

    ``powers`` holds 10^j for j = 0..297, then -280..-1, so that column k is
    10^k for either sign of k (as Python indexes): hi, the nearest double; its
    Dekker halves; hi 2^-53; lo, with hi + lo within 2e-32 of 10^j relatively
    (lo is 0 for j in 0..22, where hi is exact). 10^j is 10^(22q) from Python
    ints times the exact double 10^r, by Dekker's product. ``ks`` and
    ``bounds`` are indexed by the biased exponent of |x|: a binade [2^e,
    2^(e+1)) holds at most one power of ten, 10^(g+1) with g = floor(e log10
    2), and k is 16 - g below it and 15 - g from it on, so that |x| 10^k lies
    in [1e16, 1e17) (just below where |x| is the double nearest a power of
    ten and under it). Binades outside ``RANGE`` get the k and bound of its
    ends; they are never looked up.
    """
    j = np.r_[0:298, -280:0]
    q, r = np.divmod(j, 22)
    blocks = []
    for block in range(q.min(), q.max() + 1):
        num, den = (10 ** (22 * block), 1) if block >= 0 else (1, 10 ** (-22 * block))
        h = num / den  # int division rounds correctly
        h_num, h_den = h.as_integer_ratio()
        blocks.append((h, (num * h_den - h_num * den) / (den * h_den)))
    block_hi, block_lo = np.array(blocks)[q - q.min()].T
    ten = np.array([float(10 ** e) for e in range(22)])[r]
    p, err = _product(block_hi, ten, *_split(ten))
    err += block_lo * ten
    hi = p + err
    powers = np.stack([hi, *_split(hi), hi * 2.0 ** -53, err - (hi - p)])
    # exact: e log10 2 lies at least 4e-4 from an integer for 0 < |e| < 2136
    g = np.clip(np.floor(np.arange(-1023, 1025) * np.log10(2)), -281, 279).astype(np.intp)
    return powers, 16 - g, hi[g + 1]


@functools.cache  # built on the first column written, not at import
def _tables() -> tuple:
    """``_scaling()``; the four ASCII digits of 0..9999 as one uint32 each; the 0/1 byte
    masks of the column ranges [lo, hi] of a 24-column row, at row 24 lo + hi; 10^3 ... 10^17."""
    digit = np.arange(48, 58, dtype=np.uint8)
    quad = np.stack(np.meshgrid(digit, digit, digit, digit, indexing="ij"), axis=-1)
    column = np.arange(24)
    ranges = (column[:, None, None] <= column) & (column <= column[None, :, None])
    return (_scaling(), quad.view(np.uint32).ravel(), ranges.view(np.uint8).reshape(576, 24),
            10 ** np.arange(3, 18))


def shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shortest round-trip decimals of floats: ``|x| = n / 10^k`` with ``n`` integral.

    Returns ``(n, k, zeros, fallback)``: ``n`` has 16 to 18 digits and
    ``zeros`` trailing zeros; ``fallback`` marks where repr must write the
    value instead. For |x| in ``RANGE``, X = |x| 10^k lies in about [1e16,
    1e17), k from |x|'s binary exponent. With 10^k = hi + lo, Dekker's
    TwoProduct gives |x| hi exactly as p + err, p an even int64, and |x| lo
    is added to err. For k in 0..22 lo is 0 and X is exact; elsewhere (|x|
    below 1e-6 or from 1e16 on) X is within 5e-15 of its true value. A
    candidate m 10^j round-trips when it lies closer to X than 10^k ulp(x)/2,
    the half-width h of x's rounding interval (h > 1/2); the shortest digits
    are the nearest candidate of the largest j that does. The nearest integer
    (17 digits) always round-trips, the nearest multiples of 10 and of 100 are
    tested, and past 100 at most one multiple lies that close to X, so each
    further trailing zero of that multiple is one more level. Falls back:
    zero, non-finite and |x| outside ``RANGE``, |x| outside [1e-4, 1e16) in
    ``x`` with fewer than ``WIDE`` of them or one in 32 of its values (where
    repr is faster), powers of two (their interval is not symmetric), ties
    between two candidates (exact ties where lo is 0,
    within ``EDGE_BAND`` h of one where it is not), and distances within
    ``EDGE_BAND`` h of the interval's edge (h EDGE_BAND > 5e-10, far above
    the error of X).
    """
    (powers, ks, bounds), _, _, tens = _tables()
    a = np.abs(x)
    fallback = ~((a >= 1e-4) & (a < 1e16))  # repr writes an exponent, or zero, inf, nan
    wide = False  # enough values in RANGE outside [1e-4, 1e16) for the exponent form?
    if fallback.any():
        beyond = ~((a >= RANGE[0]) & (a < RANGE[1]))
        wide = np.count_nonzero(fallback & ~beyond) >= max(WIDE, len(a) // 32)
        if wide:
            fallback = beyond
    fallback |= a.view(np.int64) & (2 ** 52 - 1) == 0  # powers of two, zero and inf
    a[fallback] = 1.5
    binade = a.view(np.int64) >> 52
    k = np.take(ks, binade) - (a >= np.take(bounds, binade))
    scale, high, low, ulp = np.take(powers[:4], k, axis=1)
    p, err = _product(a, scale, high, low)
    half = (binade << 52).view(float) * ulp  # 10^k ulp(x) / 2
    band = half * EDGE_BAND
    tie = 0.0  # how close to a tie between two candidates X may be and still be decided
    if wide:
        lo = np.take(powers[4], k)
        err += a * lo
        tie = np.where(lo != 0, band, 0.0)
    near = np.rint(err)
    rest = err - near  # X = b + rest, |rest| <= 1/2
    b = p.astype(np.int64) + near.astype(np.int64)
    by10 = b // 10
    r1 = (b - by10 * 10).astype(float)
    r2 = (b - by10 // 10 * 100).astype(float)
    v1, v2 = r1 + rest, r2 + rest  # X less the multiple of 10 (100) at or below b
    up1, up2 = v1 > 5, v2 > 50
    d1 = np.abs(v1 - 10.0 * up1)  # the distance to the nearest multiple of 10, at most 5
    gap1 = d1 - half  # < 0: the nearest multiple round-trips
    gap2 = np.abs(v2 - 100.0 * up2) - half
    pass1 = gap1 < 0
    pass2 = pass1 & (gap2 < 0)
    fallback |= ((np.abs(gap1) <= band) | (pass1 & (np.abs(gap2) <= band))
                 | (np.abs(rest) >= 0.5 - tie) | (pass1 & (d1 >= 5 - tie)))
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
    A row repr writes with an exponent takes its leading digit as its ones
    digit, no point if that is its only digit (``1e-05``), and five more
    columns: ``e``, the exponent's sign and up to three of its digits.
    The fallbacks go through ``_repr_rows``, each over its whole row.
    """
    rows = len(x)
    _, quad, ranges, _ = _tables()
    digits = np.empty((rows, 24), dtype=np.uint8)
    units = np.empty(rows, dtype=np.int8)
    fallback = np.empty(rows, dtype=bool)
    spans, exponents = [], []
    for start in range(0, rows, CHUNK):
        stop = min(start + CHUNK, rows)
        n, k, zeros, fallback[start:stop] = shortest(x[start:stop])
        unit = 23 - k  # the column of the ones digit in n's 24 digits, 10^23 first
        top = n // 10 ** 16  # n has 16, 17 or 18 digits
        lead = 8 - (top > 0) - (top > 9)  # the column of the leading digit
        last = np.maximum(23 - zeros, unit + 1)  # the last nonzero digit or the tenths
        kept = ~fallback[start:stop]
        used = unit[kept]
        span = [used.min(), used.max()] if len(used) else None
        if span and (span[0] < 3 or span[1] > 22):  # |x| outside [1e-4, 1e16)
            exponent = unit - lead
            scientific = ((exponent < -4) | (exponent > 15)) & kept
            unit = np.where(scientific, lead, unit)  # d.ddde-05, de+16
            last = np.where(scientific, 23 - zeros, last)
            where = np.flatnonzero(scientific)
            exponents.append((start + where, exponent[where], last[where] == lead[where]))
            used = unit[kept]
            span = [used.min(), used.max()]
        first = np.minimum(lead, unit)  # the leading digit or the ones
        units[start:stop] = unit
        quads = np.empty((stop - start, 6), dtype=np.uint32)
        for place in range(5, 0, -1):
            over = n // 10000
            quads[:, place] = quad[n - over * 10000]
            n = over
        quads[:, 0] = quad[n]
        np.multiply(quads.view(np.uint8), np.take(ranges, first * 24 + last, axis=0),
                    out=digits[start:stop])
        if span:  # the columns the digits of this chunk use
            spans.append((first[kept].min(), *span, last[kept].max()))
    where = np.flatnonzero(fallback)
    sign = np.signbit(x) * np.uint8(45)
    sign[where] = 0
    columns = [sign[:, None] if sign.any() else np.zeros((rows, 0), dtype=np.uint8)]
    if spans:  # integer columns lo..point - 1, fraction columns fraction..hi - 1
        lo, unit_lo, unit_hi, hi = np.array(spans).T
        lo, point, fraction, hi = lo.min(), unit_hi.max() + 1, unit_lo.min() + 1, hi.max() + 1
        columns += [digits[:, lo:point], np.full((rows, 1), 46, dtype=np.uint8),
                    digits[:, fraction:hi]]
    if exponents:  # e, the sign and three digits, the first 0 below 100: e-05, e+16, e-123
        exponent_rows, exponent, bare = map(np.concatenate, zip(*exponents))
        magnitude = np.abs(exponent)
        suffix = np.zeros((rows, 5), dtype=np.uint8)
        suffix[exponent_rows] = np.stack([
            np.full_like(magnitude, 101), np.where(exponent < 0, 45, 43),
            np.where(magnitude < 100, 0, 48 + magnitude // 100),
            48 + magnitude // 10 % 10, 48 + magnitude % 10], axis=1)
        columns.append(suffix)
    out = np.concatenate(columns, axis=1)
    if spans:  # a column in both ranges holds integer digits of some rows, fraction digits of others
        dot = columns[0].shape[1] + point - lo
        for column in range(fraction, point):
            integer = units >= column
            left, right = out[:, dot - point + column], out[:, dot + 1 + column - fraction]
            np.multiply(left, integer.view(np.uint8), out=left)
            np.multiply(right, (~integer).view(np.uint8), out=right)
        if exponents:
            out[exponent_rows[bare], dot] = 0  # 1e-05, not 1.e-05
    if len(where):
        text = _repr_rows(x[where])
        if text.shape[1] > out.shape[1]:
            out = np.pad(out, ((0, 0), (0, text.shape[1] - out.shape[1])))
        out[where] = 0
        out[where, :text.shape[1]] = text
    return out
