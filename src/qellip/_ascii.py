"""The counts CSV and the report residuals written over arrays, equal byte for
byte to the % formatting in qellip.cli, or None where that is not proven.

A row is built as a fixed number of uint32 words of ASCII, four bytes each.
Digits come three to a word from one table of the triples 000 to 999, in
variants where leading or trailing zeros are NUL; the fourth byte of a word
is NUL, or the separator that follows the field.  Every unused byte is NUL,
and one bytes.translate drops them all.

Exactness.  A field is the integer nearest x·10^d for a d of at most 22, so
10^d is exact in a double and y = fl(|x|·10^d) comes from one rounding.
Below 2**52 every half-integer m + 1/2 is a double and rounding to nearest
is monotone, so rint(y) is the integer nearest the exact product, which is
what CPython's correctly rounded formatting prints, unless y is exactly
m + 1/2.  There the exact product may lie either side of the midpoint (or
on it, to be broken to even on the exact value), and None is returned.
For %.9g the same rint also decides whether the rounding carries into the
next power of ten, so that y must not be a midpoint either.

Domain, outside which None is returned (and cli writes the text by its
definition):
- "%.6f": finite float64 with |x|·10^6 < 2**52;
- "%d": every non-negative int64;
- %.9g residuals: float64 that are 0 or have 1e-14 <= |r| < 1e8, written
  as cli._residual_block writes them.  The double nearest 1e-14 lies below
  10^-14 and is outside.
The range is checked before anything is scaled, so nothing overflows.
"""

import numpy as np


def _words(text: str):
    """ASCII text as one row of uint32 words, NUL-padded to a multiple of
    four bytes."""
    data = text.encode("ascii")
    return np.frombuffer(data + b"\0" * (-len(data) % 4), np.uint32)[None]


def _triples():
    """The table of words: the value v in 0..999 at FULL + v as "ddd", and
    in variants with zeros NUL: at LEAD the leading ones (0 is "0"), at
    TRAIL the trailing ones (0 is "0"), and at LEAD_NUL and TRAIL_NUL the
    same with 0 all NUL."""
    v = np.arange(1000)[:, None]
    digits = (v // np.array([100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    place = np.arange(3)
    lead = digits * (place >= 2 - (v >= 10) - (v >= 100))
    trail = digits * (place < 1 + (v % 100 != 0) + (v % 10 != 0))
    table = np.zeros((5, 1000, 4), np.uint8)
    table[:, :, :3] = digits, lead, trail, lead, trail
    table[3:, 0] = 0
    return table.view(np.uint32).ravel()


_TABLE = _triples()
LEAD, TRAIL, LEAD_NUL, TRAIL_NUL = 1000, 2000, 3000, 4000  # FULL is at 0
_END = {sep: _words("\0\0\0" + sep)[0, 0] for sep in ".,\n"}  # a word's last byte
_MINUS = _words("-")[0, 0]
_POW10 = 10 ** np.arange(19, dtype=np.int64)
# 1e-14 to 1e7: each literal is its power of ten or, where it rounds below
# it (1e-14, 1e-12, 1e-11, 1e-7 and 1e-6), the double just above, so that
# |r| >= _EXP_FROM[k] exactly where |r| >= 10^(k - 14)
_EXP_FROM = np.array([float(f"1e{k}") for k in range(-14, 8)])
_EXP_FROM[[0, 2, 3, 7, 8]] = np.nextafter(_EXP_FROM[[0, 2, 3, 7, 8]], 1.0)
_SCALE = np.array([float(10**k) for k in range(23)])  # exact powers of ten
# at e + 14 the word that ends %.9g's exponent form: "e-14" to "e-05" for
# e = -14 to -5, then NUL for e = -4 to 8
_EXP_WORD = _words("e-14e-13e-12e-11e-10e-09e-08e-07e-06e-05" + "\0" * 52)[0]


def _groups(v, count: int):
    """v (int64, 0 <= v < 1000**count) as count base-1000 digits, least
    significant first, each with what is above it: v // 1000**(k + 1)."""
    groups = []
    for _ in range(count):
        above = v // 1000
        groups.append((v - above * 1000, above))
        v = above
    return groups


def _count(v) -> int:
    """Triples needed for the largest value of v (int64, >= 0)."""
    return int(np.searchsorted(_POW10[3::3], v.max(), side="right")) + 1


def _integer(v):
    """Words of v (int64, >= 0) as "%d" writes it, leading zeros NUL."""
    words = []
    for k, (g, above) in enumerate(_groups(v, _count(v))):
        words.append(_TABLE[g + (above == 0) * (LEAD if k == 0 else LEAD_NUL)])
    return words[::-1]


def _padded(v, count: int):
    """Words of v (int64, 0 <= v < 1000**count) with its leading zeros."""
    return [_TABLE[g] for g, _ in _groups(v, count)[::-1]]


def _trimmed(v, count: int, top=TRAIL):
    """Words of v (int64, 0 <= v < 1000**count) as 3·count digits with
    leading zeros, the trailing zeros NUL down to at least one digit, or
    down to none where top is TRAIL_NUL."""
    words, zero_below = [], True
    for k, (g, _) in enumerate(_groups(v, count)):
        words.append(_TABLE[g + zero_below * (top if k == count - 1 else TRAIL_NUL)])
        zero_below = zero_below & (g == 0)
    return words[::-1]


def _on_midpoint(y, q) -> bool:
    """Whether some y (all below 2**52) is exactly m + 1/2, given q = rint(y)."""
    return bool((np.abs(y - q) == 0.5).any())


def _fixed6(x):
    """Words of x (float64) as "%.6f" writes it, or None."""
    if x.dtype != np.float64:
        return None
    a = np.abs(x)
    if not (a < 5e9).all():  # also false for NaN and infinities
        return None
    y = a * 1e6
    q = np.rint(y)
    if not (y < 2.0**52).all() or _on_midpoint(y, q):
        return None
    q = q.astype(np.int64)
    whole = q // 10**6
    frac = q - whole * 10**6
    words = _integer(whole)
    words[-1] = words[-1] | _END["."]
    sign = np.signbit(x)
    if sign.any():
        words.insert(0, _MINUS * sign)
    return words + _padded(frac, 2)


def _digits(k):
    """Words of k (int64) as "%d" writes it, or None."""
    if k.dtype != np.int64 or not (k >= 0).all():
        return None
    return _integer(k)


_FIELDS = {"%.6f": _fixed6, "%d": _digits}


def _text(words, n: int) -> str:
    """n rows of the words side by side, with the NUL bytes dropped.  A word
    is a column of n, or one row of words that every row repeats."""
    widths = [w.shape[1] if w.ndim == 2 else 1 for w in words]
    data = bytearray(4 * n * sum(widths))  # filled in place, so never copied
    rows = np.frombuffer(data, np.uint32).reshape(n, -1)
    j = 0
    for w, width in zip(words, widths):
        rows[:, j:j + width] = w if w.ndim == 2 else w[:, None]
        j += width
    return data.translate(None, b"\0").decode("ascii")


def csv_text(header: str, formats, columns):
    """cli._csv_text(header, formats, columns), or None outside the domain.

    A column whose values are all equal bitwise is written once by its %
    format, as cli._csv_text bakes it into the row format.
    """
    n = len(columns[0])
    if not n:
        return header + "\n"
    words = []
    for j, (fmt, column) in enumerate(zip(formats, columns)):
        end = "\n" if j == len(formats) - 1 else ","
        bits = column.view(np.uint64)  # float64 and int64 columns
        if (bits == bits[0]).all():
            words.append(_words((fmt % column[0].item()) + end))
            continue
        field = _FIELDS[fmt](column) if fmt in _FIELDS else None
        if field is None:
            return None
        field[-1] = field[-1] | _END[end]
        words += field
    return header + "\n" + _text(words, n)


def residual_block(r):
    """cli._residual_block(r) for a float64 array r, or None outside the
    domain (an empty r included): r = 0 or 10^-14 <= |r| < 1e8 for each value.

    Each value is its nine significant digits q = rint(|r|·10^(8 - e)), where
    e is the decimal exponent of |r|, so that 10**8 <= q <= 10**9, and a zero
    has e = q = 0.  Where q is 10**9 the rounding carried: the digits are then
    10**8 and e is one higher, as %.9g takes its exponent after rounding.  From
    e = -4 up, the point goes after digit e + 1, or "0." and -e - 1 zeros come
    first where e < 0, and trailing zeros of the fraction are cut, down to one:
    12 reads "12.0" and -0.0 "-0.0", as json writes them.  Below e = -4, %.9g
    and repr both write the exponent form: the point after the first digit, the
    fraction cut down to none (and then no point), and "e-05" to "e-14".
    """
    n = len(r)
    a = np.abs(r)
    if not (n and (((a >= _EXP_FROM[0]) | (a == 0)) & (a < 1e8)).all()):  # also false for NaN
        return None
    e = np.where(a == 0, 0, np.searchsorted(_EXP_FROM, a, side="right") - 15)
    y = a * _SCALE[8 - e]
    q = np.rint(y)
    if _on_midpoint(y, q):
        return None
    carried = q == 1e9
    e += carried
    q = np.where(carried, 10**8, q.astype(np.int64))
    exponent = e < -4
    point, dot, top, tail = e, _END["."], TRAIL, []  # the point follows digit point + 1
    if exponent.any():
        bare = exponent & (q % 10**8 == 0)  # "1e-05": no point, no fraction digits
        point = np.where(exponent, 0, e)
        dot = np.where(bare, 0, dot)
        top = np.where(bare, TRAIL_NUL, TRAIL)
        tail = [_EXP_WORD[e + 14]]
    p = _POW10[8 - point]
    whole = q // p
    # the 8 - point digits after the point, then zeros up to whole triples
    count = max(1, -((int(point.min()) - 8) // 3))
    frac = (q - whole * p) * _POW10[3 * count - 8 + point]
    words = _integer(whole)
    words[-1] = words[-1] | dot
    sign = np.where(np.signbit(r), _words("  -")[0, 0], _words("  ")[0, 0])
    words = [_words(",\n  "), sign, *words, *_trimmed(frac, count, top), *tail]
    return "[" + _text(words, n)[1:] + "\n  ]"
