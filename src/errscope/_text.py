"""The one row writer of the CSV, the JSON points and the SVG shapes: each field of a row
template fills a byte matrix and a mask of the bytes each row keeps, and one masked copy
joins them. %r writes repr's text, with digits from a shortest-digit kernel after Dragonbox
(Jeon 2024) in 64-bit integer arithmetic, one 64-by-64-bit product per float, read from a
table built on first use: no Python call per float, and one pass of that kernel over each
chunk; only a subnormal goes through repr, one at a time. %m, an SVG shape coordinate,
writes v at a fixed step of 10^-3: m = rint(v 1000) as m 10^-3, trailing zeros and then a
bare point dropped, "-" only when m < 0. %s takes a column of texts already in bytes:
Strings, or a (rows, width) uint8 array of fixed-width texts. No Python str per row.
"""

from __future__ import annotations

import re
from functools import cache

import numpy as np

# Rows written at a time: it bounds a writer's memory, not its bytes. A chunk is also one
# pass of the digit kernel, which keeps its temporaries small.
ROW_CHUNK = 1 << 12
_M32, _M64 = 0xFFFFFFFF, (1 << 64) - 1
_POW10 = 10 ** np.arange(18, dtype=np.uint64)
_SPEC = re.compile(r"%(r|s|m)")


@cache
def _dragonbox_table() -> tuple[np.ndarray, np.ndarray]:
    """The scales of the %r kernel by biased exponent E of a double c 2^q, q = E - 1075, for
    E from 0 to 2047 (E 0 as E 1). uint64 rows: the high word H of phi = ceil(10^k 2^(127 -
    floor(k log2 10))) for k = 2 - floor(q log10 2), H's two 32-bit halves, the high half of
    phi's low word, beta = q + floor(k log2 10), the interval width delta = 2^q 10^k
    rounded down (H >> (63 - beta)), phi's low word, and the d of 2^(q + 52); int64 rows: 3
    - k, and the k of 2^(q + 52), from Dragonbox's shift-only branch for the interval of a
    power of two, whose gap below is half the gap above."""
    phi = {}
    for k in range(-292, 327):
        b = (k * 913124641741) >> 38
        phi[k] = -(-(10 ** max(k, 0) << max(127 - b, 0)) // (10 ** max(-k, 0) << max(b - 127, 0)))

    def columns():
        for e in range(2048):
            q = max(e, 1) - 1075
            k = 2 - ((q * 661971961083) >> 41)
            beta = q + ((k * 913124641741) >> 38)
            h, low = phi[k] >> 64, phi[k] & _M64
            # 2^(q + 52) 10^k' for k' = -floor(q log10 2 - log10 4/3) is H' 2^(beta' - 11).
            k2 = -((q * 661971961083 - 274743187321) >> 41)
            beta2, h2 = q + ((k2 * 913124641741) >> 38), phi[k2] >> 64
            lower = ((h2 - (h2 >> 54)) >> (11 - beta2)) + (not 2 <= q <= 3)  # whole only there
            upper = (h2 + (h2 >> 53)) >> (11 - beta2)
            d = ((h2 >> (10 - beta2)) + 1) >> 1  # v 10^k', rounded half up
            d = d - d % 2 if q == -77 else d + (d < lower)  # q = -77 gives the one exact tie
            if upper // 10 * 10 >= lower:
                d, k2 = upper // 10, k2 - 1
            # The int64 rows as their two's complement.
            yield (h, h & _M32, h >> 32, low >> 32, beta, h >> (63 - beta), low, d,
                   (3 - k) & _M64, -k2 & _M64)

    # Filled a column at a time: no list of 20,000 Python ints outlives the build.
    table = np.ascontiguousarray(np.fromiter(columns(), dtype=(np.uint64, 10), count=2048).T)
    return table[:8], table[8:].view(np.int64)


def _low_words(f: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two low words of the 192-bit f phi, phi = hi 2^64 + lo: its fraction below 2^128."""
    f0, f1, l0, l1 = f & _M32, f >> 32, lo & _M32, lo >> 32
    p01, p10 = f0 * l1, f1 * l0
    mid = ((f0 * l0) >> 32) + (p01 & _M32) + (p10 & _M32)
    return f * hi + f1 * l1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32), f * lo


def _parity(f: np.ndarray, exponent: np.ndarray,
            beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each f and biased exponent E: the low bit of f 2^(q - 1) 10^k rounded down, read
    as floor(f phi 2^beta / 2^128), and whether f 2^(q - 1) 10^k is whole."""
    words = _dragonbox_table()[0]
    w1, w0 = _low_words(f, words[0].take(exponent), words[6].take(exponent))
    return (w1 >> (64 - beta)) & 1 == 1, ((w1 << beta) | (w0 >> (64 - beta))) == 0


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, k): d 10^k is the shortest decimal that rounds to each positive normal double,
    the closest such when there are several (ties to even d), from its IEEE bits: one
    product of 64 by 64 bits per double, after Dragonbox (Jeon 2024, "Dragonbox: A New
    Floating-Point Binary-to-Decimal Conversion Algorithm") with kappa = 2."""
    exponent = bits.view(np.int64) >> 52
    words, ints = _dragonbox_table()
    hi, h0, h1, l1, beta, delta = (row.take(exponent) for row in words[:6])
    c = bits & ((1 << 52) - 1)
    # z = floor(u phi / 2^128), u = (2c + 1) 2^beta with c's hidden bit, is the upper end
    # of the interval of decimals that round to v, times 10^k. Its high word comes from u H
    # in 32-bit halves. u times phi's low word may carry into it: u's high half times that
    # word's reads short by less than 2^33, so only a sum that close to 2^64 needs the
    # exact low words.
    u = ((c << 1) | ((1 << 53) + 1)) << beta
    u0, u1 = u & _M32, u >> 32
    p01 = u0 * h1
    z = u1 * h1 + (p01 >> 32) + (((u0 * h0) >> 32) + u1 * h0 + (p01 & _M32) >> 32)
    low = u * hi
    mid = low + u1 * l1
    z += mid < low
    i = np.flatnonzero(mid >= 2**64 - 2**33)
    if i.size:
        z[i] += _low_words(u[i], hi[i], words[6].take(exponent[i]))[0] < low[i]
    # The interval, delta wide, holds 1000 s (one digit fewer) when the rest r is below delta.
    s = z // 1000
    r = z - 1000 * s
    small = r > delta
    # With c odd the interval leaves out its upper end, which is 1000 s when z is whole.
    i = np.flatnonzero((r == 0) & (c & 1 == 1))
    if i.size:
        i = i[_low_words(u[i], hi[i], words[6].take(exponent[i]))[0] == 0]
        s[i] -= 1
        r[i], small[i] = 1000, True
    # At r == delta, 1000 s is the lower end rounded: that end's low bit and fraction tell
    # whether it lies in the interval, which holds its lower end when c is even.
    i = np.flatnonzero(r == delta)
    odd, whole = _parity((c[i] << 1) + ((1 << 53) - 1), exponent[i], beta[i])
    small[i] = ~odd & ~(whole & (c[i] & 1 == 0))
    # Else d is v 10^k rounded: 10 s + t with t = dist / 100, dist = r - delta / 2 + 50.
    # When 100 divides dist that may be one too many, as the low bit of y = v 10^k tells,
    # and a whole y is a tie, which goes to the even d.
    dist = r - (delta >> 1) + 50
    t = (dist * 5243) >> 19  # dist // 100 while dist < 43699
    d = np.where(small, 10 * s + t, s)
    i = np.flatnonzero(small & (dist == 100 * t))
    odd, whole = _parity((c[i] << 1) | (1 << 53), exponent[i], beta[i])
    d[i] -= (odd != ((dist[i] ^ 50) & 1 == 1)) | (whole & (d[i] & 1 == 1))
    k = ints[0].take(exponent) - small
    # A power of two, but the least normal, has a gap below half the gap above: its (d, k)
    # come from the table.
    i = np.flatnonzero(c == 0)
    i = i[exponent[i] > 1]
    d[i], k[i] = words[7].take(exponent[i]), ints[1].take(exponent[i])
    return d, k


# A %r field is 15 words: "-0.000" (a sign, then "0." and zeros); "000" and the 17 digits,
# trailing zeros as padding; a decimal point; the digits again; the exponent, as in "e-308".
_R_HEAD = np.frombuffer(b"-0.000".ljust(28, b"\0") + b".".ljust(32, b"\0"), dtype=np.uint8)
_FIXED, _ZERO = 20, 24  # subclasses 0..19 are fixed forms, decpt -3..16; 20..23 exponents


@cache
def _repr_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """"0000" to "9999" as words, their trailing zeros, "e-324" to "e+308" as word pairs,
    the mask words of each layout class (sign * 25 + subclass) * 18 + digits, and 18 times
    the subclass of each decpt from -323 to 309: as in repr, fixed form when -4 < decpt <=
    16, ".0" after an integer, else d[.ddd]e+XX[X]."""
    quads = np.frombuffer(b"".join(b"%04d" % i for i in range(10_000)), dtype=np.uint8)
    zeros = np.cumprod(quads.reshape(-1, 4)[:, ::-1] == ord("0"), axis=1).sum(axis=1)
    keep = np.zeros((2, 25, 18, 60), dtype=bool)
    for sign, sub, nsig in np.ndindex(2, 25, 18):
        cols = [0] * sign
        if sub <= 3:  # 0.000ddd
            cols += [*range(1, 6 - sub), *range(11, 11 + nsig)]
        elif sub < _FIXED:  # ddd.ddd, or ddd.0 from the padding
            decpt = sub - 3
            cols += [*range(11, 11 + decpt), 28, *range(35 + decpt, 35 + max(nsig, decpt + 1))]
        elif sub < _ZERO:
            cols += [11] + [28, *range(36, 35 + nsig)] * (nsig > 1)
            cols += range(52, 56 + (sub - _FIXED) % 2)
        else:
            cols += [1, 2, 3]  # 0.0
        keep[sign, sub, nsig, cols] = True
    exponents = b"".join((b"e%+03d" % e).ljust(8) for e in range(-324, 309))
    decpt = np.arange(-323, 310)
    forms = np.where((decpt > -4) & (decpt <= 16), decpt + 3,
                     _FIXED + 2 * (decpt < 1) + (np.abs(decpt - 1) >= 100))
    return (quads.view(np.uint32), zeros.astype(np.uint8),
            np.frombuffer(exponents, dtype=np.uint32).reshape(-1, 2),
            keep.view(np.uint32).reshape(-1, 15), 18 * forms)


def _repr_block(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(digit words, exponent words, mask words) of each finite float64."""
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    sign = (bits >> 63).astype(np.intp)
    bits = bits & ((1 << 63) - 1)
    tiny = bits < (1 << 52)  # zeros and subnormals; 1.0 stands in for them
    d, k = _shortest(np.where(tiny, np.uint64(0x3FF0000000000000), bits))
    nd = 15 + (d >= _POW10[15]) + (d >= _POW10[16])  # a normal's d has 15 to 17 digits
    d17, decpt = d * _POW10[17 - nd], nd + k
    # The kernel sets c's hidden bit, which a subnormal lacks: repr gives its digits.
    for i in np.flatnonzero(tiny & (bits != 0)).tolist():
        mantissa, _, exponent = repr(abs(x[i].item())).partition("e")
        d17[i], decpt[i] = int(mantissa.replace(".", "").ljust(17, "0")), int(exponent) + 1
    # One uint64 division, then uint32: the low 8 digits are d17 - 10^8 upper modulo 2^32.
    upper = (d17 // 10**8).astype(np.uint32)
    top = upper // 10**8
    hi, lo = upper - top * 10**8, d17.astype(np.uint32) - upper * 10**8
    hi4, lo4 = hi // 10**4, lo // 10**4
    quads = np.stack([top, hi4, hi - hi4 * 10**4, lo4, lo - lo4 * 10**4])  # a row per group
    quad_words, quad_zeros, exponents, layouts, forms = _repr_tables()
    _, z1, z2, z3, z4 = quad_zeros.take(quads)  # the first group, "000d", ends in a nonzero digit
    nsig = 17 - z4 - (z4 == 4) * (z3 + (z3 == 4) * (z2 + (z2 == 4) * z1))
    form = np.where(bits == 0, 18 * _ZERO, forms.take(decpt + 323)) + 450 * sign + nsig
    return (quad_words.take(quads.T), exponents.take(decpt + 323, axis=0),
            layouts.take(form, axis=0))


# A %m field is 6 words: a sign and three bytes of padding, the integer part as four "%04d"
# groups, and the fraction as one, its leading 0 overwritten with ".". Below M_BOUND, v 1000
# is below 2^53, where doubles are at most 1 apart: m is v to the step, in 13 digits or fewer.
_M_HEAD = np.frombuffer(b"-".ljust(24, b"\0"), dtype=np.uint8)
M_BOUND = 2.0**53 / 1000


@cache
def _fixed_layouts() -> np.ndarray:
    """The mask words of each %m layout class (sign * 16 + digits - 1) * 5 + z: the sign,
    the integer part's last digits, then "." and 3 - z fraction digits (nothing for z = 4)."""
    sign, digits, z, col = np.ix_(range(2), range(1, 17), range(5), range(24))
    keep = (col == 0) & (sign == 1) | (20 - digits <= col) & (col < 24 - z)
    return keep.view(np.uint32).reshape(-1, 6)


def _fixed_block(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(digit words, mask words) of each float64 below M_BOUND in magnitude."""
    m = np.rint(x * 1000.0)
    whole, fraction = np.divmod(np.abs(m).astype(np.uint64), 1000)
    upper, lower = np.divmod(whole, 10**8)
    quads = np.stack([*np.divmod(upper, 10**4), *np.divmod(lower, 10**4), fraction])
    quad_words, quad_zeros = _repr_tables()[:2]
    digits = np.searchsorted(_POW10[1:], whole, side="right")  # of the integer part, less 1
    z = quad_zeros.take(fraction)  # trailing zeros of "0fff": 4 only for a fraction of 0
    return (quad_words.take(quads.T),
            _fixed_layouts().take(((m < 0) * 16 + digits) * 5 + z, axis=0))


class Strings:
    """A column of texts as one array of their UTF-8 bytes, a lone surrogate encoded as by
    surrogatepass: text i is blob[offsets[i]:offsets[i + 1]]."""

    __slots__ = ("blob", "offsets")

    def __init__(self, blob: np.ndarray, offsets: np.ndarray):
        self.blob = blob  # uint8
        self.offsets = offsets  # (n + 1,) int64, non-decreasing

    @classmethod
    def of(cls, texts) -> Strings:
        """The column of an iterable of str, encoded in one pass."""
        texts = texts if isinstance(texts, (list, tuple)) else list(texts)
        blob = "".join(texts).encode("utf-8", "surrogatepass")
        lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
        if len(blob) != lengths.sum():  # some character takes more than one byte
            lengths = np.fromiter((len(t.encode("utf-8", "surrogatepass")) for t in texts),
                                  dtype=np.int64, count=len(texts))
        offsets = np.zeros(len(texts) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return cls(np.frombuffer(blob, dtype=np.uint8), offsets)

    @classmethod
    def numbered(cls, prefix: str, n: int) -> Strings:
        """prefix + str(i) for i in range(n): the rows of one digit count at a time, the
        digits from the "%04d" table."""
        head = np.frombuffer(prefix.encode("utf-8", "surrogatepass"), dtype=np.uint8)
        quads = _repr_tables()[0].view(np.uint8).reshape(-1, 4)
        blocks, lengths = [np.empty(0, dtype=np.uint8)], [np.empty(0, dtype=np.int64)]
        for d in range(1, len(str(max(n - 1, 0))) + 1):
            i = np.arange(10 ** (d - 1) * (d > 1), min(n, 10 ** d))
            rows = np.empty((i.size, head.size + d), dtype=np.uint8)
            rows[:, :head.size] = head
            for end in range(rows.shape[1], head.size, -4):  # the last four digits first
                width = min(4, end - head.size)
                rows[:, end - width:end] = quads[i % 10_000, 4 - width:]
                i //= 10_000
            blocks.append(rows.ravel())
            lengths.append(np.full(rows.shape[0], rows.shape[1]))
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.concatenate(lengths), out=offsets[1:])
        return cls(np.concatenate(blocks), offsets)

    def __len__(self) -> int:
        return self.offsets.size - 1

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, bytes of the longest text): the byte matrix the texts fill as a %s field."""
        return len(self), int(np.diff(self.offsets).max(initial=0))

    def __getitem__(self, rows: slice) -> Strings:
        """The texts of a slice of rows, sharing this blob."""
        if not isinstance(rows, slice) or rows.step not in (None, 1):
            raise TypeError(f"Strings takes a slice of step 1, not {rows!r}")
        start, stop, _ = rows.indices(len(self))
        return Strings(self.blob, self.offsets[start:max(start, stop) + 1])

    def tolist(self) -> list[str]:
        raw = self.blob[self.offsets[0]:self.offsets[-1]].tobytes()
        bounds = (self.offsets - self.offsets[0]).tolist()
        return [raw[a:b].decode("utf-8", "surrogatepass") for a, b in zip(bounds, bounds[1:])]


# Each number field's bytes, its width long, with the bytes no row changes written in: a
# buffer takes them once, as it takes the literals.
_HEADS = {"r": _R_HEAD, "m": _M_HEAD}


def _rows(a: np.ndarray) -> np.ndarray:
    """A (rows, k) array, or a field's view of a buffer, as one item of its k bytes a row:
    numpy copies these items faster than k narrow columns."""
    return a.view(np.dtype((np.void, a.shape[1] * a.itemsize)))[:, 0]


def _put(spec: str, column, text: np.ndarray, keep: np.ndarray) -> None:
    """Fill one field of a chunk: text and keep are its (rows, width) views, whose head
    bytes row_chunks wrote."""
    if spec == "m":
        _rows(text[:, 4:])[:], _rows(keep)[:] = map(_rows, _fixed_block(column))
        text[:, 20] = ord(".")
    elif spec == "r":
        digits, _rows(text[:, 52:])[:], _rows(keep)[:] = map(_rows, _repr_block(column))
        _rows(text[:, 8:28])[:] = _rows(text[:, 32:52])[:] = digits
    elif isinstance(column, np.ndarray):  # fixed-width texts: every byte is written
        text[:], keep[:] = column, True
    elif width := keep.shape[1]:  # Strings, not all empty: each text's bytes at a row's start
        # The width + 1 windows, one byte apart, of width ones then width zeros: window j
        # keeps the first width - j bytes of a row.
        windows = np.arange(2 * width) < width
        masks = np.ndarray((width + 1,), np.dtype((np.void, width)), windows, 0, (1,))
        _rows(keep)[:] = masks[width - np.diff(column.offsets)]
        text[keep] = column.blob[column.offsets[0]:column.offsets[-1]]


def row_chunks(template: str, *columns):
    """template % row for the rows of the equal-length columns, one string per chunk: %r
    takes finite floats, %m floats below M_BOUND in magnitude, %s Strings or a (rows,
    width) uint8 array of fixed-width texts; no literal has %. Every field is filled on its
    own by _put, a %r or %m one by one pass of its kernel over the chunk."""
    parts, n = _SPEC.split(template), len(columns[0])
    specs = parts[1::2]
    # Each literal, then its field, takes the next byte columns; a number field starts on a word.
    spans, end = [], 0
    for i, literal in enumerate(parts[::2]):
        spans.append((end, np.frombuffer(literal.encode(), dtype=np.uint8)))
        end += spans[-1][1].size
        if i < len(columns):
            head = _HEADS.get(specs[i])
            width = columns[i].shape[1] if head is None else head.size
            end += -end % 4 * (head is not None)
            spans.append((end, width))
            end += width
    # Each buffer stays under 4 MB: wide rows, as a long string makes, come fewer to a chunk.
    step = max(1, min(ROW_CHUNK, n, (1 << 22) // (end + 1)))
    text = np.zeros((step, end + -end % 4), dtype=np.uint8)
    keep = np.zeros(text.shape, dtype=bool)
    for a, literal in spans[::2]:
        text[:, a:a + literal.size], keep[:, a:a + literal.size] = literal, True
    for spec, (a, width) in zip(specs, spans[1::2]):
        if spec in _HEADS:
            text[:, a:a + width] = _HEADS[spec]
    for start in range(0, n, step):
        m = min(step, n - start)
        rows = slice(start, start + m)
        for spec, column, (a, width) in zip(specs, columns, spans[1::2]):
            _put(spec, column[rows], text[:m, a:a + width], keep[:m, a:a + width])
        yield str(text[:m][keep[:m]], "utf-8", "surrogatepass")
