"""The one row writer of the CSV, the JSON points and the SVG shapes: each field of a row
template fills a byte matrix and a mask of the bytes each row keeps, and one masked copy
joins them. %r writes repr's text, with digits from a shortest-digit kernel after Dragonbox
(Jeon 2024) in 64-bit integer arithmetic, one 64-by-64-bit product per float, read from a
table built on first use: no Python call per float, and one pass of that kernel over each
chunk; only a subnormal goes through repr, one at a time. %m, an SVG shape coordinate,
writes v at a fixed step of 10^-3: m = rint(v 1000) as m 10^-3, trailing zeros and then a
bare point dropped, "-" only when m < 0. %s takes a column of texts already in bytes:
Strings, or a (rows, width) uint8 array of fixed-width texts. No Python str per row.
Threads may write at once, and a writer with more than one chunk starts a helper thread,
which takes its chunks from a queue, whenever the process may run on more than one core:
each table is built once, by the first thread that asks.

decimals is the inverse of %r: it reads float64 values from the bytes of CSV cells, eight
digits to a 64-bit word, and rounds each with Eisel-Lemire's product by a 128-bit power of
five, from a table built on first use too. A cell outside its grammar goes through float().
Under the same rule, a helper thread takes chunks of cells too.
"""

from __future__ import annotations

import os
import queue
import re
import threading
from functools import cache, partial, wraps

import numpy as np

# Rows written at a time: it bounds a writer's memory, not its bytes. A chunk is also one
# pass of the digit kernel, which keeps its temporaries small.
ROW_CHUNK = 1 << 12
_M32, _M64 = 0xFFFFFFFF, (1 << 64) - 1
_POW10 = 10 ** np.arange(18, dtype=np.uint64)
_SPEC = re.compile(r"%(r|s|m)")


def _shared(build):
    """build's table, cached, for threads to share: the first call builds it under a lock,
    which another thread's first call waits on rather than build the table again."""
    table, lock = cache(build), threading.Lock()

    @wraps(build)
    def shared():
        with lock:
            return table()

    shared.cache_info = table.cache_info
    return shared


@_shared
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
    del h0, h1, u0, p01  # each array is dropped once used: blocks may be long
    low = u * hi
    mid = low + u1 * l1
    z += mid < low
    i = np.flatnonzero(mid >= 2**64 - 2**33)
    if i.size:
        z[i] += _low_words(u[i], hi[i], words[6].take(exponent[i]))[0] < low[i]
    del u1, l1, low, mid
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


@_shared
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
    """(digit words, exponent words, layout class) of each finite float64: _put takes the
    class's mask words, by far the largest, from the table as it fills the buffer."""
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    sign = (bits >> 63).astype(np.intp)
    bits = bits & ((1 << 63) - 1)
    tiny = bits < (1 << 52)  # zeros and subnormals; 1.0 stands in for them
    d, k = _shortest(np.where(tiny, np.uint64(0x3FF0000000000000), bits))
    nd = 15 + (d >= _POW10[15]) + (d >= _POW10[16])  # a normal's d has 15 to 17 digits
    d17, decpt = d * _POW10[17 - nd], nd + k
    del d, k, nd
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
    quad_words, quad_zeros, exponents, _, forms = _repr_tables()
    _, z1, z2, z3, z4 = quad_zeros.take(quads)  # the first group, "000d", ends in a nonzero digit
    nsig = 17 - z4 - (z4 == 4) * (z3 + (z3 == 4) * (z2 + (z2 == 4) * z1))
    form = np.where(bits == 0, 18 * _ZERO, forms.take(decpt + 323)) + 450 * sign + nsig
    return quad_words.take(quads.T), exponents.take(decpt + 323, axis=0), form


# A %m field is 6 words: a sign and three bytes of padding, the integer part as four "%04d"
# groups, and the fraction as one, its leading 0 overwritten with ".". Below M_BOUND, v 1000
# is below 2^53, where doubles are at most 1 apart: m is v to the step, in 13 digits or fewer.
_M_HEAD = np.frombuffer(b"-".ljust(24, b"\0"), dtype=np.uint8)
M_BOUND = 2.0**53 / 1000


@_shared
def _fixed_layouts() -> np.ndarray:
    """The mask words of each %m layout class (sign * 16 + digits - 1) * 5 + z: the sign,
    the integer part's last digits, then "." and 3 - z fraction digits (nothing for z = 4)."""
    sign, digits, z, col = np.ix_(range(2), range(1, 17), range(5), range(24))
    keep = (col == 0) & (sign == 1) | (20 - digits <= col) & (col < 24 - z)
    return keep.view(np.uint32).reshape(-1, 6)


def _fixed_block(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(digit words, layout class) of each float64 below M_BOUND in magnitude: _put takes
    the class's mask words from the table."""
    m = np.rint(x * 1000.0)
    whole, fraction = np.divmod(np.abs(m).astype(np.uint64), 1000)
    upper, lower = np.divmod(whole, 10**8)
    quads = np.stack([*np.divmod(upper, 10**4), *np.divmod(lower, 10**4), fraction])
    quad_words, quad_zeros = _repr_tables()[:2]
    digits = np.searchsorted(_POW10[1:], whole, side="right")  # of the integer part, less 1
    z = quad_zeros.take(fraction)  # trailing zeros of "0fff": 4 only for a fraction of 0
    return quad_words.take(quads.T), ((m < 0) * 16 + digits) * 5 + z


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
_KERNELS = {"r": _repr_block, "m": _fixed_block}


def cores() -> int:
    """How many cores this process may run on, read at each call."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


# Cells read at a time. Each numpy op of the reader then spans 2^15 values: on a 2-core
# host, two threads ran ops of 12,288 values at 0.79x the speed of one thread, and ops of
# 49,152 at 1.89x.
CELL_CHUNK = 1 << 15
_DIGITS = 0x3030303030303030  # "00000000"
# The low k bytes of a little-endian word, for k = 0..8.
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


@_shared
def _powers_of_five() -> np.ndarray:
    """(2, 651) uint64: the high and low words of 5^q for q from -342 to 308, scaled into
    [2^127, 2^128), as Eisel-Lemire reads them (Lemire 2021, "Number Parsing at a
    Gigabyte per Second"): 5^q truncated for q >= 0, else 2^b / 5^-q rounded up and
    truncated."""
    def words():
        for q in range(-342, 309):
            p = 5 ** abs(q)
            if q >= 0:
                v = p << max(128 - p.bit_length(), 0) >> max(p.bit_length() - 128, 0)
            else:
                z = p.bit_length()
                v = (1 << (z + 127 if q >= -27 else 2 * z + 128)) // p + 1
                v >>= max(v.bit_length() - 128, 0)
            yield v >> 64, v & _M64

    return np.ascontiguousarray(np.fromiter(words(), dtype=(np.uint64, 2), count=651).T)


def _product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low words of each 128-bit product a b."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> 32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32), a * b


def _nearest_double(w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The IEEE bits of the double nearest each w 10^q, ties to even, for w < 10^19: one
    product of 64 by 128 bits, after Eisel-Lemire, which needs no fallback for 19 digits or
    fewer (Mushtak and Lemire 2023, "Fast Number Parsing Without Fallback"). w is shifted
    in place."""
    zero = w == 0
    # w shifted up to its top bit; float64 may round w up to the next power of two.
    width = np.frexp((w | 1).astype(np.float64))[1].astype(np.uint64)
    width -= (w | 1) >> (width - 1) == 0
    w <<= 64 - width
    words, index = _powers_of_five(), q + 342  # past either end the double is 0 or infinite
    hi, lo = _product(w, words[0].take(index, mode="clip"))
    # 5^q's low word counts only when its product may carry into the 9 bits below the top
    # 55 bits of the product, which are kept.
    i = np.flatnonzero(hi & 0x1FF == 0x1FF)
    if i.size:
        carry = _product(w[i], words[1].take(index[i], mode="clip"))[0]
        lo[i] += carry
        hi[i] += lo[i] < carry
    del w, index
    upper = hi >> 63
    shift = upper + 9
    mantissa = hi >> shift
    power2 = ((217706 * q) >> 16) + 1086 + upper.astype(np.int64) - (64 - width).astype(np.int64)
    # An exact halfway point, which goes to the even mantissa, only arises for q in [-4, 23].
    m = mantissa.copy()
    i = np.flatnonzero(lo <= 1)
    if i.size:
        m[i] -= ((-4 <= q[i]) & (q[i] <= 23) & (m[i] & 3 == 1) & (m[i] << shift[i] == hi[i]))
    m = (m + (m & 1)) >> 1
    top = m >> 53  # rounded up to 2^53
    m >>= top
    biased = power2 + top.astype(np.int64)
    bits = (biased.astype(np.uint64) << 52) | (m & ((1 << 52) - 1))
    bits[biased >= 2047] = 0x7FF0000000000000
    # A subnormal: the kept bits shifted down past the least exponent, then rounded; a
    # result of 2^52 is the least normal's bits.
    i = np.flatnonzero(power2 <= 0)
    if i.size:
        m = mantissa[i] >> np.minimum(1 - power2[i], 63).astype(np.uint64)
        bits[i] = np.where(power2[i] > -63, (m + (m & 1)) >> 1, 0)
    bits[q > 308] = 0x7FF0000000000000
    bits[zero | (q < -342)] = 0
    return bits


def _eight_digits(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The value of each word's 8 ASCII digits, the first byte the most significant, by
    multiplies and shifts; and a word with a high bit set in each byte that is no digit,
    or in a byte above one. In place where it can: blocks are long."""
    v = words - _DIGITS
    invalid = v + 0x7676767676767676
    invalid |= v
    invalid &= 0x8080808080808080
    pairs = v >> 8
    v *= 10
    v += pairs  # each byte 10 a + b, for its digit a and the next digit b
    pairs = v >> 16
    pairs &= 0x000000FF000000FF
    pairs *= 0x0000271000000001
    v &= 0x000000FF000000FF
    v *= 0x000F424000000064
    v += pairs
    v >>= 32
    return v, invalid


def _first(found: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The first of the ascending offsets found inside each cell [start, end), else its end."""
    # Most often each cell holds exactly one, and found is the answer.
    if found.size == starts.size and (found >= starts).all() and (found < ends).all():
        return found
    cell = np.searchsorted(starts, found, side="right") - 1
    inside = found < ends.take(cell)
    found, cell = found[inside], cell[inside]
    new = np.ones(cell.size, dtype=bool)
    new[1:] = cell[1:] != cell[:-1]
    first = ends.copy()
    first[cell[new]] = found[new]
    return first


def _decimal_block(blob: np.ndarray, starts: np.ndarray,
                   ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(bits, decided): the IEEE bits of float() of each cell blob[start:end] that the
    kernel reads, and which those are: an optional sign, 1 to 19 digits with at most one
    point among them, and an optional exponent of at most 8 bytes, e or E, an optional sign
    and 1 or more digits, in a cell that ends 32 bytes or more into blob."""
    w, q, negative, decided = _decimal_parts(blob, starts, ends)  # its temporaries freed
    return _nearest_double(w, q) | negative.astype(np.uint64) << 63, decided


def _decimal_parts(blob: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> tuple:
    """(w, q, negative, decided): each cell the kernel decides is -1^negative w 10^q."""
    size = blob.size
    if size < 32:
        zeros = np.zeros(starts.size, dtype=np.int64)
        return zeros.astype(np.uint64), zeros, zeros == 1, zeros == 1
    # The 32 bytes before each cell's end, in four words from one gather.
    window = np.ndarray((size - 31,), np.dtype((np.void, 32)), blob, 0, (1,))
    words = np.ascontiguousarray(window[np.maximum(ends - 32, 0)].view(np.uint64)
                                 .reshape(-1, 4).T)
    del window
    lead = blob.take(np.minimum(starts, size - 1))
    negative = lead == ord("-")
    first = starts + (negative | (lead == ord("+")))
    del lead
    # Without an exponent the digits lie in the last three words. An exponent, the last 8
    # bytes or fewer, starts at the last e or E among them: the top bit of the flags, one
    # in each byte that is e or E, read from the exponent of the flags as a float64.
    digits, last = words[1:], words[3]
    flags = (last | 0x2020202020202020) ^ 0x6565656565656565
    flags = ~(((flags & 0x7F7F7F7F7F7F7F7F) + 0x7F7F7F7F7F7F7F7F) | flags) & 0x8080808080808080
    i = np.flatnonzero(flags)
    x = ends.copy()  # where the digits end
    q = np.zeros(ends.size, dtype=np.int64)
    decided = (ends >= 32)
    if i.size:
        flags = flags[i] & ~_LOW_BYTES.take(8 - (ends[i] - starts[i]), mode="clip")
        i, flags = i[flags != 0], flags[flags != 0]
        at = (np.frexp(flags.astype(np.float64))[1] >> 3) - 1  # the e's byte in the last word
        x[i] -= 8 - at
        # The digits before the exponent, moved up by its 8 - at bytes.
        word = last[i]
        down, up = (8 * at).astype(np.uint64), (8 * (7 - at)).astype(np.uint64)
        digits[:, i] = words[:3, i] >> down | words[1:, i] << up << 8
        sign = word >> down >> 8 & 0xFF
        k = 7 - at - ((sign == ord("-")) | (sign == ord("+")))  # its digits
        padded = _LOW_BYTES.take(8 - k, mode="clip")
        value, invalid = _eight_digits(word & ~padded | _DIGITS & padded)
        decided[i] &= (invalid == 0) & (k >= 1)
        q[i] = np.where(sign == ord("-"), -value.astype(np.int64), value.astype(np.int64))
        del at, down, up, word, sign, k, padded, value, invalid
    del words, last, flags, i
    point = _first(np.flatnonzero(blob[starts[0]:ends[-1]] == ord(".")) + starts[0], starts, x)
    dotted = point < x
    n = x - first - dotted  # digits before the exponent
    decided &= (n >= 1) & (n <= 19)
    q -= np.where(dotted, x - point - 1, 0)  # the digits after the point
    # The point is taken out by moving each byte before it one byte up; then all but the
    # last n bytes of the 24 are set to "0".
    dot = np.where(dotted, point - x + 24, -1)  # the point's byte in the 24, or -1
    del point, dotted, x, first
    w, before, invalid = 0, 0, 0
    for j in range(3):
        word = digits[j]
        moved = _LOW_BYTES.take(dot - 8 * j + 1, mode="clip")
        padded = _LOW_BYTES.take(24 - 8 * j - n, mode="clip")
        word, before = (word & ~moved | ((word << 8) | (before >> 56)) & moved), word
        value, bad = _eight_digits(word & ~padded | _DIGITS & padded)
        w, invalid = w * 10**8 + value, invalid | bad
    decided &= invalid == 0
    return w, q, negative, decided


def decimals(blob: np.ndarray, seps: np.ndarray) -> np.ndarray | None:
    """float() of the text of each cell, or None if float() refuses one: blob holds UTF-8
    bytes, and seps is (rows, k + 1), k >= 1, the offsets of the separators that bound each
    row's k cells, cell c of row r being blob[seps[r, c] + 1:seps[r, c + 1]].

    The kernel reads each cell from its bytes, eight digits to a word, and rounds it with
    Eisel-Lemire; float() reads what falls outside its grammar. It reads CELL_CHUNK cells
    at a time, and a helper thread takes chunks too whenever the process may run on more
    than one core (cores()). No chunk's temporaries outlive it.
    """
    rows, k = seps.shape[0], seps.shape[1] - 1
    # Made on this thread, the values' pages lie in its malloc arena, not the helper's.
    out = np.empty((rows, k), dtype=np.float64)
    step = max(1, CELL_CHUNK // k)
    chunks, undecided, errors = iter(range(0, rows, step)), [], []

    def convert():
        try:
            # next() of a range iterator runs under the GIL: each chunk goes to one thread.
            for a in chunks:
                starts, ends = (seps[a:a + step, :-1] + 1).ravel(), seps[a:a + step, 1:].ravel()
                bits, decided = _decimal_block(blob, starts, ends)
                out[a:a + step] = bits.view(np.float64).reshape(-1, k)
                i = np.flatnonzero(~decided)
                if i.size:
                    undecided.append((a * k + i, starts[i], ends[i]))
        except BaseException as exc:
            errors.append(exc)

    helper = threading.Thread(target=convert, name="decimals helper")
    if rows > step and cores() > 1:
        helper.start()
    convert()
    if helper.ident is not None:
        helper.join()
    if errors:
        raise errors[0]
    flat, text = out.reshape(-1), memoryview(blob)
    for cells, starts, ends in undecided:
        for i, a, b in zip(cells.tolist(), starts.tolist(), ends.tolist()):
            try:
                flat[i] = float(str(text[a:b], "utf-8", "surrogatepass"))
            except ValueError:
                return None
    return out


def _rows(a: np.ndarray) -> np.ndarray:
    """A (rows, k) array, or a field's view of a buffer, as one item of its k bytes a row:
    numpy copies these items faster than k narrow columns."""
    return a.view(np.dtype((np.void, a.shape[1] * a.itemsize)))[:, 0]


def _put(spec: str, block, text: np.ndarray, keep: np.ndarray) -> None:
    """Fill one field of a chunk from its block, what a number field's kernel gives or a %s
    field's texts: text and keep are its (rows, width) views, whose head bytes row_chunks
    wrote."""
    if spec == "m":
        digits, layout = block
        _rows(text[:, 4:])[:] = _rows(digits)
        _rows(keep)[:] = _rows(_fixed_layouts().take(layout, axis=0))
        text[:, 20] = ord(".")
    elif spec == "r":
        digits, exponents, layout = block
        _rows(text[:, 8:28])[:] = _rows(text[:, 32:52])[:] = _rows(digits)
        _rows(text[:, 52:])[:] = _rows(exponents)
        _rows(keep)[:] = _rows(_repr_tables()[3].take(layout, axis=0))
    elif isinstance(block, np.ndarray):  # fixed-width texts: every byte is written
        text[:], keep[:] = block, True
    elif width := keep.shape[1]:  # Strings, not all empty: each text's bytes at a row's start
        # The width + 1 windows, one byte apart, of width ones then width zeros: window j
        # keeps the first width - j bytes of a row.
        windows = np.arange(2 * width) < width
        masks = np.ndarray((width + 1,), np.dtype((np.void, width)), windows, 0, (1,))
        _rows(keep)[:] = masks[width - np.diff(block.offsets)]
        text[keep] = block.blob[block.offsets[0]:block.offsets[-1]]


def _serve(tasks: queue.SimpleQueue, results: queue.SimpleQueue) -> None:
    """A row writer's helper thread: run each task taken from tasks, until None, and put
    its (value, None), or (None, error) if it raised, into results."""
    for task in iter(tasks.get, None):
        try:
            results.put((task(), None))
        except BaseException as exc:
            results.put((None, exc))


def row_chunks(template: str, *columns):
    """template % row for the rows of the equal-length columns, one string per chunk, in row
    order: %r takes finite floats, %m floats below M_BOUND in magnitude, %s Strings or a
    (rows, width) uint8 array of fixed-width texts; no literal has %. A chunk is made in two
    steps: one pass of each number kernel over all the fields it fills, which gives each %r
    and %m field its block of words, then _put of every field into the buffers, and one
    masked copy of the bytes they keep.

    A writer with more than one chunk starts a helper thread at once whenever the process
    may run on more than one core (cores()). The helper takes the second step of each chunk
    but the last, handed over on one queue and given back on another, while this thread
    takes the first step of the next and decodes each chunk's bytes; an error the helper
    meets is raised here. While the generator is suspended its helper has no task, but the
    helper's thread is held until the generator ends or is closed: close one left
    unfinished."""
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

    def written(m: int, blocks: list) -> np.ndarray:
        """The UTF-8 bytes of a chunk of m rows from the block of each field."""
        for spec, (a, width), block in zip(specs, spans[1::2], blocks):
            _put(spec, block, text[:m, a:a + width], keep[:m, a:a + width])
        return text[:m][keep[:m]]

    # The fields of each number kernel, which runs once per chunk over all of them: fewer,
    # longer numpy calls, so fewer hand-offs of the GIL.
    groups = [(kernel, [i for i, s in enumerate(specs) if s == spec])
              for spec, kernel in _KERNELS.items() if spec in specs]

    def ahead(rows: slice, m: int) -> list:
        """The block of every field of the m rows, made at once."""
        blocks = [column[rows] for column in columns]
        for kernel, fields in groups:
            words = kernel(np.concatenate([columns[i][rows] for i in fields]))
            for j, i in enumerate(fields):  # field i's rows of each array
                blocks[i] = [w[j * m:(j + 1) * m] for w in words]
        return blocks

    lend = n > step and cores() > 1
    tasks, results = queue.SimpleQueue(), queue.SimpleQueue()
    # A daemon: a writer left open must not keep the interpreter from exiting.
    helper = threading.Thread(target=_serve, args=(tasks, results), name="row_chunks helper",
                              daemon=True)
    try:
        if lend:  # the first chunk is always handed over
            helper.start()
        for start in range(0, n, step):
            m, rows = min(step, n - start), slice(start, start + step)
            blocks = ahead(rows, m)  # made while the helper, if any, writes the chunk before
            if lend and start > 0:  # the chunk before is out; once back, the buffers are free
                value, error = results.get()
                if error is not None:
                    raise error
                # Decoded on this thread: a figure keeps its chunks until it is written, and
                # a str made on the helper lives in the helper's malloc arena, which raised
                # compare's peak RSS at 10^5 rows by about 6 MB.
                yield str(value, "utf-8", "surrogatepass")
            if lend and start + m < n:
                tasks.put(partial(written, m, blocks))
            else:
                yield str(written(m, blocks), "utf-8", "surrogatepass")
    finally:
        if helper.ident is not None:  # started: it ends once the chunk out, if any, is written
            tasks.put(None)
            helper.join()
