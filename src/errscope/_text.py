"""The one row writer of the CSV, the JSON points and the SVG shapes: each field of a row
template fills a byte matrix and a mask of the bytes each row keeps, and one masked copy
joins them. %r writes repr's text, with digits from Schubfach (Giulietti 2020, "The
Schubfach way to render doubles") in 64-bit integer arithmetic: no Python call per float.
%.6g, the SVG number, comes from one Python % over a chunk of the column, cut into Strings.
%s takes a column of texts already in bytes, Strings or Picks: no Python str per row.
"""

from __future__ import annotations

import re
from functools import cache
from typing import NamedTuple

import numpy as np

# Rows written at a time: it bounds a writer's memory, not its bytes.
ROW_CHUNK = 1 << 14
_BLOCK = 1 << 12  # values per pass of the digit kernel: its temporaries stay small
_M32 = 0xFFFFFFFF
_POW10 = 10 ** np.arange(18, dtype=np.uint64)
_SPEC = re.compile(r"%(r|s|\.6g)")
_WIDTH = {"r": 60, ".6g": 13}  # the bytes a field takes; %.6g as in -1.23457e-308


@cache
def _g(k: int) -> list[int]:
    """The 32-bit limbs, low first, of g(k) = floor(10^-k 2^(125 - floor(-k log2 10))) + 1."""
    r = 125 - ((-k * 913124641741) >> 38)
    g = (10 ** max(-k, 0) << max(r, 0)) // (10 ** max(k, 0) << max(-r, 0)) + 1
    return [(g >> s) & _M32 for s in (0, 32, 64, 96)]


def _g_limbs(k: np.ndarray) -> np.ndarray:
    """(4, n) limbs of g at each k, from Python ints for the k present."""
    table = np.zeros((4, 617), dtype=np.uint64)
    for j in np.flatnonzero(np.bincount(k + 324, minlength=617)).tolist():
        table[:, j] = _g(j - 324)
    return table.take(k + 324, axis=1)


def _round_to_odd(g: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """floor(g cp / 2^128), its low bit set when the 64 bits below are not all 0; the
    192-bit product of g's (4, n) limbs and cp's uint64 rows is summed in 32-bit columns."""
    c0, c1 = cp & _M32, cp >> 32
    g0, g1, g2, g3 = g
    p01, p10, p11, p20, p21, p30 = g0 * c1, g1 * c0, g1 * c1, g2 * c0, g2 * c1, g3 * c0
    col1 = ((g0 * c0) >> 32) + (p01 & _M32) + (p10 & _M32)
    col2 = (col1 >> 32) + (p01 >> 32) + (p10 >> 32) + (p11 & _M32) + (p20 & _M32)
    col3 = (col2 >> 32) + (p11 >> 32) + (p20 >> 32) + (p21 & _M32) + (p30 & _M32)
    vb = g3 * c1 + (col3 >> 32) + (p21 >> 32) + (p30 >> 32)
    return vb | (((col2 | col3) & _M32) != 0)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, k): d 10^k is the shortest decimal that rounds to each positive normal double,
    the closest such when there are several (ties to even d), from its IEEE bits."""
    q = (bits >> 52).astype(np.int64) - 1075
    c = bits & ((1 << 52) - 1)
    closer = (c == 0) & (q > -1074)  # at a power of two the gap below is half the gap above
    c |= 1 << 52
    k = (q * 661971961083 - closer * 274743187321) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 3).astype(np.uint64)
    cb = c << 2
    vbl, vb, vbr = _round_to_odd(
        _g_limbs(k), np.stack([cb - 2 + closer.astype(np.uint64), cb, cb + 2]) << h)
    lower, upper = vbl + (c & 1), vbr - (c & 1)  # the interval holds its ends when c is even
    s, sp = vb >> 2, vb // 40
    # At most one of the two one-digit-shorter neighbours lies in the interval.
    up_in, wp_in = lower <= 40 * sp, 40 * sp + 40 <= upper
    short = (s >= 10) & (up_in != wp_in)
    u_in, w_in = lower <= 4 * s, 4 * s + 4 <= upper
    up = np.where(u_in != w_in, w_in, (vb > 4 * s + 2) | ((vb == 4 * s + 2) & (s & 1 == 1)))
    return np.where(short, sp + wp_in, s + up), k + short


# A %r field is 15 words: "-0.000" (a sign, then "0." and zeros); "000" and the 17 digits,
# trailing zeros as padding; a decimal point; the digits again; the exponent, as in "e-308".
_R_HEAD = np.frombuffer(b"-0.000\0\0.\0\0\0", dtype=np.uint32)
_FIXED, _ZERO = 20, 24  # subclasses 0..19 are fixed forms, decpt -3..16; 20..23 exponents


@cache
def _repr_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """"0000" to "9999" as words, their trailing zeros, "e-324" to "e+308" as word pairs,
    and the mask words of each layout class (sign * 25 + subclass) * 18 + digits: as in
    repr, fixed form when -4 < decpt <= 16, ".0" after an integer, else d[.ddd]e+XX[X]."""
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
    return (quads.view(np.uint32), zeros.astype(np.uint8),
            np.frombuffer(exponents, dtype=np.uint32).reshape(-1, 2),
            keep.view(np.uint32).reshape(-1, 15))


def _repr_block(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(digit words, exponent words, mask words) of each finite float64."""
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    sign = (bits >> 63).astype(np.intp)
    bits = bits & ((1 << 63) - 1)
    tiny = bits < (1 << 52)  # zeros and subnormals; 1.0 stands in for them
    d, k = _shortest(np.where(tiny, np.uint64(0x3FF0000000000000), bits))
    nd = 15 + (d >= _POW10[15]) + (d >= _POW10[16])  # a normal's d has 15 to 17 digits
    d17, decpt = d * _POW10[17 - nd], nd + k
    # Schubfach's interval test needs 53 significant bits: repr gives a subnormal's digits.
    for i in np.flatnonzero(tiny & (bits != 0)).tolist():
        mantissa, _, exponent = repr(abs(x[i].item())).partition("e")
        d17[i], decpt[i] = int(mantissa.replace(".", "").ljust(17, "0")), int(exponent) + 1
    top, hi, lo = d17 // 10**16, d17 // 10**8 % 10**8, d17 % 10**8
    quads = np.stack([top, hi // 10**4, hi % 10**4, lo // 10**4, lo % 10**4], axis=1)
    quad_words, quad_zeros, exponents, layouts = _repr_tables()
    zeros = quad_zeros.take(quads)  # the first group, "000d", ends in a nonzero digit
    z4, z3, z2 = zeros[:, 4] == 4, zeros[:, 3] == 4, zeros[:, 2] == 4
    nsig = 17 - zeros[:, 4] - z4 * (zeros[:, 3] + z3 * (zeros[:, 2] + z2 * zeros[:, 1]))
    exponent = decpt - 1
    sub = np.where((decpt > -4) & (decpt <= 16), decpt + 3,
                   _FIXED + 2 * (exponent < 0) + (np.abs(exponent) >= 100))
    sub[bits == 0], nsig[bits == 0] = _ZERO, 1
    return (quad_words.take(quads), exponents.take(exponent + 324, axis=0),
            layouts.take((sign * 25 + sub) * 18 + nsig, axis=0))


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

    def __getitem__(self, rows: slice) -> Strings:
        """The texts of a slice of rows, sharing this blob."""
        start, stop, _ = rows.indices(len(self))
        return Strings(self.blob, self.offsets[start:max(start, stop) + 1])

    def tolist(self) -> list[str]:
        raw, bounds = self.blob.tobytes(), self.offsets.tolist()
        return [raw[a:b].decode("utf-8", "surrogatepass") for a, b in zip(bounds, bounds[1:])]


class Picks(NamedTuple):
    """A %s column whose row i is texts[codes[i]]: the texts are encoded once, as Strings."""

    texts: list
    codes: np.ndarray


def _put(spec: str, column, text: np.ndarray, keep: np.ndarray) -> None:
    """Fill one field of a chunk: text and keep are its (rows, width) views."""
    if spec == ".6g":  # one % over the chunk, cut at its commas into Strings
        raw = np.frombuffer(("%.6g," * len(column) % tuple(column.tolist())).encode(), np.uint8)
        ends = np.flatnonzero(raw == ord(","))
        column = Strings(np.delete(raw, ends), np.append(0, ends - np.arange(ends.size)))
    if spec == "r":
        text, keep = text.view(np.uint32), keep.view(np.uint32)
        text[:, :2], text[:, 7] = _R_HEAD[:2], _R_HEAD[2]
        for a in range(0, len(column), _BLOCK):
            b = min(a + _BLOCK, len(column))
            text[a:b, 2:7], text[a:b, 13:], keep[a:b] = _repr_block(column[a:b])
            text[a:b, 8:13] = text[a:b, 2:7]
    elif isinstance(column, Picks):  # its texts encoded, as (bytes, mask)
        (table, table_keep), codes = column
        text[:], keep[:] = table.take(codes, axis=0), table_keep.take(codes, axis=0)
    else:  # Strings: each text's bytes at the start of its row
        np.less(np.arange(keep.shape[1]), np.diff(column.offsets)[:, None], out=keep)
        text[keep] = column.blob[column.offsets[0]:column.offsets[-1]]


def row_chunks(template: str, *columns):
    """template % row for the rows of the equal-length columns, one string per chunk: %r
    takes float64, %.6g floats, %s Strings or Picks; no literal has %. Every field, each
    %.6g one too, is filled on its own by _put."""
    parts, columns = _SPEC.split(template), list(columns)
    specs = parts[1::2]
    n = len(columns[0].codes if isinstance(columns[0], Picks) else columns[0])
    # Each literal, then its field, takes the next byte columns; a %r field starts on a word.
    spans, end = [], 0
    for i, literal in enumerate(parts[::2]):
        spans.append((end, np.frombuffer(literal.encode(), dtype=np.uint8)))
        end += spans[-1][1].size
        if i < len(columns):
            spec, column = specs[i], columns[i]
            strings = Strings.of(column.texts) if isinstance(column, Picks) else column
            width = _WIDTH.get(spec) or int(np.diff(strings.offsets).max(initial=0))
            if isinstance(column, Picks):
                table = np.zeros((len(strings), width), dtype=np.uint8)
                _put(spec, strings, table, table_keep := np.empty(table.shape, bool))
                columns[i] = Picks((table, table_keep), column.codes)
            end += -end % 4 * (spec == "r")
            spans.append((end, width))
            end += width
    # Each buffer stays under 4 MB: wide rows, as a long string makes, come fewer to a chunk.
    step = max(1, min(ROW_CHUNK, n, (1 << 22) // (end + 1)))
    text = np.zeros((step, end + -end % 4), dtype=np.uint8)
    keep = np.zeros(text.shape, dtype=bool)
    for a, literal in spans[::2]:
        text[:, a:a + literal.size], keep[:, a:a + literal.size] = literal, True
    for start in range(0, n, step):
        m = min(step, n - start)
        rows = slice(start, start + m)
        for spec, column, (a, width) in zip(specs, columns, spans[1::2]):
            part = (Picks(column.texts, column.codes[rows]) if isinstance(column, Picks)
                    else column[rows])
            _put(spec, part, text[:m, a:a + width], keep[:m, a:a + width])
        yield str(text[:m][keep[:m]], "utf-8", "surrogatepass")
