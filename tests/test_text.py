"""The row writer's float64 text against repr and against the fixed-step rule, byte for
byte, and its %s columns: Strings and fixed-width byte arrays."""

import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import fixed_step, rows, shortest_schubfach

from errscope._text import M_BOUND, ROW_CHUNK, Strings, _dragonbox_table, _shortest, row_chunks


def assert_written(spec, values):
    """Each value, written by the spec through the row writer, reads as % wrote it."""
    x = np.asarray(values, dtype=np.float64)
    template = f"%{spec}\n"
    got = "".join(row_chunks(template, x)).splitlines(keepends=True)
    want = list(rows(template, x))
    # The first differing value, rather than a diff of two long lists.
    assert next(((v, w, g) for v, w, g in zip(x.tolist(), want, got) if w != g), None) is None
    assert len(got) == len(want)


def assert_repr(values):
    assert_written("r", values)


def assert_fixed(values):
    assert_written("m", values)


def test_random_bit_patterns():
    """2^20 bit patterns, across 64 chunks: every exponent, sign and digit count,
    subnormals too."""
    bits = np.random.default_rng(15).integers(0, 2**64, size=1 << 20, dtype=np.uint64)
    x = bits.view(np.float64)
    x = x[np.isfinite(x)]
    assert x.size >= 10**6
    assert_repr(x)


def test_powers_of_two_and_zeros():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert_repr(np.concatenate([powers, -powers, [0.0, -0.0]]))


def test_layout_edges_and_their_neighbours():
    """Where repr changes form (1e16, 1e-4), exponent width (1e-100, 1e100) or
    goes exponential below 1e-4, with the next double each way."""
    edges = np.array([1e16, 1e-4, 1e-5, 1e100, 1e-100, 1e-99, 1e15, 1.0])
    x = np.concatenate([np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf)])
    assert_repr(np.concatenate([x, -x]))


def test_extreme_normals_and_subnormals():
    info = np.finfo(np.float64)
    x = np.array([info.max, info.tiny, np.nextafter(info.tiny, 0.0), info.smallest_subnormal,
                  np.nextafter(info.smallest_subnormal, 1.0), np.nextafter(info.max, 0.0)])
    assert_repr(np.concatenate([x, -x]))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_any_finite_floats(values):
    assert_repr(values)


def assert_schubfach(bits):
    """The kernel's (d, k) for each positive normal double are Schubfach's, a chunk at a time."""
    for a in range(0, bits.size, 1 << 16):
        chunk = bits[a:a + 1 << 16]
        (d, k), (want_d, want_k) = _shortest(chunk), shortest_schubfach(chunk)
        bad = np.flatnonzero((d != want_d) | (k != want_k))[:3]
        assert bad.size == 0, list(zip(chunk[bad].view(np.float64), want_d[bad], want_k[bad],
                                       d[bad], k[bad]))


def test_shortest_is_schubfachs_on_random_bit_patterns():
    bits = np.random.default_rng(20).integers(1 << 52, 0x7FF << 52, size=1 << 20, dtype=np.uint64)
    assert_schubfach(bits)


def test_shortest_is_schubfachs_at_powers_of_two_and_the_least_normals():
    """Every power of two (the shorter interval of all but the least normal) and the
    doubles on each side, and the 2^16 normals next to the subnormals, where 2^-1022 has
    equal gaps on each side."""
    powers = np.arange(1, 2047, dtype=np.uint64) << 52
    least = (1 << 52) + np.arange(1 << 16, dtype=np.uint64)
    assert_schubfach(np.concatenate([powers, powers[1:] - 1, powers + 1, least]))


def test_shortest_is_schubfachs_where_the_upper_end_is_whole():
    """Doubles c 2^q over 2^60 with 2c + 1 a multiple of 5^m: the upper end of the interval,
    (2c + 1) 2^(q - 1), scaled by 10^k, is often whole. Then the scaled product's high word
    takes a carry that its estimate misses, and an odd c leaves that end out."""
    rng = np.random.default_rng(22)
    f = 5 ** rng.integers(1, 20, size=1 << 17).astype(np.uint64)
    w = (rng.integers(1 << 53, 1 << 54, size=f.size, dtype=np.uint64) // f | 1) * f
    w = w[w > 1 << 53]  # odd, as 2c + 1 is, and 2c + 1 < 2^54
    exponent = rng.integers(1075 + 8, 2047, size=w.size).astype(np.uint64)
    assert_schubfach(exponent << 52 | (w >> 1) - (1 << 52))


def test_the_bounds_the_kernel_rests_on():
    """beta from 6 to 9 keeps u = (2c + 1) 2^beta below 2^63, so no 32-bit half product
    sum overflows and the carry estimate is short by less than 2^33; the interval width
    delta is at least 100 and below 1000, as kappa = 2 needs."""
    words = _dragonbox_table()[0]
    beta, delta = words[4], words[5]
    assert beta.min() == 6 and beta.max() == 9
    assert delta.min() >= 100 and delta.max() < 1000


def test_one_row_of_512_fixed_fields():
    """A row may hold many %m fields, as a 256-vertex polygon's 512 numbers would: each
    field is filled on its own, from its own pass of the kernel over the chunk."""
    template = 'points="%s"\n' % " ".join(["%m,%m"] * 256)
    edges = [0.0, 1.0, -1.5, 123456.5, 1234567.0, 1e-5, -2.5e-07, 0.0005, 0.0015, 5e-324]
    x = np.concatenate([edges, np.random.default_rng(16).normal(0.0, 1e3, 512 - len(edges))])
    columns = x.reshape(1, 512).T
    assert "".join(row_chunks(template, *columns)) == "".join(rows(template, *columns))


def test_fixed_random_values():
    """2^20 values below the bound, across 256 chunks: every integer digit count from 1
    to 13, both signs, each of the 1000 fractions."""
    rng = np.random.default_rng(18)
    magnitude = 10.0 ** rng.uniform(-4.0, np.log10(M_BOUND), size=1 << 19)
    x = np.concatenate([magnitude, rng.uniform(-1000.0, 1000.0, size=1 << 19)])
    x *= rng.choice([-1.0, 1.0], size=x.size)
    assert np.abs(x).max() < M_BOUND
    assert_fixed(x)


def test_fixed_powers_of_two_and_zeros():
    """Every power of two below the bound: binary fractions, down to far below the step,
    and integers up to 2^43."""
    powers = np.ldexp(1.0, np.arange(-1074, 44))
    assert powers[-1] < M_BOUND
    assert_fixed(np.concatenate([powers, -powers, [0.0, -0.0]]))


def test_fixed_ties_and_carries():
    """Where v 1000 is exactly k + 0.5, m is the even neighbour, as np.rint gives it; a
    round up to a power of ten carries into one more integer digit."""
    ties = [0.0005, 0.0015, 0.0025, -0.0005, -0.0015, 0.0625, -0.1875, 1e12 + 0.0625,
            -(2.0**33 + 0.0625)]
    assert {v * 1000.0 % 1.0 for v in ties} == {0.5}
    assert [fixed_step(v) for v in ties] == ["0", "0.002", "0.002", "0", "-0.002", "0.062",
                                             "-0.188", "1000000000000.062", "-8589934592.062"]
    k = np.random.default_rng(23).integers(-2**52, 2**52, size=1 << 16) + 0.5
    x = k / 1000.0
    x = x[x * 1000.0 == k]  # the ties that survive the division
    assert x.size > 1000
    carries = 10.0 ** np.arange(13) - 0.0005
    assert [fixed_step(v) for v in carries[:3]] == ["1", "10", "100"]
    assert_fixed(np.concatenate([ties, x, carries, -carries]))


def test_fixed_layout_edges_and_their_neighbours():
    """The rule's own examples; each change of integer digit count, with the doubles on
    each side; and the largest value below the bound."""
    assert [fixed_step(v) for v in [349.019, 800.0, 2.29125, -12.3456]] == [
        "349.019", "800", "2.291", "-12.346"]
    edges = np.concatenate([10.0 ** np.arange(13), [np.nextafter(M_BOUND, 0.0)]])
    x = np.concatenate([np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf)])
    x = x[x < M_BOUND]
    assert_fixed(np.concatenate([x, -x]))
    assert "".join(row_chunks("%m", edges[-1:])) == "9007199254740.99"


def test_fixed_tiny_values():
    """Zeros, subnormals, the least normals and negatives that round to 0 write "0"."""
    info = np.finfo(np.float64)
    x = np.array([0.0, info.smallest_subnormal, np.nextafter(info.tiny, 0.0), info.tiny,
                  1e-300, 0.0001, 0.0004999, 0.0005])
    assert [fixed_step(v) for v in -x] == ["0"] * x.size
    assert_fixed(np.concatenate([x, -x]))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.floats(-M_BOUND, M_BOUND, exclude_min=True, exclude_max=True),
                min_size=1, max_size=40))
def test_fixed_any_floats_below_the_bound(values):
    assert_fixed(values)


def test_import_builds_no_table():
    """The digit tables are built on first use: importing the CLI costs none of them."""
    code = ("import errscope.cli, errscope._text as t; print([f.cache_info().currsize for f in"
            " (t._dragonbox_table, t._repr_tables, t._fixed_layouts)])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out == "[0, 0, 0]\n"


# Any code point, lone surrogates too (st.characters leaves them out): Strings encodes them
# as surrogatepass does.
ANY_TEXT = st.text(st.characters() | st.integers(0xD800, 0xDFFF).map(chr))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(ANY_TEXT | st.sampled_from(["", "\u2028", "\ud800", "\udfff\ud800", "\u00e9"])))
@example(["a" * 200_000, "", "b"])
@example([])
def test_strings_round_trip(texts):
    strings = Strings.of(texts)
    assert len(strings) == len(texts)
    assert strings.tolist() == texts
    assert strings.blob.tobytes() == "".join(texts).encode("utf-8", "surrogatepass")
    assert strings[1:3].tolist() == texts[1:3]


@pytest.mark.parametrize("n", [0, 1, 10, 11, 100, 10_001, 100_001])
@pytest.mark.parametrize("prefix", ["", "c", "\u00e9-"])
def test_numbered_strings(prefix, n):
    """Across each change of digit count and each four-digit group."""
    strings = Strings.numbered(prefix, n)
    assert strings.tolist() == [f"{prefix}{i}" for i in range(n)]
    assert strings.offsets.tolist() == Strings.of(strings.tolist()).offsets.tolist()


def test_strings_fill_a_s_field():
    strings = Strings.of(["", "a,b", "\u00e9\u2028", "\ud800", "x" * 70] * 5000)
    template = "<%s>\n"
    assert "".join(row_chunks(template, strings)) == "".join(rows(template, strings))


@pytest.mark.parametrize("rows", [slice(None, None, 2), slice(None, None, -1), 1])
def test_strings_take_only_a_slice_of_step_1(rows):
    with pytest.raises(TypeError, match="slice of step 1"):
        Strings.of(list("abcd"))[rows]


def test_strings_slice_tolist_copies_only_its_texts():
    ids = Strings.numbered("c", 10**6)
    tracemalloc.start()
    try:
        assert ids[:1].tolist() == ["c0"]
        assert ids[999_999:].tolist() == ["c999999"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10  # the blob holds 6.9 MB


def test_fixed_width_bytes_fill_a_s_field():
    """(rows, width) uint8 columns of width 1 and 6, as the point codes and the fills are,
    across chunks and next to %r and %m fields: every byte is written."""
    rng = np.random.default_rng(17)
    n = 2 * ROW_CHUNK + 3
    digits = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
    codes, hexes = digits[rng.integers(0, 10, size=(n, 1))], digits[rng.integers(0, 16, (n, 6))]
    x, y = rng.normal(0.0, 1e3, size=(2, n))
    template = '[%r, %s] <x="%m" fill="#%s"/>\n'
    got = "".join(row_chunks(template, x, codes, y, hexes))
    assert got == "".join(rows(template, x, codes, y, hexes))


def test_template_shapes():
    """Fields at the start and at the end of a template, two fields with no literal between
    them, a literal over 8 bytes and non-ASCII literals, across chunks; every column kind: %r,
    %m, Strings with empty and multi-byte texts, all empty too, and fixed-width bytes."""
    rng = np.random.default_rng(21)
    n = 2 * ROW_CHUNK + 3
    x = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-30, 30, n)
    x[:6] = [0.0, -0.0, 5e-324, -1e16, 0.1, 123456.5]
    y = np.clip(x, -1e12, 1e12)  # for %m, below its bound
    texts = ["", "a", "\u00e9t\u00e9", "\u65e5\u672c\u8a9e", "\U0001f600", "x" * 9, "\ud800"]
    strings = Strings.of([texts[i] for i in rng.integers(0, len(texts), n)])
    empty = Strings.of([""] * n)
    fixed = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)[rng.integers(0, 16, (n, 3))]
    for template, columns in [("%r%r,\n      [%m\u00e9%s\u2192%s", (x, -x, y, strings, fixed)),
                              ("%s%m;%s\u2028%r\n", (fixed, y, empty, -x[::-1]))]:
        assert "".join(row_chunks(template, *columns)) == "".join(rows(template, *columns))
