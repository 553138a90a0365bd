"""The row writer's float64 text against repr, byte for byte, and the Strings column."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import rows

from errscope._text import Strings, row_chunks


def assert_repr(values):
    """Each value, written by %r through the row writer, reads as repr wrote it."""
    x = np.asarray(values, dtype=np.float64)
    got = "".join(row_chunks("%r\n", x)).splitlines(keepends=True)
    want = list(rows("%r\n", x))
    # The first differing value, rather than a diff of two long lists.
    assert next(((w, g) for w, g in zip(want, got) if w != g), None) is None
    assert len(got) == len(want)


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


def test_one_row_of_512_g_fields():
    """A row may hold many %.6g fields, as a 256-vertex polygon's 512 numbers would: each
    field is filled on its own, from its own % over the chunk."""
    template = 'points="%s"\n' % " ".join(["%.6g,%.6g"] * 256)
    edges = [0.0, 1.0, -1.5, 123456.5, 1234567.0, 1e-5, -2.5e-07, 0.0001, 1e16, -1e300, 5e-324]
    x = np.concatenate([edges, np.random.default_rng(16).normal(0.0, 1e3, 512 - len(edges))])
    columns = x.reshape(1, 512).T
    assert "".join(row_chunks(template, *columns)) == "".join(rows(template, *columns))


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
