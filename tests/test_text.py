"""The row writer's float64 text against repr and against the fixed-step rule, byte for
byte, and its %s columns: Strings and fixed-width byte arrays; and decimals' float64
values against float(), bit for bit."""

import os
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import fixed_step, rows, shortest_schubfach

from errscope import _text
from errscope._text import (CELL_CHUNK, M_BOUND, ROW_CHUNK, Strings, _decimal_block,
                            _dragonbox_table, _shortest, decimals, row_chunks)


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


def cells(texts: list[str], k: int = 7) -> tuple[np.ndarray, np.ndarray]:
    """A blob holding the texts as cells between commas, after 32 bytes, so that the kernel
    may read each; and the (rows, k + 1) separators of its rows of k cells, the last row
    filled out with "0"."""
    texts = texts + ["0"] * (-len(texts) % k)
    text = " " * 32 + "," + ",".join(texts) + ","
    blob = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    seps = np.flatnonzero(blob == ord(","))
    return blob, seps[np.arange(len(texts) // k)[:, None] * k + np.arange(k + 1)]


# The kernel's grammar: a sign, 1 to 19 digits with at most one point, and an exponent of at
# most 8 bytes.
GRAMMAR = re.compile(r"[+-]?([0-9]*)\.?([0-9]*)([eE][+-]?[0-9]+)?")


def in_grammar(text: str) -> bool:
    m = GRAMMAR.fullmatch(text)
    return bool(m) and 1 <= len(m[1] + m[2]) <= 19 and len(m[3] or "") <= 8


def assert_reads_as_float(texts: list[str]):
    """decimals reads each text as float() does, bit for bit, and the kernel decides every
    text in its grammar itself, not through float()."""
    blob, seps = cells(texts)
    want = np.array([float(t) for t in texts] + [0.0] * (seps.size - seps.shape[0] - len(texts)))
    got = decimals(blob, seps).ravel()
    bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))[:3]
    assert bad.size == 0, [(texts[i], got[i], want[i]) for i in bad]
    bits, decided = _decimal_block(blob, (seps[:, :-1] + 1).ravel(), seps[:, 1:].ravel())
    grammar = [in_grammar(t) for t in texts]
    assert decided[:len(texts)].tolist() == grammar
    assert (bits[decided] == want.view(np.uint64)[decided]).all()


def test_decimals_read_repr_of_random_bit_patterns():
    """repr of random doubles of every biased exponent, subnormals too, of both signs, and
    of the zeros, the least subnormal and the largest double."""
    rng = np.random.default_rng(30)
    exponent = np.repeat(np.arange(2047, dtype=np.uint64), 6)
    bits = (exponent << 52 | rng.integers(0, 1 << 52, exponent.size, dtype=np.uint64)
            | rng.integers(0, 2, exponent.size, dtype=np.uint64) << 63)
    extremes = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 2.2250738585072014e-308,
                2.225073858507201e-308]
    x = np.concatenate([bits.view(np.float64), extremes])
    assert x.size >= 10**4
    assert_reads_as_float([repr(v) for v in x.tolist()])


@st.composite
def decimal_texts(draw) -> str:
    """A sign, leading zeros, 1 to 25 digits with a point anywhere or none, and an exponent
    from -400 to 400, with a sign and leading zeros, or none."""
    digits = draw(st.text("0123456789", min_size=1, max_size=25))
    point = draw(st.none() | st.integers(0, len(digits)))
    text = draw(st.sampled_from(["", "+", "-"])) + "0" * draw(st.integers(0, 3))
    text += digits if point is None else digits[:point] + "." + digits[point:]
    if draw(st.booleans()):
        e = draw(st.integers(-400, 400))
        sign = "-" if e < 0 else draw(st.sampled_from(["", "+"]))
        text += draw(st.sampled_from("eE")) + sign + "0" * draw(st.integers(0, 2)) + str(abs(e))
    return text


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(decimal_texts(), min_size=1, max_size=60))
def test_decimals_read_random_decimal_texts(texts):
    assert_reads_as_float(texts)


# Cells for each branch of the kernel: exponent forms; numpy.savetxt's %.18e, 19 digits;
# 20 digits or more; other spellings; ties; the ends of the subnormals and the normals;
# 2^53 + 1; the number that hung PHP's and Java's parsers; and the least decimal above the
# largest double that rounds to infinity.
HARD_CASES = [
    "1e5", "1E+05", "-2.5e-3", "%.18e" % 0.1, "%.18e" % -2.0**-1000,
    "%.18e" % 1.7976931348623157e308,
    "12345678901234567890", "0.1234567890123456789012", "1234567890123456789",
    "9999999999999999999", "9999999999999999999e-19", "0007", "000.5", "+1.5", "1.", ".5",
    "-0.0", "0e999", "-0e-999", "9007199254740993", "9007199254740995", "9007199254740992.5",
    "2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308",
    "2.225073858507201136057409796709131975934819546351645648e-308",
    "5e-324", "4.9406564584124654e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
    "1e-342", "1e-343", "1e-400", "1.7976931348623157e308", "1.7976931348623158e308",
    "1.7976931348623159e308", "1e308", "1e309", "1e400", "7e22", "7e23", "8.5e-5", "1e23",
    "3.0517578125e-05", "1.00000000000000011102230246251565404236316680908203125",
    "1.0000000000000001110223024625156540", "9.5e-5", "123456789e-3", "1e+1234567",
]


def test_decimals_read_hard_cases():
    assert_reads_as_float(HARD_CASES + ["-" + t.lstrip("+-") for t in HARD_CASES])


@pytest.mark.parametrize("text", ["", "1e", "e5", ".", "-", "+", "1..5", "1e5.5", "--1",
                                  "1 2", "1e+", "0x10", "é", "1e5e5"])
def test_decimals_refuse_what_float_refuses(text):
    """One cell float() refuses, among cells it reads: decimals gives None."""
    blob, seps = cells(["1.5"] * 20 + [text] + ["2.5"] * 20)
    assert decimals(blob, seps) is None


def test_decimals_give_what_float_gives_outside_the_grammar():
    """float() reads a cell the kernel does not: whitespace, underscores, non-ASCII digits,
    inf and nan, a long exponent."""
    texts = [" 1", "1 ", "\t2.5", "1_000", "٣", "inf", "-Infinity", "nan", "1e123456789",
             "-1e-000000001", "0" * 30 + "1.5"]
    blob, seps = cells(texts)
    got = decimals(blob, seps).ravel()[:len(texts)]
    assert np.array_equal(got, [float(t) for t in texts], equal_nan=True)


def test_decimals_near_the_ends_of_the_blob():
    """A cell that ends within 32 bytes of the blob's start goes through float(); the last
    cell of the blob is read to its last byte."""
    text = "1.5,-2e-3,7,0.25,1e5,3.25,12345678901234567"
    blob = np.frombuffer(text.encode(), dtype=np.uint8)
    seps = np.concatenate([[-1], np.flatnonzero(blob == ord(",")), [blob.size]])
    assert decimals(blob, seps[None, :]).tolist() == [[float(t) for t in text.split(",")]]


def test_decimals_threads_take_each_chunk_once(monkeypatch, on_cores):
    """In chunks of one row of 7 cells: on one core the calling thread reads every chunk;
    on two, with a switch interval of 1 us, it and the helper thread take each of the 1000
    chunks exactly once between them. Both read what float() reads."""
    monkeypatch.setattr(_text, "CELL_CHUNK", 7)
    x = np.random.default_rng(34).normal(0.0, 1e3, 7 * 1000)
    x *= 10.0 ** np.random.default_rng(35).integers(-30, 30, x.size)
    texts = [repr(v) for v in x.tolist()]
    blob, seps = cells(texts)
    block, taken = _text._decimal_block, []

    def counted(blob, starts, ends):
        taken.append((int(starts[0]), threading.current_thread().name))
        return block(blob, starts, ends)

    monkeypatch.setattr(_text, "_decimal_block", counted)
    on_cores(1)
    assert decimals(blob, seps).ravel().tolist() == x.tolist()
    assert {name for _, name in taken} == {threading.current_thread().name}
    taken.clear()
    on_cores(2)
    before, interval = threading.enumerate(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = decimals(blob, seps)
    finally:
        sys.setswitchinterval(interval)
    assert got.ravel().tolist() == x.tolist() and threading.enumerate() == before
    assert sorted(at for at, _ in taken) == (seps[:, 0] + 1).tolist()
    assert "decimals helper" in {name for _, name in taken}


def test_decimals_helper_error_comes_out(monkeypatch, on_cores):
    """An error in a chunk the helper thread reads is raised by decimals, which has joined
    the helper. The calling thread waits to read its first chunk until the helper fails."""
    blob, seps = cells(["1.5"] * 3 * CELL_CHUNK)
    block, failed = _text._decimal_block, threading.Event()

    def failing(*args):
        if threading.current_thread().name == "decimals helper":
            failed.set()
            raise MemoryError
        assert failed.wait(60)
        return block(*args)

    monkeypatch.setattr(_text, "_decimal_block", failing)
    on_cores(2)
    before = threading.enumerate()
    with pytest.raises(MemoryError):
        decimals(blob, seps)
    assert threading.enumerate() == before


def test_import_builds_no_table():
    """The digit tables are built on first use: importing the CLI costs none of them."""
    code = ("import errscope.cli, errscope._text as t; print([f.cache_info().currsize for f in"
            " (t._dragonbox_table, t._repr_tables, t._fixed_layouts, t._powers_of_five)])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out == "[0, 0, 0, 0]\n"


# A child process counts the calls of each table's build on every thread, each call held
# for 0.2 s so that a thread asking meanwhile would build the table again. "compare" runs
# the CLI, whose figure thread and report thread both write numbers; "threads" has four
# threads ask for every table at once, with a switch interval of 1 µs.
BUILDS = """
import sys, tempfile, threading, time
import errscope._text as t
from errscope.cli import main
tables = (t._dragonbox_table, t._repr_tables, t._fixed_layouts, t._powers_of_five)
count = dict.fromkeys((f.__wrapped__.__code__ for f in tables), 0)
def profile(frame, event, arg):
    if event == "call" and frame.f_code in count:
        count[frame.f_code] += 1
        time.sleep(0.2)
sys.setprofile(profile)
threading.setprofile(profile)
if sys.argv[1] == "compare":
    with tempfile.TemporaryDirectory() as tmp:
        with open(tmp + "/in.csv", "w") as fh:  # written without the row writer's tables
            fh.write("id,y_true,E1,E2\\n")
            fh.writelines(f"r{i},0,{i % 7 - 3.5},{i % 11 * 0.25 - 1}\\n" for i in range(300))
        assert main(["compare", tmp + "/in.csv", "--a", "E1", "--b", "E2", "--layers",
                     "zones,proximity,crown,kde,hexbin", "-o", tmp + "/x.svg",
                     "--json", tmp + "/x.json"]) == 0
else:
    sys.setswitchinterval(1e-6)
    start = threading.Barrier(4)
    def ask():
        start.wait(60)
        for f in tables:
            f()
    threads = [threading.Thread(target=ask) for _ in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(60)
        assert not th.is_alive()
sys.setprofile(None)
print(list(count.values()), file=sys.stderr)
"""


@pytest.mark.parametrize("case", ["compare", "threads"])
def test_threads_share_one_build_of_each_table(case):
    """Threads that ask for a digit table while another builds it wait for that build."""
    err = subprocess.run([sys.executable, "-c", BUILDS, case], capture_output=True, text=True,
                         check=True, timeout=120).stderr
    assert err == "[1, 1, 1, 1]\n"


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


def helper_case():
    """3 ROW_CHUNK + 5 rows, so the last chunk is written without the helper: ids empty,
    non-ASCII and lone surrogates; %r subnormals, zeros of both signs, negatives and
    exponent forms; %m below its bound."""
    rng = np.random.default_rng(24)
    n = 3 * ROW_CHUNK + 5
    texts = ["", "r", "\u00e9t\u00e9", "\u65e5\u672c", "\ud800", "\udfff\ud800", "x" * 12]
    ids = Strings.of([texts[i] for i in rng.integers(0, len(texts), n)])
    x = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-320, 300, n)
    x[:8] = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e16, 1e-5, -123.5]
    y = np.clip(rng.normal(0.0, 1e4, n), -M_BOUND / 2, M_BOUND / 2)
    return "%s,%r;%m,%r\n", (ids, x, y, -x[::-1])


def test_cores_reads_the_affinity_at_each_call(monkeypatch):
    """The core count is the process's affinity, read at each call, or os.cpu_count()
    where there is none."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _text.cores() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 3}, raising=False)
    assert _text.cores() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _text.cores() == 1


def test_helper_writes_the_same_bytes(helpers, on_cores):
    """The chunks written with a helper thread and without one are the same text, the text
    % writes: on two cores the helper writes every chunk but the last, on one core there
    is no helper."""
    template, columns = helper_case()
    on_cores(1)
    alone = list(row_chunks(template, *columns))
    assert helpers == []
    on_cores(2)
    before = threading.active_count()
    assert list(row_chunks(template, *columns)) == alone
    assert helpers == [[ROW_CHUNK] * 3] and len(alone) == 4
    assert "".join(alone) == "".join(rows(template, *columns))
    assert threading.active_count() == before


def test_closed_writer_leaves_no_helper(helpers, on_cores):
    """A writer closed after its first chunk, written on the helper, has joined that
    helper."""
    on_cores(2)
    template, columns = helper_case()
    before = threading.enumerate()
    chunks = row_chunks(template, *columns)
    next(chunks)
    assert helpers == [[ROW_CHUNK]]
    assert len(threading.enumerate()) == len(before) + 1
    chunks.close()
    assert threading.enumerate() == before


def test_helper_error_comes_out_of_the_writer(monkeypatch, helpers, on_cores):
    """An error the helper thread meets, in the second chunk it writes, is raised by the
    writer, which has joined that helper."""
    on_cores(2)
    put, calls = _text._put, []

    def failing_put(*args):
        calls.append(threading.current_thread().name)
        if len(calls) == 2:
            raise MemoryError
        put(*args)

    monkeypatch.setattr(_text, "_put", failing_put)
    before = threading.enumerate()
    with pytest.raises(MemoryError):
        list(row_chunks("%r\n", np.arange(3 * ROW_CHUNK + 5, dtype=np.float64)))
    assert calls == ["row_chunks helper"] * 2 and helpers == [[ROW_CHUNK] * 2]
    assert threading.enumerate() == before
