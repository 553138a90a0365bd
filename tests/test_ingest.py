import io
import json
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import same_prediction_set, to_csv
from test_cli import BAD_CELLS, NUMBERS

import errscope.ingest
from errscope import PredictionSet, generate, parse_predictions
from errscope.exceptions import (
    DuplicateModelName,
    ErrscopeError,
    LengthMismatch,
    MalformedHeader,
    NonFinite,
    NonNumeric,
    UnknownModel,
)
from errscope._text import ROW_CHUNK, Strings
from errscope.ingest import _read_csv, _read_plain_csv


def test_minimal_csv():
    ps = parse_predictions(b"id,y_true,M1\na,1.0,2.0\nb,3.0,3.0")
    assert ps.n == 2
    assert ps.instance_ids.tolist() == ["a", "b"]
    assert ps.y_true.tolist() == [1.0, 3.0]
    assert ps.model_names == ("M1",)
    assert ps.predictions.tolist() == [[2.0], [3.0]]


def test_model_column_order_preserved():
    ps = parse_predictions("id,y_true,Z,A,M\nx,0,1,2,3")
    assert ps.model_names == ("Z", "A", "M")


def test_ragged_row_names_line():
    with pytest.raises(LengthMismatch, match="row 3"):
        parse_predictions("id,y_true,M1\na,1.0,2.0\nc,4.0")


def test_nan_y_true_rejected():
    with pytest.raises(NonFinite):
        parse_predictions("id,y_true,M1\na,NaN,2.0")


def test_inf_prediction_rejected():
    with pytest.raises(NonFinite):
        parse_predictions("id,y_true,M1\na,1.0,inf")


def test_non_numeric_cell_reports_location():
    with pytest.raises(NonNumeric, match="row 2.*'M1'"):
        parse_predictions("id,y_true,M1\na,1.0,oops")


def test_missing_header_columns():
    with pytest.raises(MalformedHeader):
        parse_predictions("foo,bar,M1\na,1.0,2.0")
    with pytest.raises(MalformedHeader):
        parse_predictions("")


def test_no_model_columns():
    with pytest.raises(MalformedHeader):
        parse_predictions("id,y_true\na,1.0")


def test_duplicate_model_name():
    with pytest.raises(DuplicateModelName):
        parse_predictions("id,y_true,M1,M1\na,1.0,2.0,3.0")


def test_scientific_notation_and_quotes():
    ps = parse_predictions('id,y_true,M1\n"a,b",1e3,-2.5E-2')
    assert ps.instance_ids.tolist() == ["a,b"]
    assert ps.y_true.tolist() == [1000.0]
    assert ps.predictions[:, ps.index("M1")].tolist() == [-0.025]


def test_crlf_accepted():
    ps = parse_predictions(b"id,y_true,M1\r\na,1.0,2.0\r\nb,3.0,4.0\r\n")
    assert ps.n == 2


def test_json_format():
    text = (
        '{"instances":['
        '{"id":"a","y_true":1.0,"predictions":{"M1":2.0,"M2":0.5}},'
        '{"id":"b","y_true":3.0,"predictions":{"M1":3.0,"M2":2.0}}]}'
    )
    ps = parse_predictions(text, format="json")
    assert ps.model_names == ("M1", "M2")
    assert ps.predictions[:, ps.index("M2")].tolist() == [0.5, 2.0]


def test_json_inconsistent_model_sets():
    text = (
        '{"instances":['
        '{"id":"a","y_true":1.0,"predictions":{"M1":2.0}},'
        '{"id":"b","y_true":3.0,"predictions":{"M2":3.0}}]}'
    )
    with pytest.raises(LengthMismatch):
        parse_predictions(text, format="json")


def written_csv(ps) -> str:
    buf = io.StringIO(newline="")
    ps.write_csv(buf)
    return buf.getvalue()


def test_serialize_parse_roundtrip():
    ps = parse_predictions("id,y_true,M1,M2\na,1.5,2.25,0.125\nb,-3.0,3.0,1e-9")
    assert same_prediction_set(parse_predictions(written_csv(ps)), ps)
    instances = [
        {"id": iid, "y_true": y, "predictions": dict(zip(ps.model_names, preds))}
        for iid, y, preds in zip(ps.instance_ids.tolist(), ps.y_true.tolist(),
                                 ps.predictions.tolist())
    ]
    assert same_prediction_set(
        parse_predictions(json.dumps({"instances": instances}), format="json"), ps)


# Every character csv quoting could care about, plus a few that it must leave alone.
FIELDS = st.text(st.sampled_from([",", '"', "\r", "\n", "\x0c", "#", " ", "\u00e9", "a", "0"]),
                 max_size=5)
# Every layout repr has: signed zeros, subnormals, exponent form at and past 1e16 and
# below 1e-4, with two- and three-digit exponents, and fixed form in between.
SPECIAL_VALUES = [-0.0, 0.0, 5e-324, -3e-320, 1e308, -1e308, 1e16, -9999999999999998.0,
                  1e-4, -2.5e-05, 0.001, 1.5e-300, -1.2345678901234567e+200, 123456.5]


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64).tolist()


@settings(max_examples=80, derandomize=True, deadline=None)
@given(ids=st.lists(FIELDS, min_size=1, max_size=6),
       names=st.lists(FIELDS.filter(bool), min_size=1, max_size=3, unique=True),
       floats=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4),
       n=st.integers(1, 40) | st.integers(1, ROW_CHUNK + 1),
       seed=st.integers(0, 2**32 - 1))
@example(ids=["a\rb", "c"], names=["M"], floats=[], n=ROW_CHUNK + 1, seed=0)
@example(ids=["c0"], names=["C1", "C2"], floats=[1.5], n=ROW_CHUNK + 1, seed=1)
def test_write_csv_parse_roundtrip(ids, names, floats, n, seed):
    """parse_predictions is the left inverse of write_csv, bit for bit, and
    without a CR in any field the bytes are those of csv.writer."""
    table = np.random.default_rng(seed).choice(SPECIAL_VALUES + floats, size=(n, 1 + len(names)))
    y, preds = table[:, 0], table[:, 1:]
    with np.errstate(over="ignore", invalid="ignore"):  # an error that overflows is refused
        preds = np.where(np.isfinite(preds - y[:, None]), preds, y[:, None])
    ps = PredictionSet(tuple(ids[i % len(ids)] for i in range(n)), y, tuple(names), preds)
    text = written_csv(ps)
    back = parse_predictions(text)
    assert back.instance_ids.tolist() == ps.instance_ids.tolist()
    assert back.model_names == ps.model_names
    assert bits(back.y_true) == bits(ps.y_true)
    assert bits(back.predictions) == bits(ps.predictions)
    if "\r" not in "".join(ids + names):
        assert text == to_csv(ps)


@pytest.mark.parametrize("text", [
    'id,y_true,M\n"a\rb",1.0,2.0\n',
    'id,y_true,"a\rb",M\nx,1.0,2.0,3.0\n',
], ids=["id", "model_name"])
def test_write_csv_quotes_carriage_return(text):
    # csv.writer leaves a field with a CR but no LF unquoted, which its reader splits.
    ps = parse_predictions(text)
    assert written_csv(ps) == text
    assert same_prediction_set(parse_predictions(written_csv(ps)), ps)


def test_write_csv_traced_peak_at_2e5(tmp_path):
    ps = generate("under_vs_over", 200_000)
    with open(tmp_path / "synth.csv", "w", encoding="utf-8", newline="") as fh:
        tracemalloc.start()
        try:
            ps.write_csv(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 12 * 2**20


# Spliced into the cells of the exit-contract fuzz: text float() and loadtxt may read
# differently (underscores, non-ASCII digits, whitespace float() does not strip), line
# breaks that csv and str.splitlines do not share, NUL, which csv refused before Python 3.11,
# and the quote and comma of csv syntax.
SPLICES = BAD_CELLS + ["_", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
                       "\x85", "\u2028", "\u0663", "\r\n", "\r", "\n", "\x00", '"', ","]


@st.composite
def csv_texts(draw) -> str:
    """A small wide CSV of number cells, a few of them with a splice put in or swapped in."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(0, 5))
    rows = [["id", "y_true", *(f"M{j}" for j in range(1, m + 1))]]
    rows += [[draw(st.sampled_from(NUMBERS)) for _ in range(m + 2)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n)), draw(st.integers(0, m + 1))
        splice, cell = draw(st.sampled_from(SPLICES)), rows[i][j]
        at = draw(st.none() | st.integers(0, len(cell)))
        rows[i][j] = splice if at is None else cell[:at] + splice + cell[at:]
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(map(",".join, rows)) + draw(st.sampled_from(["", eol]))


def outcome(parse, text):
    """The ids, model names and float bits that parse makes of text, or its error."""
    try:
        ps = parse(text)
    except ErrscopeError as exc:
        return type(exc), str(exc)
    return ps.instance_ids.tolist(), ps.model_names, bits(ps.y_true), bits(ps.predictions)


def csv_module_only(text):
    ids, header, values = _read_csv(text)
    return PredictionSet(ids, values[:, 0], tuple(header[2:]), values[:, 1:])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(text=csv_texts())
@example(text="id,y_true,M\na,1,2\nb,1,2,3\n")  # usecols alone would drop the extra cell
@example(text="id,y_true,M\na,1\x1c,2\n")  # loadtxt reads 1.0, float() refuses
@example(text="id,y_true,M\na,1_0,\u0663\n")  # float() reads both, loadtxt neither
@example(text="id,y_true,M\na\u2028b,1,2\nc\x0bd,3,4\n")  # str.splitlines would split them
@example(text="id,y_true,M\n\na,1,2\n\n\nb,3,4\n\n")
@example(text="id,y_true,M\na,1,2,3,4\n\nb,5,6\n")  # commas add up, loadtxt skips a line
@example(text="id,y_true,M\n\na,1,2,3,4\n")  # commas add up, loadtxt reads 1 row, not 2
@example(text="id,y_true,M\na,1,2\n \nb,3,4\n")
@example(text="id,y_true,M\na,1,2\n\t\n")
@example(text="id,y_true,M\na,,2\n")
@example(text="id,y_true,M\n")
@example(text="id,y_true,M")
@example(text="id,y_true,M,\na,1,2,3\n")
@example(text="id,y_true,M\na,-nan,2\n")
@example(text="id,y_true,M\na,1,2\r\nb,3,4\rc,5,6\r\n")
@example(text="id,y_true,M\ra,1,2\nb,1,2,3,4\n")  # csv ends the header at the CR
@example(text="id,y_true,M\n" + "a" * 200_000 + ",1,2\n")
@example(text="id,y_true,M\na," + "1" * 200_000 + ",2\n")
def test_plain_path_reads_what_the_csv_module_reads(text):
    """The loadtxt path either declines, or reads the same ids, header and float bits as
    the csv module; either way parse_predictions ends as the csv module alone would."""
    plain = _read_plain_csv(text)
    if plain is not None:
        ids, header, values = _read_csv(text)
        assert plain[0].blob.tobytes() == ids.blob.tobytes()
        assert plain[0].offsets.tolist() == ids.offsets.tolist()
        assert plain[1] == header
        assert bits(plain[2]) == bits(values)
    assert outcome(parse_predictions, text) == outcome(csv_module_only, text)


def canonical_csv(n: int) -> bytes:
    return written_csv(generate("under_vs_over", n)).encode()


def test_canonical_csv_takes_the_plain_path(monkeypatch):
    data = canonical_csv(1000)
    expected = csv_module_only(data.decode())

    def no_reader(*args, **kwargs):
        raise AssertionError("the csv module read a canonical CSV")

    monkeypatch.setattr(errscope.ingest.csv, "reader", no_reader)
    assert same_prediction_set(parse_predictions(data), expected)
    # CRLF line ends too.
    assert same_prediction_set(parse_predictions(data.replace(b"\n", b"\r\n")), expected)


def test_parse_traced_peak_at_2e5():
    """The lines go to loadtxt as a list, not as a StringIO copy of the text. With numpy
    2.4.6 on Python 3.11 the peak read 51.1 MB that way, 93.7 MB through a StringIO and
    94.8 MB through the csv module; 48.0 MB once the ids were cut from the encoded text."""
    data = canonical_csv(200_000)
    tracemalloc.start()
    try:
        parse_predictions(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 60 * 2**20


def test_duplicate_ids_allowed_but_reported():
    ps = parse_predictions("id,y_true,M1\nx,1,1\nx,2,2\ny,3,3")
    assert ps.duplicate_ids() == ["x"]
    # Ordered by each id's first repeat, not by first sighting.
    ps = parse_predictions("id,y_true,M1\na,1,1\nb,2,2\nb,3,3\na,4,4")
    assert ps.duplicate_ids() == ["b", "a"]
    n = 60_000
    ids = tuple(str(i // 2) for i in range(n))
    ps = PredictionSet(ids, np.zeros(n), ("M1",), np.zeros((n, 1)))
    t0 = time.perf_counter()
    dups = ps.duplicate_ids()
    elapsed = time.perf_counter() - t0
    assert dups == [str(i) for i in range(n // 2)]
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def with_ids(ids) -> PredictionSet:
    n = len(ids)
    return PredictionSet(ids, np.zeros(n), ("M1",), np.zeros((n, 1)))


@pytest.mark.parametrize("ids, dups", [
    (["", "a", "", "b", ""], [""]),
    (["", "a", "b"], []),
    # The same first 8 bytes and the same length: only a later byte tells them apart.
    (["abcdefgh-1", "abcdefgh-2", "abcdefgh-1", "abcdefgh-3", "abcdefgh-2"],
     ["abcdefgh-1", "abcdefgh-2"]),
    (["abcdefgh", "abcdefgh\x00", "abcdefgh"], ["abcdefgh"]),
    (["\u00e9t\u00e9", "\u2028", "\u00e9t\u00e9", "\U0001f600", "\u2028", "\U0001f600",
      "\ud800", "\ud800"], ["\u00e9t\u00e9", "\u2028", "\U0001f600", "\ud800"]),
])
def test_duplicate_ids_exact(ids, dups):
    assert with_ids(ids).duplicate_ids() == dups


def test_duplicate_ids_survive_a_constant_hash(monkeypatch):
    """Every hash colliding leaves the bytes to decide, in first-repeat order."""
    ids = ["b", "a", "\u00e9", "c", "a", "\u00e9", "b", "a", "dd", "d"]
    monkeypatch.setattr(errscope.ingest, "_hash64", lambda s: np.zeros(len(s), np.uint64))
    assert with_ids(ids).duplicate_ids() == ["a", "\u00e9", "b"]
    assert with_ids(["x", "y", "xy"]).duplicate_ids() == []


@pytest.mark.parametrize("source", ["synth", "plain_csv", "csv_module", "json"])
def test_ids_are_one_byte_column(source):
    ps = generate("under_vs_over", 20)
    text = written_csv(ps)
    if source == "plain_csv":
        ps = parse_predictions(text)
    elif source == "csv_module":
        ps = parse_predictions(text.replace("\nc7,", '\n"c7",'))
    elif source == "json":
        ps = parse_predictions(json.dumps({"instances": [
            {"id": f"c{i}", "y_true": y, "predictions": {"C1": a, "C2": b}}
            for i, (y, (a, b)) in enumerate(zip(ps.y_true.tolist(), ps.predictions.tolist()))
        ]}), format="json")
    assert isinstance(ps.instance_ids, Strings)
    assert ps.instance_ids.tolist() == [f"c{i}" for i in range(20)]


def errors_of(y_true, y_pred):
    n = len(y_true)
    return PredictionSet(tuple(map(str, range(n))), y_true, ("M",),
                         np.reshape(y_pred, (-1, 1))).errors[:, 0]


def test_errors_sign_convention():
    assert errors_of([1, 2], [1, 2]).tolist() == [0.0, 0.0]
    assert errors_of([10], [7]).tolist() == [-3.0]
    assert errors_of([0, 0, 0], [5, -5, 0]).tolist() == [5.0, -5.0, 0.0]


def test_errors_length_mismatch():
    with pytest.raises(LengthMismatch):
        errors_of([1, 2], [1])


def test_pair_columns_order_contract():
    ps = parse_predictions("id,y_true,M1,M2\na,1,2,0\nb,2,2,4")
    assert ps.index("M1") == 0 and ps.index("M2") == 1
    ea, eb = ps.errors[:, ps.index("M1")], ps.errors[:, ps.index("M2")]
    assert ea.tolist() == [1.0, 0.0]
    assert eb.tolist() == [-1.0, 2.0]
    assert ps.errors[:, [ps.index("M2"), ps.index("M1")]].tolist() == [[-1.0, 1.0], [2.0, 0.0]]


def test_index_unknown_model():
    ps = parse_predictions("id,y_true,M1,M2\na,1,2,0")
    with pytest.raises(UnknownModel, match="M3"):
        ps.index("M3")


@pytest.mark.parametrize("call, exc, message", [
    (lambda: PredictionSet(("a", "b"), np.zeros(1), ("M1",), np.zeros((1, 1))),
     LengthMismatch, "2 ids for 1 target values"),
    (lambda: PredictionSet(("a",), np.zeros(1), (), np.zeros((1, 0))),
     MalformedHeader, "at least one model column is required"),
    (lambda: parse_predictions("id,y_true,M1\na,1,2\n", format="xml"),
     ValueError, "unknown format 'xml'"),
], ids=["ids_for_fewer_targets", "no_models", "unknown_format"])
def test_bad_arguments_raise(call, exc, message):
    with pytest.raises(exc, match=message):
        call()


def test_empty_prediction_set_rejected():
    with pytest.raises(LengthMismatch):
        PredictionSet(instance_ids=(), y_true=np.empty(0), model_names=("M1",),
                      predictions=np.empty((0, 1)))
