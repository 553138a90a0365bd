import json

import numpy as np
import pytest

from errscope import PredictionSet, parse_predictions, select_pair
from errscope.exceptions import (
    DuplicateModelName,
    LengthMismatch,
    MalformedHeader,
    NonFinite,
    NonNumeric,
    UnknownModel,
)


def test_minimal_csv():
    ps = parse_predictions(b"id,y_true,M1\na,1.0,2.0\nb,3.0,3.0")
    assert ps.n == 2
    assert ps.instance_ids == ("a", "b")
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
    assert ps.instance_ids == ("a,b",)
    assert ps.y_true.tolist() == [1000.0]
    assert ps.column("M1").tolist() == [-0.025]


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
    assert ps.column("M2").tolist() == [0.5, 2.0]


def test_json_inconsistent_model_sets():
    text = (
        '{"instances":['
        '{"id":"a","y_true":1.0,"predictions":{"M1":2.0}},'
        '{"id":"b","y_true":3.0,"predictions":{"M2":3.0}}]}'
    )
    with pytest.raises(LengthMismatch):
        parse_predictions(text, format="json")


def test_serialize_parse_roundtrip():
    ps = parse_predictions("id,y_true,M1,M2\na,1.5,2.25,0.125\nb,-3.0,3.0,1e-9")
    assert parse_predictions(ps.to_csv()) == ps
    instances = [
        {"id": iid, "y_true": y, "predictions": dict(zip(ps.model_names, preds))}
        for iid, y, preds in zip(ps.instance_ids, ps.y_true.tolist(), ps.predictions.tolist())
    ]
    assert parse_predictions(json.dumps({"instances": instances}), format="json") == ps


def test_duplicate_ids_allowed_but_reported():
    ps = parse_predictions("id,y_true,M1\nx,1,1\nx,2,2\ny,3,3")
    assert ps.duplicate_ids() == ["x"]


def test_select_pair_order_contract():
    ps = parse_predictions("id,y_true,M1,M2\na,1,2,0\nb,2,2,4")
    ea, eb = select_pair(ps, "M1", "M2")
    assert ea.model_name == "M1" and eb.model_name == "M2"
    assert list(ea.errors) == [1.0, 0.0]
    assert list(eb.errors) == [-1.0, 2.0]
    eb2, ea2 = select_pair(ps, "M2", "M1")
    assert eb2.model_name == "M2"
    assert list(eb2.errors) == list(eb.errors)


def test_select_pair_unknown_model():
    ps = parse_predictions("id,y_true,M1,M2\na,1,2,0")
    with pytest.raises(UnknownModel, match="M3"):
        select_pair(ps, "M1", "M3")


def test_empty_prediction_set_rejected():
    with pytest.raises(LengthMismatch):
        PredictionSet(instance_ids=(), y_true=np.empty(0), model_names=("M1",),
                      predictions=np.empty((0, 1)))
