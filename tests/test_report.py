"""The pair report writer against the dict-per-point reference, byte for byte."""

import dataclasses
import io

import numpy as np
import pytest

import oracles

from errscope import analyze_pair
from errscope._text import ROW_CHUNK
from errscope.ingest import PredictionSet
from errscope.report import build_pair_report, to_json, write_pair_json

# Signed zeros, the smallest subnormal, integral values, a wide spread of
# magnitudes, points on both diagonals and repeated rows (tied distances).
EDGE_ERRORS = [(-0.0, 0.0), (5e-324, -5e-324), (1e-7, 2.0), (1e16, -3.0),
               (3.0, 3.0), (-4.0, 4.0), (3.0, 3.0), (0.0, -1e-7)]
HOSTILE_NAMES = ("points", 'a"b\\c', "é", '"points": []')


def prediction_set(errors, names=("A", "B")) -> PredictionSet:
    """Truths of 0, so each model's errors are exactly its column of errors."""
    e = np.array(errors, dtype=float)
    return PredictionSet(instance_ids=tuple(f"r{i}" for i in range(len(e))),
                         y_true=np.zeros(len(e)), model_names=tuple(names), predictions=e)


def analysis_and_report(ps, a, b, metric):
    an = analyze_pair(ps.errors[:, [ps.index(a), ps.index(b)]], a, b, metric=metric)
    return an, build_pair_report(ps, an)


def assert_matches_reference(path, ps, a, b, metric):
    an, report = analysis_and_report(ps, a, b, metric)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_pair_json(fh, report, an)
    assert path.read_bytes() == to_json(oracles.with_points(report, an)).encode("utf-8")


def test_single_point_has_no_separator(tmp_path):
    assert_matches_reference(tmp_path / "r.json", prediction_set([(1.5, -2.0)]),
                             "A", "B", "euclidean")


@pytest.mark.parametrize("metric", ["euclidean", "mahalanobis"])
def test_edge_values_match_reference(tmp_path, metric):
    assert_matches_reference(tmp_path / "r.json", prediction_set(EDGE_ERRORS),
                             "A", "B", metric)


@pytest.mark.parametrize("metric", ["euclidean", "mahalanobis"])
@pytest.mark.parametrize("a, b", [('"points": []', "points"), ('a"b\\c', "é")])
def test_hostile_model_names_match_reference(tmp_path, metric, a, b):
    rng = np.random.default_rng(11)
    ps = prediction_set(rng.normal(size=(20, 4)), HOSTILE_NAMES)
    assert_matches_reference(tmp_path / "r.json", ps, a, b, metric)


def test_rows_past_one_chunk_match_reference(tmp_path):
    rng = np.random.default_rng(12)
    # Scales that give every layout of repr: fixed, below 1e-4, past 1e16, three-digit
    # exponents and subnormals; then signed zeros.
    scale = rng.choice([1.0, 1e-5, 1e20, 1e120, 1e-120, 1e-310], size=(ROW_CHUNK + 1, 2))
    errors = rng.normal(size=(ROW_CHUNK + 1, 2)) * scale
    errors[:2] = [[0.0, -0.0], [-0.0, 0.0]]
    ps = prediction_set(errors)
    assert_matches_reference(tmp_path / "r.json", ps, "A", "B", "mahalanobis")


@pytest.mark.parametrize("column", ["e", "distance", "percentile"])
def test_non_finite_column_leaves_no_file(column):
    an, report = analysis_and_report(prediction_set(EDGE_ERRORS), "A", "B", "mahalanobis")
    bad = getattr(an, column).copy()
    bad.flat[0] = np.nan
    # Refused before the first byte, so the CLI has no partial report to remove.
    buf = io.StringIO()
    with pytest.raises(ValueError):
        write_pair_json(buf, report, dataclasses.replace(an, **{column: bad}))
    assert buf.getvalue() == ""
