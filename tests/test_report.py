"""The pair report writer against the reference layout of json.dumps, byte for byte, and
its points read back to the analysis bit for bit."""

import dataclasses
import errno
import io
import json
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest

import oracles

from errscope import analyze_pair, density, errorspace, generate
from errscope._text import ROW_CHUNK
from errscope.errorspace import QUADRANTS, ZONES
from errscope.ingest import PredictionSet
from errscope.report import DECISIONS, build_pair_report, write_pair_json

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
    text = path.read_text(encoding="utf-8")
    assert text == oracles.report_text(oracles.with_points(report, an))
    return an, json.loads(text)


def test_single_point_has_no_separator(tmp_path):
    assert_matches_reference(tmp_path / "r.json", prediction_set([(1.5, -2.0)]),
                             "A", "B", "euclidean")


def assert_points_read_back(an, report):
    """The float columns of the points hold the analysis' bits; the codes index the names."""
    errorspace = report["errorspace"]
    points = np.array(errorspace["points"])
    assert points.shape == (an.n, 6)
    columns = dict(zip(errorspace["point_fields"], points.T))
    want = {"e1": an.e[:, 0], "e2": an.e[:, 1], "distance": an.distance,
            "percentile": an.percentile}
    for name, values in want.items():
        assert np.array_equal(columns[name].view(np.uint64), values.view(np.uint64)), name
    assert ([errorspace["zones"][int(c)] for c in columns["zone"]]
            == [ZONES[c] for c in an.zone.tolist()])
    assert ([errorspace["quadrants"][int(c)] for c in columns["quadrant"]]
            == [QUADRANTS[c] for c in an.quadrant.tolist()])


@pytest.mark.parametrize("metric", ["euclidean", "mahalanobis"])
def test_edge_values_match_reference(tmp_path, metric):
    an, report = assert_matches_reference(tmp_path / "r.json", prediction_set(EDGE_ERRORS),
                                          "A", "B", metric)
    assert_points_read_back(an, report)


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
    assert_points_read_back(*assert_matches_reference(tmp_path / "r.json", ps, "A", "B",
                                                      "mahalanobis"))


@pytest.mark.parametrize("k", [1, 2], ids=["one_core", "two_cores"])
def test_write_pair_json_traced_peak_at_1e5(on_cores, k):
    on_cores(k)
    an, report = analysis_and_report(generate("correlated_pair", 100_000, seed=1),
                                      "E1", "E2", "mahalanobis")
    with open(os.devnull, "w", encoding="utf-8", newline="\n") as fh:
        tracemalloc.start()
        try:
            write_pair_json(fh, report, an)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # With numpy 2.4.6 on Python 3.11 the peak read 4.1 MB with a one-line array per point,
    # 5.1 MB with a dict per point (chunks of 4096 rows) and 12.6 to 13.4 MB with chunks of
    # 16384. Each chunk's kernel words made at once: 5.5 MB on one core, 6.3 MB on two,
    # where the helper writes one chunk while the next is made.
    assert peak <= 8 * 2**20


class FullAfterHead(io.StringIO):
    """A file whose every write after the first raises ENOSPC."""

    def write(self, text):
        if self.tell():
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(text)


def test_failed_write_gives_back_the_helpers_core(helpers, on_cores):
    # The first chunk of points, written on the row writer's helper, goes out with the head;
    # the second write fails. The writer is closed, and so its helper joined, as the error
    # leaves write_pair_json, even while the error, and so its traceback, is kept.
    on_cores(2)
    an, report = analysis_and_report(generate("correlated_pair", 3 * ROW_CHUNK, seed=1),
                                      "E1", "E2", "mahalanobis")
    before = threading.enumerate()
    with pytest.raises(OSError, match="No space left") as failure:
        write_pair_json(FullAfterHead(), report, an)
    assert len(helpers) == 1 and helpers[0] and threading.enumerate() == before
    assert failure.value.__traceback__ is not None


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


def test_decisions_quote_the_live_constants():
    """Each number the KDE and covariance DECISIONS texts quote is the constant the code
    runs with."""
    kde, cov = DECISIONS["kde_evaluation"], DECISIONS["covariance"]
    quotes = [
        (kde, r"sqrt\(8 \* ([\d.e-]+)\)", density.KDE_BIN_ERROR),
        (kde, r"if K <= (\d+), else exact", density.KDE_MAX_SUBSTEPS),
        (kde, r"if both axes pass (\d+),", density.KDE_MAX_SUBSTEPS),
        (kde, r"binned if K <= (\d+);", density.KDE_MAX_SUBSTEPS_ONE),
        (kde, r"kernel cut at ([\d.e-]+)h$", density.KDE_EXACT_REACH),
        (cov, r"ridge ([\d.e-]+) \*", errorspace._RIDGE_SCALE),
        (cov, r"condition number passes ([\d.e-]+)$", errorspace._COND_LIMIT),
    ]
    for text, pattern, value in quotes:
        match = re.search(pattern, text)
        assert match is not None and float(match.group(1)) == value, (pattern, value)
