import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from errscope import (
    boxplot_stats,
    mae,
    metric_report,
    rmse,
    sort_models_by_metric,
)
from errscope.exceptions import LengthMismatch

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
error_lists = st.lists(finite_floats, min_size=1, max_size=50)


def ev(errors):
    return np.asarray(errors, dtype=float)


def r_squared(y_true, y_pred):
    y_true, y_pred = ev(y_true), ev(y_pred)
    return metric_report(y_pred - y_true, y_true)["r_squared"]


def test_mae_hand_values():
    assert mae(ev([0, 0, 0])) == 0.0
    assert mae(ev([-1, 2, 3])) == pytest.approx(2.0)


def test_rmse_hand_values():
    assert rmse(ev([0, 0, 0])) == 0.0
    assert rmse(ev([3, 4])) == pytest.approx(math.sqrt(12.5))


def test_single_outlier_profile():
    # 999 exact predictions and one miss of 500.
    errors = ev([0.0] * 999 + [500.0])
    assert mae(errors) == pytest.approx(0.5)
    assert rmse(errors) == pytest.approx(math.sqrt(250.0))


def test_r_squared():
    y = [0.0, 1.0, 2.0]
    assert r_squared(y, y) == pytest.approx(1.0)
    assert r_squared(y, [1.0, 1.0, 1.0]) == pytest.approx(0.0)  # mean predictor
    assert r_squared(y, [0.0, 0.0, 0.0]) == pytest.approx(-1.5)
    with pytest.raises(LengthMismatch):
        metric_report(ev([1.0, 2.0]), ev([1.0]))


def test_r_squared_constant_target():
    assert r_squared([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]) is None
    assert r_squared([1.0], [1.0]) is None


def test_boxplot_singleton():
    s = boxplot_stats(ev([5.0]))
    assert (s["min_whisker"], s["q1"], s["median"], s["q3"], s["max_whisker"]) == (5.0,) * 5
    assert s["outliers"] == []


def test_boxplot_hand_example():
    s = boxplot_stats(ev([1, 2, 3, 4, 100]))
    assert s["q1"] == 2.0 and s["median"] == 3.0 and s["q3"] == 4.0
    assert s["iqr"] == 2.0
    assert s["outliers"] == [100.0]
    assert s["max_whisker"] == 4.0
    assert s["min_whisker"] == 1.0


def test_boxplot_symmetric():
    data = list(range(-5, 6))
    s = boxplot_stats(ev(data))
    assert s["median"] == 0.0
    assert s["min_whisker"] == -s["max_whisker"]


@given(error_lists)
def test_mae_le_rmse(errors):
    e = ev(errors)
    assert mae(e) <= rmse(e) + 1e-9 * max(1.0, rmse(e))


def test_mae_equals_rmse_iff_equal_magnitudes():
    assert mae(ev([2, -2, 2])) == pytest.approx(rmse(ev([2, -2, 2])))
    assert mae(ev([1, 3])) < rmse(ev([1, 3]))


@given(error_lists, st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_scaling_and_sign_flip(errors, c):
    e = ev(errors)
    scaled = ev([c * x for x in errors])
    assert rmse(scaled) == pytest.approx(abs(c) * rmse(e), rel=1e-12, abs=1e-9)
    assert mae(scaled) == pytest.approx(abs(c) * mae(e), rel=1e-12, abs=1e-9)
    flipped = ev([-x for x in errors])
    assert mae(flipped) == pytest.approx(mae(e))
    assert rmse(flipped) == pytest.approx(rmse(e))


@given(error_lists)
def test_permutation_invariance(errors):
    e = ev(errors)
    p = ev(sorted(errors))
    assert mae(p) == pytest.approx(mae(e))
    assert rmse(p) == pytest.approx(rmse(e))


@given(error_lists)
def test_boxplot_partitions_points(errors):
    e = ev(errors)
    s = boxplot_stats(e)
    inside = sum(1 for x in e if s["min_whisker"] <= x <= s["max_whisker"])
    assert inside + len(s["outliers"]) == e.size
    lo, hi = s["q1"] - 1.5 * s["iqr"], s["q3"] + 1.5 * s["iqr"]
    assert all(o < lo or o > hi for o in s["outliers"])
    assert s["min_whisker"] <= s["q1"] <= s["median"] <= s["q3"] <= s["max_whisker"]


def test_sort_models_tie_break():
    reports = {
        "b": {"mae": 1.0, "rmse": 2.0, "r_squared": None, "n": 3},
        "a": {"mae": 1.0, "rmse": 2.0, "r_squared": None, "n": 3},
    }
    assert sort_models_by_metric(reports, "rmse") == ["a", "b"]
    assert sort_models_by_metric(reports, "mae") == ["a", "b"]


@pytest.mark.parametrize("reports, key, message", [
    ({"a": {"mae": 1.0, "rmse": 2.0}}, "r_squared",
     "sort key must be 'mae' or 'rmse', got 'r_squared'"),
    ({}, "rmse", "no metric reports to sort"),
], ids=["unknown_key", "no_reports"])
def test_sort_models_bad_arguments_raise(reports, key, message):
    with pytest.raises(ValueError, match=message):
        sort_models_by_metric(reports, key)
