import json

import numpy as np
import pytest

from oracles import check_spd, mahalanobis, midrank_percentiles

import errscope.errorspace
from errscope import (
    QUADRANTS,
    ZONES,
    analyze_pair,
    classify,
    mahalanobis_many,
    percentile_ranks,
)
from errscope.exceptions import DegenerateDistribution, LengthMismatch, NonFinite
from errscope.render import _crown_curve
from errscope.report import write_pair_json


def pair(a, b):
    return np.column_stack([a, b]).astype(float)


def zones_of(points):
    return [ZONES[code] for code in classify(np.array(points, dtype=float))[0]]


def quadrants_of(points):
    return [QUADRANTS[code] for code in classify(np.array(points, dtype=float))[1]]


def test_classify_zone():
    assert zones_of([(1.0, 1.0), (-1.0, 2.0), (3.0, -1.0), (2.0, -2.0), (0.0, 0.0)]) == [
        "tie", "a_better", "b_better",
        "tie",  # anti-diagonal
        "tie",
    ]


def test_classify_zone_swap_symmetry():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(200, 2))
    for z, zs in zip(zones_of(pts), zones_of(pts[:, ::-1])):
        if z == "tie":
            assert zs == "tie"
        else:
            assert {z, zs} == {"a_better", "b_better"}


def test_classify_quadrant():
    pts = [(2.0, 3.0), (-2.0, 3.0), (2.0, -3.0), (-2.0, -3.0), (0.0, 5.0), (5.0, 0.0)]
    assert quadrants_of(pts) == [
        "over_over", "under_over", "over_under",
        "under_under", "on_axis", "on_axis",
    ]


def euclidean(points):
    return analyze_pair(np.array(points, dtype=float), "A", "B", metric="euclidean")


def test_median2d():
    assert euclidean([(1.0, 2.0)]).median2d == (1.0, 2.0)
    assert euclidean([(0, 0), (2, 4), (10, -4)]).median2d == (2.0, 0.0)
    sym = [(1, 1), (-1, -1), (2, -2), (-2, 2)]
    assert euclidean(sym).median2d == (0.0, 0.0)
    # The two middle values sum past float64 (any numpy warning fails the test).
    with pytest.raises(DegenerateDistribution, match="median overflows"):
        euclidean([(-1e308, 0.0), (-1e308, 0.0)])


def test_covariance2_hand_values():
    cov = euclidean([(0, 0), (1, 1)]).covariance
    assert np.allclose(cov, [[0.5, 0.5], [0.5, 0.5]])
    cov = euclidean([(-1, 0), (1, 0), (0, -1), (0, 1)]).covariance
    assert np.allclose(cov, [[2.0 / 3.0, 0.0], [0.0, 2.0 / 3.0]])


def test_regularized_inverse_handles_singular():
    for pts in ([(0, 0), (1, 1), (2, 2)], [(3, 4), (3, 4), (3, 4)]):
        an = analyze_pair(np.array(pts, dtype=float), "A", "B", metric="mahalanobis")
        cov, inv = an.covariance, np.linalg.inv(an.covariance)
        assert np.allclose(cov @ inv, np.eye(2), atol=1e-9)
        assert np.isfinite(an.distance).all()


def test_mahalanobis_hand_values():
    eye = np.eye(2)
    assert mahalanobis_many(np.array([[1.0, 2.0]]), (1.0, 2.0), eye)[0] == 0.0
    assert mahalanobis_many(np.array([[3.0, 4.0]]), (0.0, 0.0), eye)[0] == pytest.approx(5.0)
    cov_inv = np.diag([0.25, 1.0])  # cov = diag(4, 1)
    d = mahalanobis_many(np.array([[2.0, 0.0]]), (0.0, 0.0), cov_inv)[0]
    assert d == pytest.approx(mahalanobis((2.0, 0.0), (0.0, 0.0), cov_inv))
    assert d == pytest.approx(1.0)


def test_mahalanobis_rejects_non_spd():
    # The scalar oracle refuses a matrix that is not an SPD inverse ...
    with pytest.raises(ValueError):
        mahalanobis((1, 1), (0, 0), np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        mahalanobis((1, 1), (0, 0), np.array([[-1.0, 0.0], [0.0, 1.0]]))
    # ... and analyze_pair only ever hands mahalanobis_many an SPD inverse,
    # degenerate clouds included.
    for pts in ([(0, 0), (1, 1), (2, 2)], [(3, 4), (3, 4), (3, 4)], [(0, 0), (1, 0), (0, 1)]):
        an = analyze_pair(np.array(pts, dtype=float), "A", "B", metric="mahalanobis")
        check_spd(np.linalg.inv(an.covariance))


def test_mahalanobis_reflection_symmetry():
    cov_inv = np.diag([0.5, 2.0])
    pts = np.random.default_rng(2).normal(size=(100, 2))
    d = mahalanobis_many(pts, (0, 0), cov_inv)
    assert np.allclose(d, mahalanobis_many(pts * [-1.0, 1.0], (0, 0), cov_inv))
    assert np.allclose(d, [mahalanobis(p, (0, 0), cov_inv) for p in pts])


def test_percentile_ranks_midrank():
    assert np.allclose(percentile_ranks([5.0, 5.0, 5.0]), [0.5, 0.5, 0.5])
    assert np.allclose(percentile_ranks([1, 2, 3, 4]), [0.125, 0.375, 0.625, 0.875])
    n = 17
    ranks = percentile_ranks(np.arange(n, dtype=float) + 1)
    assert ranks[0] == pytest.approx(0.5 / n)
    assert np.all((ranks > 0) & (ranks < 1))
    assert np.all(np.diff(np.sort(ranks)) >= 0)


def test_percentile_ranks_permutation_deterministic():
    rng = np.random.default_rng(3)
    d = rng.uniform(size=50)
    perm = rng.permutation(50)
    assert np.allclose(percentile_ranks(d)[perm], percentile_ranks(d[perm]))


_rng = np.random.default_rng(11)
RANK_CASES = {
    "random": _rng.uniform(size=1000),
    "heavy_ties": np.round(_rng.normal(size=1000), 1),
    "all_equal": np.full(50, 2.5),
    "one": np.array([7.0]),
    "signed_zeros": np.array([0.0, -0.0, 1.0, -0.0, 0.0, 0.5, -0.0]),
    "subnormals": np.array([5e-324, 0.0, 1e-310, 5e-324, 2.2e-308, 1e-320, 0.0]),
    "distances_1e5": np.hypot(*_rng.normal(size=(2, 100_000))),
}


@pytest.mark.parametrize("d", RANK_CASES.values(), ids=RANK_CASES)
def test_percentile_ranks_match_binary_search(d):
    assert percentile_ranks(d).tobytes() == midrank_percentiles(d).tobytes()


def test_crown_threshold():
    # Each cloud's componentwise median is (0, 0), so the distances are the radii.
    an = euclidean([(1, 0), (0, 2), (-3, 0)])
    assert an.distance.tolist() == [1.0, 2.0, 3.0] and an.crown_threshold == 2.0
    an = euclidean([(1, 0), (0, 2), (-3, 0), (0, -10)])
    assert an.distance.tolist() == [1.0, 2.0, 3.0, 10.0] and an.crown_threshold == 2.5
    an = euclidean([(4, 0), (-4, 0), (0, 4), (0, -4), (4, 0), (-4, 0), (0, 4)])
    assert an.distance.tolist() == [4.0] * 7 and an.crown_threshold == 4.0


def test_analyze_pair_identical_errors_all_tie():
    an = analyze_pair(pair(np.arange(10.0), np.arange(10.0)), "A", "B")
    assert an.zone_counts == {"a_better": 0, "b_better": 0, "tie": 10}


def test_analyze_pair_antidiagonal_all_tie():
    e = np.linspace(-3.0, 3.0, 9)
    an = analyze_pair(pair(e, -e), "A", "B")
    assert an.zone_counts["tie"] == 9


def test_analyze_pair_zone_swap():
    rng = np.random.default_rng(4)
    a = rng.normal(size=101)
    b = rng.normal(scale=2.0, size=101)
    an = analyze_pair(pair(a, b), "A", "B")
    an_swapped = analyze_pair(pair(b, a), "B", "A")
    assert an.zone_counts["a_better"] == an_swapped.zone_counts["b_better"]
    assert an.zone_counts["b_better"] == an_swapped.zone_counts["a_better"]
    assert an.zone_counts["tie"] == an_swapped.zone_counts["tie"]
    assert sum(an.zone_counts.values()) == 101
    assert sum(an.quadrant_counts.values()) == 101


def test_identity_covariance_reduces_to_euclidean():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(1000, 2))
    d_m = mahalanobis_many(pts, (0.0, 0.0), np.eye(2))
    d_e = np.hypot(pts[:, 0], pts[:, 1])
    assert np.max(np.abs(d_m - d_e)) < 1e-12


def test_mahalanobis_scale_invariance():
    rng = np.random.default_rng(6)
    a = rng.normal(size=500)
    b = rng.normal(size=500) + 0.5 * a
    an1 = analyze_pair(pair(a, b), "A", "B", metric="mahalanobis")
    an10 = analyze_pair(pair(10.0 * a, 10.0 * b), "A", "B", metric="mahalanobis")
    d1, d10 = an1.distance, an10.distance
    assert np.max(np.abs(d10 - d1) / np.maximum(d1, 1e-30)) < 1e-9

    e1 = analyze_pair(pair(a, b), "A", "B", metric="euclidean")
    e10 = analyze_pair(pair(10.0 * a, 10.0 * b), "A", "B", metric="euclidean")
    assert np.allclose(e10.distance, 10.0 * e1.distance)


def test_crown_splits_in_half():
    rng = np.random.default_rng(7)
    an = analyze_pair(pair(rng.normal(size=101), rng.normal(size=101)), "A", "B")
    d = an.distance
    assert np.sum(d < an.crown_threshold) == 50
    assert np.sum(d > an.crown_threshold) == 50


def test_analyze_pair_mahalanobis_needs_three_points():
    with pytest.raises(DegenerateDistribution):
        analyze_pair(pair([1, 2], [3, 4]), "A", "B", metric="mahalanobis")


@pytest.mark.parametrize("e, exc", [
    (np.zeros((4, 3)), LengthMismatch),
    (np.zeros(4), LengthMismatch),
    (np.zeros((0, 2)), LengthMismatch),
    ([[0.0, 1.0], [np.nan, 2.0], [1.0, 0.0]], NonFinite),
], ids=["3_columns", "1d", "empty", "nan"])
def test_analyze_pair_rejects_bad_input(e, exc):
    with pytest.raises(exc):
        analyze_pair(e, "A", "B", metric="euclidean")


@pytest.mark.parametrize("call, exc, message", [
    (lambda: percentile_ranks([]), DegenerateDistribution, "needs at least one value"),
    (lambda: analyze_pair(np.eye(3, 2), "A", "B", metric="cityblock"), ValueError,
     "metric must be 'euclidean' or 'mahalanobis', got 'cityblock'"),
], ids=["ranks_of_nothing", "unknown_metric"])
def test_bad_arguments_raise(call, exc, message):
    with pytest.raises(exc, match=message):
        call()


@pytest.mark.parametrize("scale", [1e-156, 1e-158, 1e-160])
def test_analyze_pair_subnormal_covariance_is_degenerate(scale):
    # The covariance is subnormal and its inverse overflows; Euclidean
    # distances of the same errors are finite.
    e = np.random.default_rng(40).normal(size=(40, 2)) * scale
    with pytest.raises(DegenerateDistribution, match="distances"):
        analyze_pair(e, "A", "B", metric="mahalanobis")
    assert np.isfinite(analyze_pair(e, "A", "B", metric="euclidean").distance).all()


@pytest.mark.parametrize("value", [1e-160, 3e-170, 1.7e-200])
@pytest.mark.parametrize("metric", ["euclidean", "mahalanobis"])
def test_equal_tiny_errors_on_one_axis_are_not_an_underflow(value, metric):
    # The centered errors of equal values are not all 0, as their mean rounds, and their
    # squares underflow; but the variance is 0, so the ridge applies as for any equal axis.
    e = np.column_stack([np.full(10, value), np.random.default_rng(41).normal(size=10)])
    an = analyze_pair(e, "A", "B", metric=metric)
    assert an.correlation is None and an.covariance[0, 0] == 1e-9


def test_analysis_serialization_shape(tmp_path):
    rng = np.random.default_rng(8)
    an = analyze_pair(pair(rng.normal(size=10), rng.normal(size=10)), "A", "B")
    with open(tmp_path / "report.json", "w", encoding="utf-8", newline="\n") as fh:
        write_pair_json(fh, {}, an)
    d = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))["errorspace"]
    assert len(d["points"]) == 10
    assert len(d["summary"]["covariance"]) == 4
    assert d["point_fields"] == ["e1", "e2", "distance", "percentile", "zone", "quadrant"]
    assert all(len(row) == len(d["point_fields"]) for row in d["points"])


def test_linear_distance_evaluation_count():
    # One inversion then O(N) vectorized evaluations: timing slope stays flat.
    import time
    rng = np.random.default_rng(9)
    small = rng.normal(size=(10_000, 2))
    big = rng.normal(size=(100_000, 2))
    cov_inv = np.linalg.inv(np.cov(big, rowvar=False))

    def best(pts):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            mahalanobis_many(pts, (0.0, 0.0), cov_inv)
            times.append(time.perf_counter() - t0)
        return min(times)

    assert best(big) < 15.0 * max(best(small), 1e-6)


def correlated(n, rho, scale=1.0, seed=12):
    z = np.random.default_rng(seed).normal(size=(n, 2))
    return scale * np.column_stack([z[:, 0], rho * z[:, 0] + np.sqrt(1 - rho * rho) * z[:, 1]])


CLOUDS = {
    "random": correlated(500, 0.3),
    "anticorrelated": correlated(50, -0.97, seed=13),
    "uncorrelated": np.random.default_rng(14).normal(size=(1000, 2)) * [3.0, 1e-3],
    "wide_1e120": correlated(300, 0.8, scale=1e120, seed=15),
    "n_2": np.array([[1.0, -2.0], [4.0, 7.5]]),
}


@pytest.mark.parametrize("e", CLOUDS.values(), ids=CLOUDS)
def test_error_correlation_matches_corrcoef(e):
    an = analyze_pair(e, "A", "B", metric="euclidean")
    assert an.correlation == pytest.approx(np.corrcoef(e[:, 0], e[:, 1])[0, 1], rel=1e-12)


def test_error_correlation_undefined():
    assert euclidean([(1.0, 2.0)]).correlation is None
    assert euclidean([(1.0, 2.0), (1.0, 3.0), (1.0, -4.0)]).correlation is None


@pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 4, 1.2, 2.5])
def test_ridge_exactly_past_condition_limit(theta):
    # Four points at +-sqrt(k) u and +-v, for orthonormal u and v at angle theta: the
    # sample covariance is (2k uu' + 2vv') / 3, of condition number k.
    u, v = np.array([np.cos(theta), np.sin(theta)]), np.array([-np.sin(theta), np.cos(theta)])
    ridged = []
    for k in (1e12 * (1 - 1e-3), 1e12 * (1 + 1e-3)):
        pts = np.array([np.sqrt(k) * u, -np.sqrt(k) * u, v, -v])
        ref = np.cov(pts, rowvar=False)
        cov = analyze_pair(pts, "A", "B", metric="euclidean").covariance
        ridged.append(bool(np.abs(cov - ref).max() > 1e-11 * np.abs(ref).max()))
        assert ridged[-1] == (np.linalg.cond(ref) > 1e12)
    assert ridged == [False, True]


@pytest.mark.parametrize("e", [CLOUDS[k] for k in ("random", "anticorrelated", "uncorrelated")]
                         + [correlated(200, 0.6, scale=s) for s in (1e-100, 1e100)],
                         ids=["random", "anticorrelated", "uncorrelated", "1e-100", "1e100"])
def test_mahalanobis_inverse_matches_linalg(monkeypatch, e):
    passed = []

    def spy(points, center, cov_inv):
        passed.append(cov_inv)
        return mahalanobis_many(points, center, cov_inv)

    monkeypatch.setattr(errscope.errorspace, "mahalanobis_many", spy)
    an = analyze_pair(e, "A", "B")
    ref = np.linalg.inv(an.covariance)
    assert np.abs(passed[0] - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("e", CLOUDS.values(), ids=CLOUDS)
def test_crown_vertices_at_crown_threshold(e):
    if e.shape[0] < 3:
        e = np.vstack([e, [[0.5, 0.25]]])
    an = analyze_pair(e, "A", "B")
    vertices = np.column_stack(_crown_curve(an))
    d = mahalanobis_many(vertices, an.median2d, np.linalg.inv(an.covariance))
    assert np.abs(d / an.crown_threshold - 1.0).max() <= 1e-9
