import numpy as np
import pytest

from oracles import check_spd, mahalanobis

from errscope import (
    QUADRANTS,
    ZONES,
    Quadrant,
    Zone,
    analyze_pair,
    classify,
    covariance2,
    crown_threshold,
    mahalanobis_many,
    median2d,
    percentile_ranks,
)
from errscope.errorspace import regularized_inverse
from errscope.exceptions import DegenerateDistribution, LengthMismatch, NonFinite


def pair(a, b):
    return np.column_stack([a, b]).astype(float)


def zones_of(points):
    return [ZONES[code] for code in classify(np.array(points, dtype=float))[0]]


def quadrants_of(points):
    return [QUADRANTS[code] for code in classify(np.array(points, dtype=float))[1]]


def test_classify_zone():
    assert zones_of([(1.0, 1.0), (-1.0, 2.0), (3.0, -1.0), (2.0, -2.0), (0.0, 0.0)]) == [
        Zone.TIE, Zone.A_BETTER, Zone.B_BETTER,
        Zone.TIE,  # anti-diagonal
        Zone.TIE,
    ]


def test_classify_zone_swap_symmetry():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(200, 2))
    for z, zs in zip(zones_of(pts), zones_of(pts[:, ::-1])):
        if z is Zone.TIE:
            assert zs is Zone.TIE
        else:
            assert {z, zs} == {Zone.A_BETTER, Zone.B_BETTER}


def test_classify_quadrant():
    pts = [(2.0, 3.0), (-2.0, 3.0), (2.0, -3.0), (-2.0, -3.0), (0.0, 5.0), (5.0, 0.0)]
    assert quadrants_of(pts) == [
        Quadrant.OVER_OVER, Quadrant.UNDER_OVER, Quadrant.OVER_UNDER,
        Quadrant.UNDER_UNDER, Quadrant.ON_AXIS, Quadrant.ON_AXIS,
    ]


def test_median2d():
    assert median2d([(1.0, 2.0)]) == (1.0, 2.0)
    assert median2d([(0, 0), (2, 4), (10, -4)]) == (2.0, 0.0)
    sym = [(1, 1), (-1, -1), (2, -2), (-2, 2)]
    assert median2d(sym) == (0.0, 0.0)


def test_covariance2_hand_values():
    cov = covariance2([(0, 0), (1, 1)])
    assert np.allclose(cov, [[0.5, 0.5], [0.5, 0.5]])
    cov = covariance2([(-1, 0), (1, 0), (0, -1), (0, 1)])
    assert np.allclose(cov, [[2.0 / 3.0, 0.0], [0.0, 2.0 / 3.0]])
    with pytest.raises(DegenerateDistribution):
        covariance2([(1.0, 2.0)])


def test_regularized_inverse_handles_singular():
    for pts in ([(0, 0), (1, 1), (2, 2)], [(3, 4), (3, 4), (3, 4)]):
        cov, inv = regularized_inverse(covariance2(pts))
        assert np.allclose(cov @ inv, np.eye(2), atol=1e-9)


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
        check_spd(regularized_inverse(covariance2(pts))[1])


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


def test_crown_threshold():
    assert crown_threshold([1, 2, 3]) == 2.0
    assert crown_threshold([1, 2, 3, 10]) == 2.5
    assert crown_threshold([4.0] * 7) == 4.0


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


@pytest.mark.parametrize("scale", [1e-156, 1e-158, 1e-160])
def test_analyze_pair_subnormal_covariance_is_degenerate(scale):
    # The covariance is subnormal and its inverse overflows; Euclidean
    # distances of the same errors are finite.
    e = np.random.default_rng(40).normal(size=(40, 2)) * scale
    with pytest.raises(DegenerateDistribution, match="distances"):
        analyze_pair(e, "A", "B", metric="mahalanobis")
    assert np.isfinite(analyze_pair(e, "A", "B", metric="euclidean").distance).all()


def test_analysis_serialization_shape():
    rng = np.random.default_rng(8)
    an = analyze_pair(pair(rng.normal(size=10), rng.normal(size=10)), "A", "B")
    d = an.to_dict()
    assert len(d["points"]) == 10
    assert len(d["summary"]["covariance"]) == 4
    assert set(d["points"][0]) == {"e1", "e2", "zone", "quadrant", "distance", "percentile"}


def test_linear_distance_evaluation_count():
    # One inversion then O(N) vectorized evaluations: timing slope stays flat.
    import time
    rng = np.random.default_rng(9)
    small = rng.normal(size=(10_000, 2))
    big = rng.normal(size=(100_000, 2))
    cov_inv = np.linalg.inv(covariance2(big))

    def best(pts):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            mahalanobis_many(pts, (0.0, 0.0), cov_inv)
            times.append(time.perf_counter() - t0)
        return min(times)

    assert best(big) < 15.0 * max(best(small), 1e-6)
