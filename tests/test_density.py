import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    axial_to_xy,
    hex_cells_counter,
    hex_centers,
    hex_total,
    hex_vertices,
    kde_values,
    riemann_mass,
)

import errscope
from errscope import SCENARIOS, generate, hex_corners, hexbin, kde2d
from errscope.density import default_hex_radius, xy_to_axial
from errscope.exceptions import DegenerateDistribution


def kde_error(pts, grid) -> float:
    """max |grid.values - kde_values| over the grid, relative to the largest kde_values."""
    ref = kde_values(pts, grid.xs, grid.ys, grid.bandwidth)
    return float(np.abs(grid.values - ref).max() / ref.max())


def test_kde_peak_closed_form():
    # Every point at the origin: the density is the kernel itself.
    pts = np.zeros((10, 2))
    hx, hy = 0.7, 1.3
    grid = kde2d(pts, bandwidth=(hx, hy))
    assert grid.xs[0] == -3.0 * hx and grid.ys[-1] == 3.0 * hy

    def phi(t):
        return np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)

    expected = np.outer(phi(grid.xs / hx) / hx, phi(grid.ys / hy) / hy)
    assert np.abs(grid.values - expected).max() <= 1e-3 * expected.max()
    assert grid.values.max() == pytest.approx(1.0 / (2.0 * math.pi * hx * hy), rel=1e-3)


def test_kde_mass_normalized():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(200, 2)) * [2.0, 0.5]
    assert riemann_mass(kde2d(pts)) == pytest.approx(1.0, abs=0.02)


def test_kde_two_equal_clusters_symmetric_peaks():
    # Two clusters mirrored through the origin, so the grid is too.
    cluster = np.random.default_rng(1).normal(scale=0.1, size=(50, 2)) + [-5.0, 0.0]
    grid = kde2d(np.vstack([cluster, -cluster]), bandwidth=(0.3, 0.3))
    left = grid.values[:100, :].max()
    right = grid.values[100:, :].max()
    assert abs(left - right) < 1e-9


def test_kde_translation_equivariance():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(50, 2))
    g0 = kde2d(pts, bandwidth=(0.5, 0.5))
    shift = np.array([12.5, -3.25])
    g1 = kde2d(pts + shift, bandwidth=(0.5, 0.5))
    np.testing.assert_allclose(g1.xs, g0.xs + shift[0], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(g1.ys, g0.ys + shift[1], rtol=0.0, atol=1e-12)
    assert np.max(np.abs(g0.values - g1.values)) < 1e-12


def test_kde_permutation_invariance():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(40, 2))
    g0 = kde2d(pts, bandwidth=(0.4, 0.4))
    g1 = kde2d(pts[rng.permutation(40)], bandwidth=(0.4, 0.4))
    assert np.array_equal(g0.xs, g1.xs) and np.array_equal(g0.ys, g1.ys)
    assert np.allclose(g0.values, g1.values)


@pytest.mark.parametrize("kind", sorted(SCENARIOS))
def test_kde_matches_whole_array_oracle(kind):
    e = generate(kind, 1_000, seed=9).errors[:, :2]
    assert kde_error(e, kde2d(e)) <= 1e-3


def test_kde_explicit_grid_matches_whole_array_oracle():
    """Default grid at axis scales 1e-3 and 1e4; its axes are checked against linspace."""
    pts = np.random.default_rng(10).normal(size=(3_000, 2)) * [1e-3, 1e4]
    bandwidth = (2e-4, 1.5e3)
    grid = kde2d(pts, bandwidth=bandwidth)
    for k, axis in enumerate((grid.xs, grid.ys)):
        pad = 3.0 * bandwidth[k]
        assert np.array_equal(axis, np.linspace(pts[:, k].min() - pad, pts[:, k].max() + pad, 200))
    assert kde_error(pts, grid) <= 1e-3


@pytest.mark.parametrize("ulps", [1 / 6.4, 1e-3], ids=["binned", "exact"])
def test_kde_grid_finer_than_float_spacing(ulps):
    # Points a few ulps apart at 1e10: grid (and fine) nodes coincide in float64,
    # and the largest point sits on the last node.
    ulp = np.spacing(1e10)
    pts = 1e10 + ulp * np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 1.0], [2.0, 2.0]])
    grid = kde2d(pts, bandwidth=(ulps * ulp, ulps * ulp))
    assert len(np.unique(grid.xs)) == 3
    assert kde_error(pts, grid) <= 1e-3


def steps_per_bandwidth(grid) -> list[float]:
    """h / dx on each axis; below 1.3975 the KDE evaluates that axis exactly."""
    return [h / (axis[1] - axis[0]) for axis, h in zip((grid.xs, grid.ys), grid.bandwidth)]


def correlated_cloud(n):
    z = np.random.default_rng(12).normal(size=(n, 2))
    return 10.0 * np.column_stack([0.9 * z[:, 0] + math.sqrt(0.19) * z[:, 1], z[:, 0]])


def near_cutoff_cloud(n):
    # The far point stretches both axes until h / dx is about 1.36.
    pts = np.random.default_rng(11).normal(size=(n, 2))
    pts[0] = [16.25, 16.25]
    return pts


CLOUDS_1E5 = {
    # x is zeros plus one outlier, so plain binning would sample a spike.
    "outlier_vs_moderate": lambda: generate("outlier_vs_moderate", 100_000, seed=9).errors[:, :2],
    "student_t3": lambda: np.random.default_rng(13).standard_t(3, size=(100_000, 2)),
    "near_cutoff": lambda: near_cutoff_cloud(100_000),
}


@pytest.mark.parametrize("cloud", CLOUDS_1E5)
def test_kde_accuracy_at_1e5(cloud):
    pts = CLOUDS_1E5[cloud]()
    grid = kde2d(pts)
    ratios = steps_per_bandwidth(grid)
    if cloud == "outlier_vs_moderate":
        assert ratios[0] < 1.39 < ratios[1]
    else:
        assert all(1.39 > r for r in ratios)
    if cloud == "near_cutoff":
        assert all(1.3 < r for r in ratios)
    assert kde_error(pts, grid) <= 1e-3


KDE_DIGESTS = """
import hashlib
from errscope import generate, kde2d
for kind in ("correlated_pair", "outlier_vs_moderate"):
    values = kde2d(generate(kind, 3000, seed=1).errors[:, :2]).values
    print(kind, hashlib.sha256(values.tobytes()).hexdigest())
"""


def test_kde_bits_independent_of_blas_threads():
    # OpenBLAS reads its thread count when numpy loads, so each count gets its own process.
    src = str(Path(errscope.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = [subprocess.run([sys.executable, "-c", KDE_DIGESTS], capture_output=True,
                              text=True, check=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": n}
                              ).stdout for n in ("1", "2")]
    assert digests[0].count("\n") == 2
    assert digests[0] == digests[1]


@pytest.mark.parametrize("pts", [correlated_cloud, near_cutoff_cloud],
                         ids=["correlated", "near_cutoff"])
def test_kde_traced_peak_at_1e5(pts):
    pts = pts(100_000)
    tracemalloc.start()
    try:
        kde2d(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20


def test_kde_degenerate_inputs():
    with pytest.raises(DegenerateDistribution):
        kde2d(np.zeros((5, 2)))
    with pytest.raises(DegenerateDistribution):
        kde2d(np.array([[1.0, 2.0]]))


@pytest.mark.parametrize("call, message", [
    (lambda: kde2d(np.eye(3, 2), bandwidth=(1.0, 0.0)), "bandwidth must be positive"),
    (lambda: hexbin(np.zeros((0, 2)), 1.0), "hexbin needs at least one point"),
], ids=["kde_bandwidth_0", "hexbin_no_points"])
def test_degenerate_arguments_raise(call, message):
    with pytest.raises(DegenerateDistribution, match=message):
        call()


@pytest.mark.parametrize("scale, bandwidth", [
    (1e-160, None), (1e-300, None), (1.0, (1e308, 1e308)), (1.0, (1e-300, 1e-300)),
], ids=["scott_1e-160", "scott_1e-300", "bandwidth_1e308", "bandwidth_1e-300"])
def test_kde_overflow_is_degenerate(scale, bandwidth):
    pts = np.random.default_rng(40).normal(size=(40, 2)) * scale
    # This point sits on the first grid node, where both factors peak at 1 / (2.5 h).
    pts[0] = pts.min(axis=0) - scale
    with pytest.raises(DegenerateDistribution, match="overflows"):
        kde2d(pts, bandwidth=bandwidth)


def test_kde_zero_density_is_valid():
    # No grid node within reach of a kernel: the density is 0, not an error.
    pts = np.random.default_rng(40).normal(size=(40, 2))
    assert not kde2d(pts, bandwidth=(1e-300, 1e-300)).values.any()


def test_kde_flat_axis_fallback():
    # One axis constant with nonzero IQR impossible; constant axis borrows
    # the other's bandwidth instead of crashing, whichever axis it is.
    pts = np.column_stack([np.linspace(0, 10, 20), np.zeros(20)])
    for flat in (1, 0):
        grid = kde2d(pts if flat else pts[:, ::-1])
        assert grid.bandwidth[flat] == grid.bandwidth[1 - flat] > 0.0
        assert np.all(np.isfinite(grid.values))


@pytest.mark.parametrize("radius", [1e-20, 1e-300, 1.7e308, 0.0, -1.0, math.nan])
def test_hexbin_radius_out_of_range(radius):
    pts = np.random.default_rng(40).normal(scale=10.0, size=(300, 2))
    with pytest.raises(DegenerateDistribution, match="hex radius"):
        hexbin(pts, radius)
    # Up to 2^62 cells across stays valid.
    assert hex_total(hexbin(pts, float(np.abs(pts).max()) / 2.0 ** 61)) == 300


def test_hexbin_single_point():
    layer = hexbin([(0.0, 0.0)], hex_radius=2.0)
    assert layer.cells.tolist() == [[0, 0, 1]]


def test_hexbin_cluster_in_one_cell():
    rng = np.random.default_rng(4)
    pts = rng.normal(scale=0.05, size=(25, 2))
    layer = hexbin(pts, hex_radius=5.0)
    assert len(layer.cells) == 1
    assert layer.cells[0][2] == 25


def test_hexbin_counts_conserved():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-50, 50, size=(10_000, 2))
    layer = hexbin(pts, hex_radius=3.0)
    assert hex_total(layer) == 10_000
    assert len({(q, r) for q, r, _ in layer.cells}) == len(layer.cells)
    assert all(c >= 1 for _, _, c in layer.cells)


@pytest.mark.parametrize("radius", [0.9, 1e-12])
def test_hexbin_cells_match_counter_oracle(radius):
    # Negative coordinates throughout; the tiny radius gives axial coordinates
    # near 1e13, where a packed key q * width + r would overflow int64.
    pts = np.random.default_rng(8).normal(loc=-30.0, scale=10.0, size=(5_000, 2))
    layer = hexbin(pts, radius)
    q, r = xy_to_axial(pts[:, 0], pts[:, 1], radius)
    assert layer.cells.dtype == np.int64 and layer.cells.shape[1] == 3
    assert layer.cells.tolist() == hex_cells_counter(q, r)


def test_hex_corners_match_scalar_loop():
    pts = np.random.default_rng(7).uniform(-60.0, 60.0, size=(20_000, 2))
    layer = hexbin(pts, 1.2)
    assert len(layer.cells) > 3_000
    expected = [[list(v) for v in hex_vertices(q, r, layer.hex_radius)]
                for q, r, _ in layer.cells.tolist()]
    assert hex_corners(layer).tolist() == expected


def test_hexbin_matches_nearest_center_oracle():
    rng = np.random.default_rng(6)
    pts = rng.uniform(-20, 20, size=(2_000, 2))
    radius = 2.5
    layer = hexbin(pts, radius)
    centers = hex_centers(layer)
    keys = [(q, r) for q, r, _ in layer.cells]
    q, r = xy_to_axial(pts[:, 0], pts[:, 1], radius)
    for i in range(pts.shape[0]):
        nearest = int(np.argmin(np.hypot(centers[:, 0] - pts[i, 0],
                                         centers[:, 1] - pts[i, 1])))
        assert keys[nearest] == (int(q[i]), int(r[i]))


def test_axial_roundtrip_at_centers():
    radius = 1.75
    for q0 in range(-3, 4):
        for r0 in range(-3, 4):
            x, y = axial_to_xy(q0, r0, radius)
            q, r = xy_to_axial(x, y, radius)
            assert (int(q), int(r)) == (q0, r0)


def test_default_hex_radius_is_diag_over_40():
    pts = [(0.0, 0.0), (3.0, 4.0)]
    assert default_hex_radius(pts) == pytest.approx(5.0 / 40.0)
