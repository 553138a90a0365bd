import math

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

from errscope import SCENARIOS, ScenarioSpec, generate, hex_corners, hexbin, kde2d
from errscope.density import default_hex_radius, xy_to_axial
from errscope.exceptions import DegenerateDistribution


def padded_grid(pts, hx, hy, nx=200, ny=200, pad=4.0):
    return (
        float(pts[:, 0].min() - pad * hx), float(pts[:, 0].max() + pad * hx),
        float(pts[:, 1].min() - pad * hy), float(pts[:, 1].max() + pad * hy),
        nx, ny,
    )


def test_kde_peak_closed_form():
    # Every point at the origin: density at the origin is the kernel peak.
    pts = np.zeros((10, 2))
    hx, hy = 0.7, 1.3
    grid = kde2d(pts, grid_spec=(-1.0, 1.0, -1.0, 1.0, 3, 3), bandwidth=(hx, hy))
    center_value = grid.values[1, 1]  # grid midpoint is (0, 0)
    assert center_value == pytest.approx(1.0 / (2.0 * math.pi * hx * hy))


def test_kde_mass_normalized():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(200, 2)) * [2.0, 0.5]
    grid = kde2d(pts)
    hx, hy = grid.bandwidth
    grid = kde2d(pts, grid_spec=padded_grid(pts, hx, hy), bandwidth=(hx, hy))
    assert riemann_mass(grid) == pytest.approx(1.0, abs=0.02)


def test_kde_two_equal_clusters_symmetric_peaks():
    cluster = np.random.default_rng(1).normal(scale=0.1, size=(50, 2))
    pts = np.vstack([cluster + [-5.0, 0.0], cluster + [5.0, 0.0]])
    grid = kde2d(pts, grid_spec=(-8.0, 8.0, -2.0, 2.0, 161, 41), bandwidth=(0.3, 0.3))
    left = grid.values[: 80, :].max()
    right = grid.values[81:, :].max()
    assert abs(left - right) < 1e-9


def test_kde_translation_equivariance():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(50, 2))
    spec = (-4.0, 4.0, -4.0, 4.0, 33, 33)
    g0 = kde2d(pts, grid_spec=spec, bandwidth=(0.5, 0.5))
    shift = np.array([12.5, -3.25])
    spec_shifted = (spec[0] + shift[0], spec[1] + shift[0],
                    spec[2] + shift[1], spec[3] + shift[1], 33, 33)
    g1 = kde2d(pts + shift, grid_spec=spec_shifted, bandwidth=(0.5, 0.5))
    assert np.max(np.abs(g0.values - g1.values)) < 1e-12


def test_kde_permutation_invariance():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(40, 2))
    spec = (-3.0, 3.0, -3.0, 3.0, 17, 17)
    g0 = kde2d(pts, grid_spec=spec, bandwidth=(0.4, 0.4))
    g1 = kde2d(pts[rng.permutation(40)], grid_spec=spec, bandwidth=(0.4, 0.4))
    assert np.allclose(g0.values, g1.values)


@pytest.mark.parametrize("kind", sorted(SCENARIOS))
def test_kde_matches_whole_array_oracle(kind):
    e = generate(ScenarioSpec(kind=kind, n=1_000, seed=9)).errors[:, :2]
    grid = kde2d(e)
    assert np.array_equal(grid.values, kde_values(e, grid.xs, grid.ys, grid.bandwidth))


def test_kde_explicit_grid_matches_whole_array_oracle():
    pts = np.random.default_rng(10).normal(size=(3_000, 2)) * [1e-3, 1e4]
    spec = (-0.004, 0.0035, -3.5e4, 4.1e4, 57, 31)
    grid = kde2d(pts, grid_spec=spec, bandwidth=(2e-4, 1.5e3))
    assert np.array_equal(grid.xs, np.linspace(-0.004, 0.0035, 57))
    assert np.array_equal(grid.ys, np.linspace(-3.5e4, 4.1e4, 31))
    assert grid.xs[-1] == 0.0035 and grid.ys[0] == -3.5e4
    assert np.array_equal(grid.values, kde_values(pts, grid.xs, grid.ys, (2e-4, 1.5e3)))


def test_kde_degenerate_inputs():
    with pytest.raises(DegenerateDistribution):
        kde2d(np.zeros((5, 2)))
    with pytest.raises(DegenerateDistribution):
        kde2d(np.array([[1.0, 2.0]]))


def test_kde_flat_axis_fallback():
    # One axis constant with nonzero IQR impossible; constant axis borrows
    # the other's bandwidth instead of crashing.
    pts = np.column_stack([np.linspace(0, 10, 20), np.zeros(20)])
    grid = kde2d(pts)
    assert grid.bandwidth[1] > 0.0
    assert np.all(np.isfinite(grid.values))


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
