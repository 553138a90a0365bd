"""Scalar reference implementations the tests check the package against."""

import math
from collections import Counter

import numpy as np


def check_spd(m) -> None:
    m = np.asarray(m, dtype=float)
    if not np.allclose(m, m.T):
        raise ValueError("matrix is not symmetric")
    if np.any(np.linalg.eigvalsh(m) <= 0.0):
        raise ValueError("matrix has a non-positive eigenvalue")


def mahalanobis(p, center, cov_inv) -> float:
    """sqrt((p-c)^T S^-1 (p-c)) for one point; Euclidean when S^-1 = I."""
    cov_inv = np.asarray(cov_inv, dtype=float)
    check_spd(cov_inv)
    d = np.asarray(p, dtype=float) - np.asarray(center, dtype=float)
    return float(np.sqrt(d @ cov_inv @ d))


def colormap_rgb(control_points, t: float) -> tuple[int, int, int]:
    """One colour of a piecewise-linear ramp, walking the segments.

    control_points has rows (t, red, green, blue) with t increasing from 0 to 1.
    """
    t = min(max(float(t), 0.0), 1.0)
    pts = [(row[0], row[1:]) for row in np.asarray(control_points).tolist()]
    for (t0, c0), (t1, c1) in zip(pts, pts[1:]):
        if t <= t1:
            w = (t - t0) / (t1 - t0)
            return tuple(int(round(a + w * (b - a))) for a, b in zip(c0, c1))
    return tuple(int(c) for c in pts[-1][1])


def axial_to_xy(q: int, r: int, radius: float) -> tuple[float, float]:
    """Cartesian center of a pointy-top hexagon in axial coordinates."""
    x = radius * math.sqrt(3.0) * (q + r / 2.0)
    y = radius * 1.5 * r
    return (x, y)


def hex_vertices(q: int, r: int, radius: float) -> list[tuple[float, float]]:
    """The six corners of a pointy-top hexagon, one vertex at a time."""
    cx, cy = axial_to_xy(q, r, radius)
    corners = []
    for k in range(6):
        angle = math.pi / 3.0 * k + math.pi / 6.0
        corners.append((cx + radius * math.cos(angle), cy + radius * math.sin(angle)))
    return corners


def hex_cells_counter(q, r) -> list[list[int]]:
    """[q, r, count] of each occupied cell, counted by a Counter, sorted by (q, r)."""
    counts = Counter(zip(np.asarray(q).tolist(), np.asarray(r).tolist()))
    return [[qi, ri, c] for (qi, ri), c in sorted(counts.items())]


def hex_total(layer) -> int:
    return sum(c for _, _, c in layer.cells.tolist())


def hex_centers(layer) -> np.ndarray:
    """Cartesian centers of the occupied cells, row-aligned with cells."""
    return np.array([axial_to_xy(q, r, layer.hex_radius) for q, r, _ in layer.cells.tolist()])


def kde_values(pts, xs, ys, bandwidth) -> np.ndarray:
    """KDE grid values from one whole-array Gaussian expression per axis."""
    hx, hy = bandwidth
    gx = np.exp(-0.5 * ((xs[:, None] - pts[None, :, 0]) / hx) ** 2) / (hx * math.sqrt(2.0 * math.pi))
    gy = np.exp(-0.5 * ((ys[:, None] - pts[None, :, 1]) / hy) ** 2) / (hy * math.sqrt(2.0 * math.pi))
    return (gx @ gy.T) / pts.shape[0]


def riemann_mass(grid) -> float:
    """Total probability mass of a KdeGrid by rectangle sum."""
    dx = (grid.xs[-1] - grid.xs[0]) / (grid.xs.size - 1)
    dy = (grid.ys[-1] - grid.ys[0]) / (grid.ys.size - 1)
    return float(grid.values.sum() * dx * dy)


def same_prediction_set(a, b) -> bool:
    """Field-by-field equality of two PredictionSets (== is identity)."""
    return (a.instance_ids == b.instance_ids
            and a.model_names == b.model_names
            and np.array_equal(a.y_true, b.y_true)
            and np.array_equal(a.predictions, b.predictions)
            and np.array_equal(a.errors, b.errors))
