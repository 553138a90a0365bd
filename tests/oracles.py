"""Scalar reference implementations the tests check the package against."""

import numpy as np

from errscope.density import axial_to_xy


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


def colormap_rgb(colormap, t: float) -> tuple[int, int, int]:
    """One colour of a piecewise-linear ramp, walking the segments."""
    t = min(max(float(t), 0.0), 1.0)
    pts = colormap.control_points
    for (t0, c0), (t1, c1) in zip(pts, pts[1:]):
        if t <= t1:
            w = (t - t0) / (t1 - t0)
            return tuple(int(round(a + w * (b - a))) for a, b in zip(c0, c1))
    return pts[-1][1]


def hex_total(layer) -> int:
    return sum(c for _, _, c in layer.cells)


def hex_centers(layer) -> np.ndarray:
    """Cartesian centers of the occupied cells, row-aligned with cells."""
    return np.array([axial_to_xy(q, r, layer.hex_radius) for q, r, _ in layer.cells])


def riemann_mass(grid) -> float:
    """Total probability mass of a KdeGrid by rectangle sum."""
    dx = (grid.x_max - grid.x_min) / (grid.nx - 1)
    dy = (grid.y_max - grid.y_min) / (grid.ny - 1)
    return float(grid.values.sum() * dx * dy)
