"""Density layers over the 2D error plane: Gaussian KDE and hexbin.

The KDE uses a product Gaussian kernel with a diagonal bandwidth (Scott's
rule by default). Hexagonal binning uses a pointy-top lattice anchored at
the origin with standard cube rounding, so cell assignment is deterministic
including on boundaries.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateDistribution

DEFAULT_GRID_RESOLUTION = 200
GRID_PADDING_BANDWIDTHS = 3.0


@dataclass(frozen=True)
class KdeGrid:
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int
    values: np.ndarray  # shape (nx, ny), values[ix, iy]
    bandwidth: tuple[float, float]

    def x_coords(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def y_coords(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.ny)


@dataclass(frozen=True)
class HexbinLayer:
    hex_radius: float
    cells: tuple[tuple[int, int, int], ...]  # (q, r, count), sorted by (q, r)


def scott_bandwidth(points: np.ndarray) -> tuple[float, float]:
    """Per-axis Scott bandwidth sigma * n^(-1/6) for a 2D sample.

    Falls back to IQR/1.349 on an axis with zero spread; both axes
    degenerate is an error.
    """
    n = points.shape[0]
    factor = n ** (-1.0 / 6.0)
    out = []
    for k in (0, 1):
        sigma = float(np.std(points[:, k], ddof=1))
        if sigma == 0.0:
            q1, q3 = np.percentile(points[:, k], [25.0, 75.0])
            sigma = float(q3 - q1) / 1.349
        out.append(sigma * factor)
    if out[0] <= 0.0 and out[1] <= 0.0:
        raise DegenerateDistribution("all points identical: bandwidth undefined")
    # One flat axis borrows the other's bandwidth so the kernel stays 2D.
    if out[0] <= 0.0:
        out[0] = out[1]
    if out[1] <= 0.0:
        out[1] = out[0]
    return (out[0], out[1])


def kde2d(points, grid_spec: tuple[float, float, float, float, int, int] | None = None,
          bandwidth: tuple[float, float] | None = None) -> KdeGrid:
    """Gaussian kernel density estimate on a regular grid.

    grid_spec is (x_min, x_max, y_min, y_max, nx, ny); by default the grid
    covers the data padded by 3 bandwidths at 200x200.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = pts.shape[0]
    if n < 2:
        raise DegenerateDistribution("kde2d needs at least two points")
    if bandwidth is None:
        hx, hy = scott_bandwidth(pts)
    else:
        hx, hy = float(bandwidth[0]), float(bandwidth[1])
    if hx <= 0.0 or hy <= 0.0:
        raise DegenerateDistribution("bandwidth must be positive on both axes")

    if grid_spec is None:
        pad = GRID_PADDING_BANDWIDTHS
        grid_spec = (
            float(pts[:, 0].min() - pad * hx), float(pts[:, 0].max() + pad * hx),
            float(pts[:, 1].min() - pad * hy), float(pts[:, 1].max() + pad * hy),
            DEFAULT_GRID_RESOLUTION, DEFAULT_GRID_RESOLUTION,
        )
    x_min, x_max, y_min, y_max, nx, ny = grid_spec

    xs = np.linspace(x_min, x_max, nx)
    ys = np.linspace(y_min, y_max, ny)
    # Separable kernel: values = Gx @ Gy^T / n with per-axis Gaussian factors.
    gx = np.exp(-0.5 * ((xs[:, None] - pts[None, :, 0]) / hx) ** 2) / (hx * math.sqrt(2.0 * math.pi))
    gy = np.exp(-0.5 * ((ys[:, None] - pts[None, :, 1]) / hy) ** 2) / (hy * math.sqrt(2.0 * math.pi))
    values = (gx @ gy.T) / n
    return KdeGrid(x_min=float(x_min), x_max=float(x_max), y_min=float(y_min),
                   y_max=float(y_max), nx=int(nx), ny=int(ny), values=values,
                   bandwidth=(hx, hy))


def xy_to_axial(x, y, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Nearest pointy-top hexagon for each point, via cube rounding."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    qf = (math.sqrt(3.0) / 3.0 * x - y / 3.0) / radius
    rf = (2.0 / 3.0 * y) / radius
    sf = -qf - rf
    q = np.round(qf)
    r = np.round(rf)
    s = np.round(sf)
    dq = np.abs(q - qf)
    dr = np.abs(r - rf)
    ds = np.abs(s - sf)
    fix_q = (dq > dr) & (dq > ds)
    fix_r = ~fix_q & (dr > ds)
    q = np.where(fix_q, -r - s, q)
    r = np.where(fix_r, -q - s, r)
    return q.astype(int), r.astype(int)


def axial_to_xy(q: int, r: int, radius: float) -> tuple[float, float]:
    """Cartesian center of a pointy-top hexagon in axial coordinates."""
    x = radius * math.sqrt(3.0) * (q + r / 2.0)
    y = radius * 1.5 * r
    return (x, y)


def hex_vertices(q: int, r: int, radius: float) -> list[tuple[float, float]]:
    """The six corners of a pointy-top hexagon, starting at the top."""
    cx, cy = axial_to_xy(q, r, radius)
    corners = []
    for k in range(6):
        angle = math.pi / 3.0 * k + math.pi / 6.0
        corners.append((cx + radius * math.cos(angle), cy + radius * math.sin(angle)))
    return corners


def default_hex_radius(points) -> float:
    """Bounding-box diagonal / 40, the default cell size."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    span = pts.max(axis=0) - pts.min(axis=0)
    diag = float(np.hypot(span[0], span[1]))
    return diag / 40.0 if diag > 0.0 else 1.0


def hexbin(points, hex_radius: float) -> HexbinLayer:
    """Count points per hexagonal cell; empty cells are omitted."""
    if hex_radius <= 0.0:
        raise ValueError("hex_radius must be positive")
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape[0] < 1:
        raise DegenerateDistribution("hexbin needs at least one point")
    q, r = xy_to_axial(pts[:, 0], pts[:, 1], hex_radius)
    counts = Counter(zip(q.tolist(), r.tolist()))
    cells = tuple((qi, ri, c) for (qi, ri), c in sorted(counts.items()))
    return HexbinLayer(hex_radius=float(hex_radius), cells=cells)
