"""Density layers over the 2D error plane: Gaussian KDE and hexbin.

The KDE uses a product Gaussian kernel with a diagonal bandwidth (Scott's
rule by default). Hexagonal binning uses a pointy-top lattice anchored at
the origin with standard cube rounding, so cell assignment is deterministic
including on boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateDistribution

GRID_RESOLUTION = 200
GRID_PADDING_BANDWIDTHS = 3.0


@dataclass(frozen=True, eq=False)
class KdeGrid:
    xs: np.ndarray      # (nx,) np.linspace grid x coordinates: both ends exact
    ys: np.ndarray      # (ny,) np.linspace grid y coordinates: both ends exact
    values: np.ndarray  # (nx, ny), values[ix, iy] is the density at (xs[ix], ys[iy])
    bandwidth: tuple[float, float]


@dataclass(frozen=True, eq=False)
class HexbinLayer:
    hex_radius: float
    cells: np.ndarray  # (k, 3) int64 rows (q, r, count), sorted by (q, r)


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


def kde2d(points, bandwidth: tuple[float, float] | None = None) -> KdeGrid:
    """Gaussian kernel density estimate on a 200x200 grid covering the data
    padded by 3 bandwidths; a density that overflows float64 is an error."""
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

    pad = GRID_PADDING_BANDWIDTHS
    with np.errstate(over="ignore", invalid="ignore"):
        xs = np.linspace(pts[:, 0].min() - pad * hx, pts[:, 0].max() + pad * hx,
                         GRID_RESOLUTION)
        ys = np.linspace(pts[:, 1].min() - pad * hy, pts[:, 1].max() + pad * hy,
                         GRID_RESOLUTION)
        # Separable kernel: values = Gx @ Gy^T / n with per-axis Gaussian factors.
        values = (_gaussian(xs, pts[:, 0], hx) @ _gaussian(ys, pts[:, 1], hy).T) / n
    if not np.isfinite(values).all():
        raise DegenerateDistribution(f"KDE with bandwidth ({hx!r}, {hy!r}) "
                                     "overflows float64")
    return KdeGrid(xs=xs, ys=ys, values=values, bandwidth=(hx, hy))


def _gaussian(grid: np.ndarray, x: np.ndarray, h: float) -> np.ndarray:
    """(G, n) exp(-0.5 * ((grid[i] - x[j]) / h) ** 2) / (h * sqrt(2 pi)), in one buffer."""
    out = np.subtract.outer(grid, x)
    out /= h
    np.square(out, out=out)
    out *= -0.5
    np.exp(out, out=out)
    out /= h * math.sqrt(2.0 * math.pi)
    return out


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


# Unit corner k at 30 + 60k degrees; math.cos, since np.cos may differ in the last bit.
_UNIT_CORNERS = np.array([(math.cos(a), math.sin(a))
                          for a in (math.pi / 3.0 * k + math.pi / 6.0 for k in range(6))])


def hex_corners(layer: HexbinLayer) -> np.ndarray:
    """(k, 6, 2) corners of each occupied cell, in the order of layer.cells."""
    radius = layer.hex_radius
    q, r = layer.cells[:, 0], layer.cells[:, 1]
    centers = np.column_stack([radius * math.sqrt(3.0) * (q + r / 2.0), radius * 1.5 * r])
    return centers[:, None, :] + radius * _UNIT_CORNERS


def default_hex_radius(points) -> float:
    """Bounding-box diagonal / 40, the default cell size."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    span = pts.max(axis=0) - pts.min(axis=0)
    diag = float(np.hypot(span[0], span[1]))
    return diag / 40.0 if diag > 0.0 else 1.0


def hexbin(points, hex_radius: float) -> HexbinLayer:
    """Count points per hexagonal cell; empty cells are omitted."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape[0] < 1:
        raise DegenerateDistribution("hexbin needs at least one point")
    # Axial coordinates must fit int64, and the cell geometry float64.
    if not (hex_radius > 0.0 and float(np.abs(pts).max()) / hex_radius < 2.0 ** 62
            and math.isfinite(math.sqrt(3.0) * hex_radius)):
        raise DegenerateDistribution(f"hex radius {hex_radius!r} is out of range "
                                     "for errors of this size")
    q, r = xy_to_axial(pts[:, 0], pts[:, 1], hex_radius)
    order = np.lexsort((r, q))
    q, r = q[order], r[order]
    # Each run of equal (q, r) in sorted order is one cell.
    starts = np.flatnonzero(np.r_[True, (q[1:] != q[:-1]) | (r[1:] != r[:-1])])
    counts = np.diff(np.r_[starts, q.size])
    cells = np.column_stack([q[starts], r[starts], counts]).astype(np.int64)
    return HexbinLayer(hex_radius=float(hex_radius), cells=cells)
