"""Density layers over the 2D error plane: Gaussian KDE and hexbin.

The KDE uses a product Gaussian kernel with a diagonal bandwidth (Scott's
rule by default), binned per axis where the bandwidth allows. Hexagonal
binning uses a pointy-top lattice anchored at the origin with standard cube
rounding, so cell assignment is deterministic including on boundaries.
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
    padded by 3 bandwidths; a density that overflows float64 is an error.

    Each axis is linearly binned onto a finer grid when its bandwidth spans
    enough grid steps, so that each kernel errs by at most KDE_BIN_ERROR of
    its peak, and is evaluated exactly at the grid nodes otherwise.
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

    pad = GRID_PADDING_BANDWIDTHS
    values = None
    with np.errstate(over="ignore", invalid="ignore"):
        xs = np.linspace(pts[:, 0].min() - pad * hx, pts[:, 0].max() + pad * hx,
                         GRID_RESOLUTION)
        ys = np.linspace(pts[:, 1].min() - pad * hy, pts[:, 1].max() + pad * hy,
                         GRID_RESOLUTION)
        if np.isfinite(xs).all() and np.isfinite(ys).all():
            values = _kernel_sum(pts, (xs, ys), (hx, hy)) / n
    if values is None or not np.isfinite(values).all():
        raise DegenerateDistribution(f"KDE with bandwidth ({hx!r}, {hy!r}) "
                                     "overflows float64")
    return KdeGrid(xs=xs, ys=ys, values=values, bandwidth=(hx, hy))


# Binned KDE after Wand (1994): an axis is linearly binned onto K sub-steps per
# grid step, with K the least that keeps the binning error (delta / h)^2 / 8 of
# the kernel peak within KDE_BIN_ERROR (Hall & Wand 1996). Past KDE_MAX_SUBSTEPS
# the axis is evaluated exactly at the grid nodes. Either way a kernel is summed
# within KDE_EXACT_REACH bandwidths; the Gaussian beyond 9h is below 2.6e-18 of its peak.
KDE_BIN_ERROR = 2.5e-4
KDE_MAX_SUBSTEPS = 16
KDE_EXACT_REACH = 9.0
KDE_CHUNK_ENTRIES = 1 << 19  # (point, x node, y node) weights accumulated at once


def _kernel_sum(pts: np.ndarray, grids, bandwidths) -> np.ndarray:
    """(nx, ny) sum over the points of the product kernel at every grid node."""
    ax, ay = (_Axis(grid, pts[:, k], h) for k, (grid, h) in enumerate(zip(grids, bandwidths)))
    # c[i, j] sums, over the points, the weight of x node i times that of y node j.
    c = np.zeros((ax.nodes, ay.nodes))
    flat = c.reshape(-1)
    step = max(1, KDE_CHUNK_ENTRIES // (ax.width * ay.width))
    for start in range(0, pts.shape[0], step):
        chunk = pts[start:start + step]
        (ix, wx), (iy, wy) = ax.entries(chunk[:, 0]), ay.entries(chunk[:, 1])
        np.add.at(flat, (ix[:, :, None] * ay.nodes + iy[:, None, :]).ravel(),
                  (wx[:, :, None] * wy[:, None, :]).ravel())
    return ay.smooth(ax.smooth(c).T).T


class _Axis:
    """One KDE grid axis, binned onto a fine grid or evaluated exactly at its nodes."""

    def __init__(self, grid: np.ndarray, x: np.ndarray, h: float):
        self.grid, self.h = grid, h
        step = (grid[-1] - grid[0]) / (grid.size - 1)
        substeps = step / h / math.sqrt(8.0 * KDE_BIN_ERROR)
        if substeps <= KDE_MAX_SUBSTEPS:
            self.fine = np.linspace(grid[0], grid[-1],
                                    (grid.size - 1) * max(1, math.ceil(substeps)) + 1)
            self.nodes, self.width = self.fine.size, 2
        else:
            self.fine = None
            lo, hi = self._reach(grid, x)
            # The most grid nodes within reach of a point; rounding can make nodes coincide.
            self.nodes, self.width = grid.size, max(1, int((hi - lo).max()))

    def _reach(self, nodes: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per x, the first node within KDE_EXACT_REACH bandwidths and the first beyond them."""
        reach = KDE_EXACT_REACH * self.h
        return (np.searchsorted(nodes, x - reach),
                np.searchsorted(nodes, x + reach, side="right"))

    def entries(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(len(x), width) node indices and weights of the points x."""
        if self.fine is not None:
            # Linear binning: each point splits its unit mass between its two fine nodes.
            fine = self.fine
            j = np.minimum(np.searchsorted(fine, x, side="right") - 1, fine.size - 2)
            gap = fine[j + 1] - fine[j]
            frac = np.divide(x - fine[j], gap, out=np.zeros_like(x), where=gap > 0.0)
            return np.column_stack([j, j + 1]), np.column_stack([1.0 - frac, frac])
        lo, hi = self._reach(self.grid, x)
        idx = lo[:, None] + np.arange(self.width)
        outside = idx >= hi[:, None]
        np.minimum(idx, self.grid.size - 1, out=idx)
        weights = _gaussian(self.grid[idx] - x[:, None], self.h)
        weights[outside] = 0.0
        return idx, weights

    def smooth(self, c: np.ndarray) -> np.ndarray:
        """c with its rows, one per node of this axis, carried onto the grid nodes.
        A binned axis sums each grid node's kernel over the fine nodes in reach by
        einsum, not by a BLAS product, whose last bits depend on its thread count."""
        if self.fine is None:
            return c
        lo, hi = self._reach(self.fine, self.grid)
        return np.array([np.einsum("f,fj->j", _gaussian(g - self.fine[a:b], self.h), c[a:b])
                         for g, a, b in zip(self.grid.tolist(), lo.tolist(), hi.tolist())])


def _gaussian(d: np.ndarray, h: float) -> np.ndarray:
    """exp(-0.5 * (d / h) ** 2) / (h * sqrt(2 pi)), in place on the float array d."""
    d /= h
    np.square(d, out=d)
    d *= -0.5
    np.exp(d, out=d)
    d /= h * math.sqrt(2.0 * math.pi)
    return d


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
