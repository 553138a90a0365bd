"""Deterministic SVG rendering of the comparison figures.

Every figure is a standalone SVG 1.1 document with no external resources,
timestamps or random ids. Numbers are formatted to at most 6 significant
digits, so identical inputs always serialize to identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .density import HexbinLayer, KdeGrid, hex_corners
from .errorspace import ErrorSpaceAnalysis, percentile_ranks
from .exceptions import DegenerateDistribution, ErrscopeError, MissingLayerInput
from .ingest import PredictionSet
from .metrics import BoxplotStats

PANEL_SIZE = 800.0
MARGIN = 60.0
GRID_COLUMNS = 4
CROWN_SEGMENTS = 256

ZONE_A_FILL = (255, 165, 0)   # orange: model A better, |y| > |x|
ZONE_B_FILL = (34, 139, 34)   # green: model B better, |y| < |x|
ZONE_OPACITY = 0.15
POINT_RADIUS = 3.0
SCATTER_COLOR = (68, 68, 68)

ERROR_SPACE_LAYERS = ("zones", "scatter", "proximity", "crown", "kde", "hexbin")


def fmt(v: float) -> str:
    """Fixed float formatting: max 6 significant digits, no negative zero."""
    if not math.isfinite(v):
        raise DegenerateDistribution(f"figure coordinate {v!r} is not finite")
    s = format(float(v), ".6g")
    return "0" if s == "-0" else s


def rgb(color) -> str:
    return "#{:02x}{:02x}{:02x}".format(*color)


def check_layers(layers) -> tuple[str, ...]:
    """The requested error-space layers; an unknown name is an error."""
    layers = tuple(layers)
    unknown = [name for name in layers if name not in ERROR_SPACE_LAYERS]
    if unknown:
        raise ErrscopeError(f"unknown layer(s): {', '.join(unknown)}; "
                            f"known: {', '.join(ERROR_SPACE_LAYERS)}")
    return layers


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )


# Warm near the center / accurate, cool far away, per the method's reading.
# Rows (t, red, green, blue) are the control points of a piecewise-linear
# RGB ramp over t in [0, 1].
WARM_COOL = np.array([
    (0.0, 215, 48, 39),
    (0.25, 253, 174, 97),
    (0.5, 254, 224, 144),
    (0.75, 145, 191, 219),
    (1.0, 69, 117, 180),
])


def colormap(t) -> np.ndarray:
    """WARM_COOL RGB rows (ints) for an array of t, each clamped to [0, 1]."""
    ts, cs = WARM_COOL[:, 0], WARM_COOL[:, 1:]
    t = np.clip(np.asarray(t, dtype=float).ravel(), 0.0, 1.0)
    # Segment k runs from control point k-1 to k, the first whose end >= t.
    k = np.clip(np.searchsorted(ts, t), 1, len(ts) - 1)
    w = (t - ts[k - 1]) / (ts[k] - ts[k - 1])
    return np.rint(cs[k - 1] + w[:, None] * (cs[k] - cs[k - 1])).astype(int)


def _fills(t) -> list[str]:
    return [rgb(c) for c in colormap(t).tolist()]


@dataclass(frozen=True)
class Transform:
    """Affine data-to-canvas map: X = sx*x + tx, Y = sy*y + ty (y flipped)."""

    sx: float
    tx: float
    sy: float
    ty: float

    def apply(self, x: float, y: float) -> tuple[float, float]:
        # An overflow gives an infinite coordinate, which fmt rejects.
        with np.errstate(over="ignore", invalid="ignore"):
            return (self.sx * x + self.tx, self.sy * y + self.ty)

    @staticmethod
    def fit(x0: float, x1: float, y0: float, y1: float,
            left: float, right: float, top: float, bottom: float) -> "Transform":
        sx = (right - left) / (x1 - x0)
        sy = (top - bottom) / (y1 - y0)
        return Transform(sx=sx, tx=left - sx * x0, sy=sy, ty=bottom - sy * y0)


def _style(opacity: float | None = None, stroke: str | None = None,
           stroke_width: float | None = None, cls: str | None = None) -> str:
    """Optional shape attributes in their fixed order, each after a space."""
    out = ""
    if opacity is not None:
        out += f' fill-opacity="{fmt(opacity)}"'
    if stroke is not None:
        out += f' stroke="{stroke}"'
    if stroke_width is not None:
        out += f' stroke-width="{fmt(stroke_width)}"'
    if cls is not None:
        out += f' class="{cls}"'
    return out


class Figure:
    """Ordered list of SVG fragments plus the data-to-canvas transform."""

    def __init__(self, width: float, height: float, transform: Transform | None = None):
        self.width = width
        self.height = height
        self.transform = transform
        self.elements: list[str] = []

    def add(self, fragment: str) -> None:
        self.elements.append(fragment)

    def circles(self, cx, cy, r: float, fills, **style) -> None:
        """One circle per entry of the cx, cy columns; fills is one colour
        or one per circle. style is as for _style."""
        if isinstance(fills, str):
            fills = repeat(fills)
        tail = _style(**style)
        self.elements.extend(
            f'<circle cx="{fmt(x)}" cy="{fmt(y)}" r="{fmt(r)}" fill="{fill}"{tail}/>'
            for x, y, fill in zip(np.asarray(cx, dtype=float).tolist(),
                                  np.asarray(cy, dtype=float).tolist(), fills)
        )

    def line(self, x1: float, y1: float, x2: float, y2: float, stroke: str,
             width: float = 1.0, dash: str | None = None) -> None:
        dash_attr = "" if dash is None else f' stroke-dasharray="{dash}"'
        self.add(f'<line x1="{fmt(x1)}" y1="{fmt(y1)}" x2="{fmt(x2)}" y2="{fmt(y2)}" '
                 f'stroke="{stroke}" stroke-width="{fmt(width)}"{dash_attr}/>')

    def polygon(self, points: list[tuple[float, float]], fill: str, **style) -> None:
        pts = " ".join(f"{fmt(x)},{fmt(y)}" for x, y in points)
        self.add(f'<polygon points="{pts}" fill="{fill}"{_style(**style)}/>')

    def rect(self, x: float, y: float, w: float, h: float, fill: str, **style) -> None:
        self.add(f'<rect x="{fmt(x)}" y="{fmt(y)}" width="{fmt(w)}" height="{fmt(h)}" '
                 f'fill="{fill}"{_style(**style)}/>')

    def text(self, x: float, y: float, content: str, size: float = 14.0,
             anchor: str = "middle", fill: str = "#000000") -> None:
        self.add(
            f'<text x="{fmt(x)}" y="{fmt(y)}" text-anchor="{anchor}" '
            f'font-size="{fmt(size)}" font-family="sans-serif" fill="{fill}">'
            f"{_escape(content)}</text>"
        )

    def to_svg(self) -> str:
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{fmt(self.width)}" height="{fmt(self.height)}" '
            f'viewBox="0 0 {fmt(self.width)} {fmt(self.height)}">\n'
        )
        return head + "\n".join(self.elements) + "\n</svg>\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_svg())


def _white_background(fig: Figure) -> None:
    fig.rect(0.0, 0.0, fig.width, fig.height, "#ffffff")


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions covering [lo, hi], about six of them."""
    span = hi - lo
    raw = span / 6
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min((m for m in (1.0, 2.0, 5.0, 10.0) if m * mag >= raw), default=10.0) * mag
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


# ---------------------------------------------------------------------------
# boxplots

def render_boxplots(stats: list[tuple[str, BoxplotStats]]) -> Figure:
    """One box-and-whisker glyph per model on a shared error axis."""
    if not stats:
        raise ValueError("no boxplot stats to render")
    m = len(stats)
    width, height = max(320.0, 90.0 * m + 2 * MARGIN), 600.0

    values = []
    for _, s in stats:
        values += [s.min_whisker, s.max_whisker, *s.outliers]
    lo, hi = min(values + [0.0]), max(values + [0.0])
    pad = 0.05 * (hi - lo) if hi > lo else 1.0
    lo, hi = lo - pad, hi + pad

    tr = Transform.fit(0.0, float(m), lo, hi, MARGIN, width - MARGIN,
                       MARGIN, height - MARGIN)
    fig = Figure(width, height, transform=tr)
    _white_background(fig)

    # Shared error axis with ticks, plus the zero reference line.
    for tick in _nice_ticks(lo, hi):
        _, ty = tr.apply(0.0, tick)
        fig.line(MARGIN - 4, ty, MARGIN, ty, "#000000")
        fig.text(MARGIN - 8, ty + 4, fmt(tick), size=12, anchor="end")
    fig.line(MARGIN, MARGIN, MARGIN, height - MARGIN, "#000000")
    _, zero_y = tr.apply(0.0, 0.0)
    if lo <= 0.0 <= hi:
        fig.line(MARGIN, zero_y, width - MARGIN, zero_y, "#999999", dash="4 4")

    box_halfwidth = 0.3
    for i, (name, s) in enumerate(stats):
        cx = i + 0.5
        x0, _ = tr.apply(cx - box_halfwidth, 0.0)
        x1, _ = tr.apply(cx + box_halfwidth, 0.0)
        xc, _ = tr.apply(cx, 0.0)
        _, y_q1 = tr.apply(0.0, s.q1)
        _, y_q3 = tr.apply(0.0, s.q3)
        _, y_med = tr.apply(0.0, s.median)
        _, y_lo = tr.apply(0.0, s.min_whisker)
        _, y_hi = tr.apply(0.0, s.max_whisker)

        fig.line(xc, y_lo, xc, y_q1, "#000000")
        fig.line(xc, y_q3, xc, y_hi, "#000000")
        fig.line((x0 + xc) / 2, y_lo, (x1 + xc) / 2, y_lo, "#000000")
        fig.line((x0 + xc) / 2, y_hi, (x1 + xc) / 2, y_hi, "#000000")
        fig.polygon([(x0, y_q1), (x1, y_q1), (x1, y_q3), (x0, y_q3)],
                    fill="#c6dbef", stroke="#000000", stroke_width=1.0)
        fig.line(x0, y_med, x1, y_med, "#000000", width=2.0)
        _, oy = tr.apply(0.0, np.array(s.outliers, dtype=float))
        fig.circles(np.full(oy.size, xc), oy, 2.5, "none", stroke=rgb(SCATTER_COLOR),
                    stroke_width=1.0, cls="outlier")
        fig.text(xc, height - MARGIN + 20, name, size=13)

    return fig


# ---------------------------------------------------------------------------
# predicted vs actual

def _pred_vs_actual_panel(fig: Figure, y_true: np.ndarray, y_pred: np.ndarray,
                          pct: np.ndarray, left: float, top: float, label: str) -> None:
    # Both axes share one range, so the identity line is the diagonal.
    lo = float(min(y_true.min(), y_pred.min()))
    hi = float(max(y_true.max(), y_pred.max()))
    if hi == lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    tr = Transform.fit(lo, hi, lo, hi, left, left + PANEL_SIZE - 2 * MARGIN,
                       top, top + PANEL_SIZE - 2 * MARGIN)
    fig.line(*tr.apply(lo, lo), *tr.apply(hi, hi), "#888888", width=1.5)
    fig.circles(*tr.apply(y_true, y_pred), POINT_RADIUS, _fills(pct), cls="pt")
    fig.text((tr.apply(lo, 0)[0] + tr.apply(hi, 0)[0]) / 2,
             tr.apply(0, hi)[1] - 8, label, size=16)


def render_model_grid(ps: PredictionSet, order: list[str],
                      global_scale: bool = False) -> Figure:
    """Per-model predicted-vs-actual panels laid out in a 4-wide grid.

    Points are colored by accuracy percentile; warm colors mark the most
    accurate predictions (smallest |error|). With global_scale, the colormap
    is normalized over all models' absolute errors at once instead of per
    panel.
    """
    columns = [ps.index(model) for model in order]
    abs_err = [np.abs(ps.errors[:, j]) for j in columns]
    if global_scale:
        pcts = np.split(percentile_ranks(np.concatenate(abs_err)), len(order))
    else:
        pcts = [percentile_ranks(a) for a in abs_err]

    m = len(order)
    cols = min(m, GRID_COLUMNS)
    rows = math.ceil(m / GRID_COLUMNS)
    fig = Figure(cols * PANEL_SIZE, rows * PANEL_SIZE)
    _white_background(fig)
    for k, (model, j, pct) in enumerate(zip(order, columns, pcts)):
        col, row = k % GRID_COLUMNS, k // GRID_COLUMNS
        _pred_vs_actual_panel(fig, ps.y_true, ps.predictions[:, j], pct,
                              col * PANEL_SIZE + MARGIN, row * PANEL_SIZE + MARGIN, model)
    return fig


# ---------------------------------------------------------------------------
# 2D error space

def _crown_extent(analysis: ErrorSpaceAnalysis) -> tuple[float, float]:
    t = analysis.crown_threshold
    if analysis.metric == "euclidean":
        return (t, t)
    cov = analysis.covariance
    return (t * math.sqrt(max(cov[0, 0], 0.0)), t * math.sqrt(max(cov[1, 1], 0.0)))


def _crown_curve(analysis: ErrorSpaceAnalysis) -> list[tuple[float, float]]:
    """Data-space polyline of the ellipse at distance = crown_threshold."""
    t = analysis.crown_threshold
    cx, cy = analysis.median2d
    chol = np.linalg.cholesky(analysis.covariance)
    pts = []
    for k in range(CROWN_SEGMENTS):
        a = 2.0 * math.pi * k / CROWN_SEGMENTS
        u = np.array([math.cos(a), math.sin(a)])
        v = t * (chol @ u)
        pts.append((cx + float(v[0]), cy + float(v[1])))
    return pts


def render_error_space(analysis: ErrorSpaceAnalysis,
                       layers=("zones", "proximity", "crown"),
                       kde: KdeGrid | None = None,
                       hexgrid: HexbinLayer | None = None) -> Figure:
    """The 2D error space with selectable layers.

    Stacking, background to foreground: density (kde/hexbin), comparison
    zones, axes and diagonals, median crown (white), points.
    """
    layers = set(check_layers(layers))
    if "kde" in layers and kde is None:
        raise MissingLayerInput("kde layer requested without a KdeGrid")
    if "hexbin" in layers and hexgrid is None:
        raise MissingLayerInput("hexbin layer requested without a HexbinLayer")

    e = analysis.e
    ex, ey = _crown_extent(analysis)
    cx, cy = analysis.median2d
    limit = max(float(np.abs(e).max()), abs(cx) + ex, abs(cy) + ey, 1e-12) * 1.05

    tr = Transform.fit(-limit, limit, -limit, limit, MARGIN, PANEL_SIZE - MARGIN,
                       MARGIN, PANEL_SIZE - MARGIN)
    fig = Figure(PANEL_SIZE, PANEL_SIZE, transform=tr)
    _white_background(fig)

    if "kde" in layers:
        vmax = float(kde.values.max())
        if vmax > 0.0:
            # Python floats: a cell size that overflows the canvas gives inf, which fmt rejects.
            dx = float(kde.xs[-1] - kde.xs[0]) / (kde.xs.size - 1)
            dy = float(kde.ys[-1] - kde.ys[0]) / (kde.ys.size - 1)
            ix, iy = np.nonzero(kde.values > 0.01 * vmax)
            x0, y0 = tr.apply(kde.xs[ix] - dx / 2, kde.ys[iy] + dy / 2)
            fills = _fills(1.0 - kde.values[ix, iy] / vmax)
            for x, y, fill in zip(x0.tolist(), y0.tolist(), fills):
                fig.rect(x, y, abs(tr.sx) * dx, abs(tr.sy) * dy, fill, opacity=0.6)

    if "hexbin" in layers:
        counts = hexgrid.cells[:, 2]
        fills = _fills(1.0 - counts / counts.max())
        vx, vy = tr.apply(*np.moveaxis(hex_corners(hexgrid), -1, 0))  # (k, 6) each
        for xs, ys, fill in zip(vx.tolist(), vy.tolist(), fills):
            fig.polygon(list(zip(xs, ys)), fill=fill, opacity=0.7, cls="hex")

    if "zones" in layers:
        origin = tr.apply(0.0, 0.0)
        tl = tr.apply(-limit, limit)
        tright = tr.apply(limit, limit)
        bl = tr.apply(-limit, -limit)
        br = tr.apply(limit, -limit)
        # |e2| > |e1|: model A's error is smaller -> orange hourglass.
        fig.polygon([origin, tl, tright], rgb(ZONE_A_FILL), opacity=ZONE_OPACITY,
                    cls="zone-a")
        fig.polygon([origin, bl, br], rgb(ZONE_A_FILL), opacity=ZONE_OPACITY,
                    cls="zone-a")
        fig.polygon([origin, tl, bl], rgb(ZONE_B_FILL), opacity=ZONE_OPACITY,
                    cls="zone-b")
        fig.polygon([origin, tright, br], rgb(ZONE_B_FILL), opacity=ZONE_OPACITY,
                    cls="zone-b")
        fig.line(*bl, *tright, "#666666")
        fig.line(*tl, *br, "#666666")

    # Axes through the origin.
    x0, ymid = tr.apply(-limit, 0.0)
    x1, _ = tr.apply(limit, 0.0)
    xmid, y0 = tr.apply(0.0, -limit)
    _, y1 = tr.apply(0.0, limit)
    fig.line(x0, ymid, x1, ymid, "#000000")
    fig.line(xmid, y0, xmid, y1, "#000000")
    for tick in _nice_ticks(-limit, limit):
        txp, typ = tr.apply(tick, 0.0)
        fig.line(txp, ymid - 3, txp, ymid + 3, "#000000")
        if tick != 0.0:
            fig.text(txp, ymid + 16, fmt(tick), size=10)
        _, tyy = tr.apply(0.0, tick)
        fig.line(xmid - 3, tyy, xmid + 3, tyy, "#000000")
        if tick != 0.0:
            fig.text(xmid - 6, tyy + 3, fmt(tick), size=10, anchor="end")

    if "crown" in layers:
        if analysis.metric == "euclidean":
            ccx, ccy = tr.apply(cx, cy)
            fig.circles([ccx], [ccy], abs(tr.sx) * analysis.crown_threshold, "none",
                        stroke="#ffffff", stroke_width=2.0, cls="crown")
        else:
            verts = [tr.apply(x, y) for x, y in _crown_curve(analysis)]
            fig.polygon(verts, fill="none", stroke="#ffffff", stroke_width=2.0,
                        cls="crown")

    px, py = tr.apply(e[:, 0], e[:, 1])
    if "proximity" in layers:
        fig.circles(px, py, POINT_RADIUS, _fills(analysis.percentile), cls="pt")
    elif "scatter" in layers:
        fig.circles(px, py, POINT_RADIUS, rgb(SCATTER_COLOR), opacity=0.7, cls="pt")

    fig.text(PANEL_SIZE - MARGIN, ymid - 8, f"error {analysis.model_a}",
             size=13, anchor="end")
    fig.text(xmid + 8, MARGIN + 4, f"error {analysis.model_b}", size=13,
             anchor="start")
    return fig
