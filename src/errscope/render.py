"""Deterministic SVG rendering of the comparison figures.

Every figure is a standalone SVG 1.1 document with no external resources, timestamps
or random ids. Shape coordinates are written at a fixed step of 10^-3, other numbers
with %.6g and fills as #rrggbb, so identical inputs serialize to identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._text import M_BOUND, Strings, row_chunks
from .density import hex_corners, hexbin, kde2d
from .errorspace import ErrorSpaceAnalysis, cholesky, percentile_ranks
from .exceptions import DegenerateDistribution, ErrscopeError
from .ingest import PredictionSet

PANEL_SIZE = 800.0
MARGIN = 60.0
GRID_COLUMNS = 4
CROWN_SEGMENTS = 256

ZONE_A_FILL = "#ffa500"  # orange: model A better, |y| > |x|
ZONE_B_FILL = "#228b22"  # green: model B better, |y| < |x|
ZONE_OPACITY = 0.15
POINT_RADIUS = 3.0
SCATTER_COLOR = "#444444"

ERROR_SPACE_LAYERS = ("zones", "scatter", "proximity", "crown", "kde", "hexbin")
DEFAULT_LAYERS = ("zones", "proximity", "crown")


def _numbers(values) -> np.ndarray:
    """Shape coordinates, flattened, for %m; one not below M_BOUND in magnitude is an error."""
    v = np.asarray(values, dtype=float).ravel()
    bad = ~(np.abs(v) < M_BOUND)  # NaN too
    if bad.any():
        raise DegenerateDistribution(f"figure coordinate {v[bad][0].item()!r} is not below "
                                     f"{M_BOUND!r} in magnitude")
    return v


def fmt(v: float) -> str:
    """One attribute or tick label as the figures write it: %.6g, never "-0"."""
    v = float(v) + 0.0  # turns -0.0, the one value %.6g writes as "-0", into 0.0
    if not math.isfinite(v):
        raise DegenerateDistribution(f"figure coordinate {v!r} is not finite")
    return "%.6g" % v


def check_layers(layers) -> tuple[str, ...]:
    """The requested error-space layers; an unknown name is an error."""
    layers = tuple(layers)
    unknown = [name for name in layers if name not in ERROR_SPACE_LAYERS]
    if unknown:
        raise ErrscopeError(f"unknown layer(s): {', '.join(unknown)}; "
                            f"known: {', '.join(ERROR_SPACE_LAYERS)}")
    return layers


# Each character XML 1.0 forbids (C0 controls but tab, LF, CR; U+FFFE, U+FFFF) shows as U+FFFD.
_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                              **dict.fromkeys([*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20),
                                               0xFFFE, 0xFFFF], "\ufffd")})


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
    """WARM_COOL RGB rows (uint8) for an array of t, each clamped to [0, 1]."""
    ts, cs = WARM_COOL[:, 0], WARM_COOL[:, 1:]
    t = np.clip(np.asarray(t, dtype=float).ravel(), 0.0, 1.0)
    # Segment k runs from control point k-1 to k, the first whose end >= t.
    k = np.clip(np.searchsorted(ts, t), 1, len(ts) - 1)
    w = (t - ts[k - 1]) / (ts[k] - ts[k - 1])
    return np.rint(cs[k - 1] + w[:, None] * (cs[k] - cs[k - 1])).astype(np.uint8)


_HEX = np.frombuffer(bytes(range(256)).hex().encode(), np.uint8).reshape(256, 2)  # "00".."ff"


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


def _attrs(**attrs) -> str:
    """' name="value"' per attribute in call order: numbers through fmt, strings as
    given, None skipped; cls is written class and each _ as -."""
    return "".join(f' {"class" if k == "cls" else k.replace("_", "-")}="'
                   f'{v if isinstance(v, str) else fmt(v)}"'
                   for k, v in attrs.items() if v is not None)


class Figure:
    """Ordered list of LF-terminated SVG fragments plus the data-to-canvas transform."""

    def __init__(self, width: float, height: float, transform: Transform | None = None):
        self.width = width
        self.height = height
        self.transform = transform
        self.elements = [f'<rect{_attrs(x=0, y=0, width=width, height=height, fill="#ffffff")}/>\n']

    def _rows(self, head: str, columns, fills, **attrs) -> None:
        """One line per row of the columns, which fill the fields of head, kept in
        row_chunks' chunks. fills is one colour, or (rows, 3) RGB ints in [0, 256) as
        colormap gives: each row's fill is its six hex digits rrggbb, picked from _HEX."""
        if not isinstance(fills, str):
            fills, columns = "#%s", (*columns, _HEX[fills].reshape(len(fills), 6))
        self.elements += row_chunks(f'<{head} fill="{fills}"{_attrs(**attrs)}/>\n', *columns)

    def circles(self, cx, cy, r: float, fills, **attrs) -> None:
        """One circle per entry of the cx, cy columns."""
        self._rows(f'circle cx="%m" cy="%m"{_attrs(r=r)}', (_numbers(cx), _numbers(cy)),
                   fills, **attrs)

    def rects(self, x, y, w: float, h: float, fills, **attrs) -> None:
        """One w-by-h rect per entry of the x, y columns."""
        self._rows(f'rect x="%m" y="%m"{_attrs(width=w, height=h)}',
                   (_numbers(x), _numbers(y)), fills, **attrs)

    def polygons(self, x, y, fills, **attrs) -> None:
        """One polygon per row of the (k, v) vertex arrays x, y."""
        k, v = np.shape(x)
        xy = _numbers(np.stack([x, y], axis=-1))
        # Every vertex as "x,y ", then each polygon's text cut at the space after its last.
        text = "".join(row_chunks("%m,%m ", xy[0::2], xy[1::2])).encode()
        blob = np.frombuffer(text, dtype=np.uint8)
        ends = np.flatnonzero(blob == ord(" "))[v - 1::v]
        points = Strings(np.delete(blob, ends), np.concatenate([[0], ends - np.arange(k)]))
        self._rows('polygon points="%s"', (points,), fills, **attrs)

    def line(self, x1: float, y1: float, x2: float, y2: float, stroke: str,
             width: float = 1.0, dash: str | None = None) -> None:
        attrs = _attrs(x1=x1, y1=y1, x2=x2, y2=y2, stroke=stroke, stroke_width=width,
                       stroke_dasharray=dash)
        self.elements.append(f"<line{attrs}/>\n")

    def text(self, x: float, y: float, content: str, size: float = 14.0,
             anchor: str = "middle") -> None:
        attrs = _attrs(x=x, y=y, text_anchor=anchor, font_size=size, font_family="sans-serif",
                       fill="#000000")
        self.elements.append(f"<text{attrs}>{content.translate(_XML_ESCAPES)}</text>\n")

    def write(self, fh) -> None:
        """Write the SVG document to an open text file, one piece of elements at a time."""
        box = " ".join(map(fmt, (0, 0, self.width, self.height)))
        svg = _attrs(xmlns="http://www.w3.org/2000/svg", version="1.1", width=self.width,
                     height=self.height, viewBox=box)
        fh.write(f'<?xml version="1.0" encoding="UTF-8"?>\n<svg{svg}>\n')
        fh.writelines(self.elements)
        fh.write("</svg>\n")


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions covering [lo, hi], about six of them."""
    span = hi - lo
    if not math.isfinite(span):
        raise DegenerateDistribution(f"axis span from {lo!r} to {hi!r} overflows float64")
    raw = span / 6
    if raw < np.finfo(float).tiny:
        # A subnormal step's power of ten can round to 0, and log10(0) fails.
        raise DegenerateDistribution(f"axis span {span!r} is too small to draw")
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

def render_boxplots(stats: list[tuple[str, dict]]) -> Figure:
    """One box-and-whisker glyph per (model, boxplot_stats) on a shared error axis."""
    if not stats:
        raise ValueError("no boxplot stats to render")
    m = len(stats)
    width, height = max(320.0, 90.0 * m + 2 * MARGIN), 600.0

    values = []
    for _, s in stats:
        values += [s["min_whisker"], s["max_whisker"], *s["outliers"]]
    lo, hi = min(values + [0.0]), max(values + [0.0])
    pad = 0.05 * (hi - lo) if hi > lo else 1.0
    lo, hi = lo - pad, hi + pad

    tr = Transform.fit(0.0, float(m), lo, hi, MARGIN, width - MARGIN,
                       MARGIN, height - MARGIN)
    fig = Figure(width, height, transform=tr)

    # Shared error axis with ticks, plus the zero reference line.
    for tick in _nice_ticks(lo, hi):
        _, ty = tr.apply(0.0, tick)
        fig.line(MARGIN - 4, ty, MARGIN, ty, "#000000")
        fig.text(MARGIN - 8, ty + 4, fmt(tick), size=12, anchor="end")
    fig.line(MARGIN, MARGIN, MARGIN, height - MARGIN, "#000000")
    _, zero_y = tr.apply(0.0, 0.0)
    if lo <= 0.0 <= hi:
        fig.line(MARGIN, zero_y, width - MARGIN, zero_y, "#999999", dash="4 4")

    for i, (name, s) in enumerate(stats):
        (x0, xc, x1), _ = tr.apply(i + 0.5 + np.array([-0.3, 0.0, 0.3]), 0.0)
        _, y = tr.apply(0.0, np.array([s["q1"], s["q3"], s["median"], s["min_whisker"],
                                       s["max_whisker"], *s["outliers"]]))
        (y_q1, y_q3, y_med, y_lo, y_hi), oy = y[:5], y[5:]
        fig.line(xc, y_lo, xc, y_q1, "#000000")
        fig.line(xc, y_q3, xc, y_hi, "#000000")
        fig.line((x0 + xc) / 2, y_lo, (x1 + xc) / 2, y_lo, "#000000")
        fig.line((x0 + xc) / 2, y_hi, (x1 + xc) / 2, y_hi, "#000000")
        fig.polygons([[x0, x1, x1, x0]], [[y_q1, y_q1, y_q3, y_q3]], "#c6dbef",
                     stroke="#000000", stroke_width=1.0)
        fig.line(x0, y_med, x1, y_med, "#000000", width=2.0)
        fig.circles(np.full(oy.size, xc), oy, 2.5, "none", stroke=SCATTER_COLOR,
                    stroke_width=1.0, cls="outlier")
        fig.text(xc, height - MARGIN + 20, name, size=13)

    return fig


# ---------------------------------------------------------------------------
# predicted vs actual

def _pred_vs_actual_panel(fig: Figure, y_true: np.ndarray, y_pred: np.ndarray,
                          pct: np.ndarray, label: str) -> None:
    """One panel, in the coordinates of the grid's first: x and y from 0 to PANEL_SIZE."""
    # Both axes share one range, so the identity line is the diagonal.
    lo = float(min(y_true.min(), y_pred.min()))
    hi = float(max(y_true.max(), y_pred.max()))
    if hi == lo:
        hi = lo + max(1.0, math.ulp(lo))
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    tr = Transform.fit(lo, hi, lo, hi, MARGIN, PANEL_SIZE - MARGIN, MARGIN, PANEL_SIZE - MARGIN)
    fig.line(*tr.apply(lo, lo), *tr.apply(hi, hi), "#888888", width=1.5)
    fig.circles(*tr.apply(y_true, y_pred), POINT_RADIUS, colormap(pct), cls="pt")
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
    fig = Figure(cols * PANEL_SIZE, math.ceil(m / GRID_COLUMNS) * PANEL_SIZE)
    for k, (model, j, pct) in enumerate(zip(order, columns, pcts)):
        # Each panel is drawn as the first one and moved into place, so its shape
        # coordinates stay below PANEL_SIZE whatever its row and column.
        left, top = k % GRID_COLUMNS * PANEL_SIZE, k // GRID_COLUMNS * PANEL_SIZE
        fig.elements.append(f'<g transform="translate({fmt(left)},{fmt(top)})">\n')
        _pred_vs_actual_panel(fig, ps.y_true, ps.predictions[:, j], pct, model)
        fig.elements.append("</g>\n")
    return fig


# ---------------------------------------------------------------------------
# 2D error space

def _crown_curve(analysis: ErrorSpaceAnalysis) -> tuple[np.ndarray, np.ndarray]:
    """Data-space x and y of the ellipse at distance = crown_threshold."""
    a = 2.0 * math.pi * np.arange(CROWN_SEGMENTS) / CROWN_SEGMENTS
    cos, sin = np.cos(a), np.sin(a)
    l00, l10, l11 = cholesky(analysis.covariance)
    t, (cx, cy) = analysis.crown_threshold, analysis.median2d
    return cx + t * (cos * l00), cy + t * (cos * l10 + sin * l11)


def render_error_space(analysis: ErrorSpaceAnalysis, layers=DEFAULT_LAYERS,
                       bandwidth: tuple[float, float] | None = None,
                       hex_radius: float | None = None) -> Figure:
    """The 2D error space with the named layers, by default zones, proximity and crown.

    The kde layer draws kde2d(analysis.e, bandwidth), with Scott's bandwidth when
    bandwidth is None; the hexbin layer draws hexbin(analysis.e, hex_radius), with cells
    of the bounding-box diagonal / 40 when hex_radius is None. Both are built first, the
    KDE before the hexbin, so their errors come before any other the figure raises.

    Stacking, background to foreground: density (kde/hexbin), comparison
    zones, axes and diagonals, median crown (white), points.
    """
    layers = set(check_layers(layers))
    kde = kde2d(analysis.e, bandwidth) if "kde" in layers else None
    hexgrid = hexbin(analysis.e, hex_radius) if "hexbin" in layers else None

    e, t, (cx, cy) = analysis.e, analysis.crown_threshold, analysis.median2d
    # The crown's half-extent along each axis.
    ex, ey = (t, t) if analysis.metric == "euclidean" else (
        t * math.sqrt(max(analysis.covariance[i, i], 0.0)) for i in (0, 1))
    limit = max(float(np.abs(e).max()), abs(cx) + ex, abs(cy) + ey, 1e-12) * 1.05

    tr = Transform.fit(-limit, limit, -limit, limit, MARGIN, PANEL_SIZE - MARGIN,
                       MARGIN, PANEL_SIZE - MARGIN)
    fig = Figure(PANEL_SIZE, PANEL_SIZE, transform=tr)

    if "kde" in layers:
        vmax = float(kde.values.max())
        if vmax > 0.0:
            # Python floats: a cell size that overflows the canvas gives inf, which fmt rejects.
            dx = float(kde.xs[-1] - kde.xs[0]) / (kde.xs.size - 1)
            dy = float(kde.ys[-1] - kde.ys[0]) / (kde.ys.size - 1)
            ix, iy = np.nonzero(kde.values > 0.01 * vmax)
            x0, y0 = tr.apply(kde.xs[ix] - dx / 2, kde.ys[iy] + dy / 2)
            fig.rects(x0, y0, abs(tr.sx) * dx, abs(tr.sy) * dy,
                      colormap(1.0 - kde.values[ix, iy] / vmax), fill_opacity=0.6)

    if "hexbin" in layers:
        counts = hexgrid.cells[:, 2]
        vx, vy = tr.apply(*np.moveaxis(hex_corners(hexgrid), -1, 0))  # (k, 6) each
        fig.polygons(vx, vy, colormap(1.0 - counts / counts.max()), fill_opacity=0.7, cls="hex")

    # Canvas x of -limit, 0, limit and canvas y of limit, 0, -limit (top to bottom).
    (x0, xmid, x1), (y1, ymid, y0) = tr.apply(limit * np.array([-1.0, 0.0, 1.0]),
                                              limit * np.array([1.0, 0.0, -1.0]))
    if "zones" in layers:
        # |e2| > |e1|: model A's error is smaller -> orange hourglass (top and bottom).
        fig.polygons([[xmid, x0, x1]] * 2, [[ymid, y1, y1], [ymid, y0, y0]], ZONE_A_FILL,
                     fill_opacity=ZONE_OPACITY, cls="zone-a")
        fig.polygons([[xmid, x0, x0], [xmid, x1, x1]], [[ymid, y1, y0]] * 2, ZONE_B_FILL,
                     fill_opacity=ZONE_OPACITY, cls="zone-b")
        fig.line(x0, y0, x1, y1, "#666666")
        fig.line(x0, y1, x1, y0, "#666666")

    # Axes through the origin.
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
            fig.circles(*tr.apply(np.array([cx]), np.array([cy])), abs(tr.sx) * t, "none",
                        stroke="#ffffff", stroke_width=2.0, cls="crown")
        else:
            vx, vy = tr.apply(*_crown_curve(analysis))
            fig.polygons([vx], [vy], "none", stroke="#ffffff", stroke_width=2.0, cls="crown")

    px, py = tr.apply(e[:, 0], e[:, 1])
    if "proximity" in layers:
        fig.circles(px, py, POINT_RADIUS, colormap(analysis.percentile), cls="pt")
    elif "scatter" in layers:
        fig.circles(px, py, POINT_RADIUS, SCATTER_COLOR, fill_opacity=0.7, cls="pt")

    fig.text(PANEL_SIZE - MARGIN, ymid - 8, f"error {analysis.model_a}",
             size=13, anchor="end")
    fig.text(xmid + 8, MARGIN + 4, f"error {analysis.model_b}", size=13,
             anchor="start")
    return fig
