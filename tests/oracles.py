"""Scalar reference implementations the tests check the package against."""

import csv
import io
import json
import math
import re
from collections import Counter
from functools import cache
from itertools import repeat

import numpy as np

from errscope._text import Strings
from errscope.density import _gaussian
from errscope.errorspace import QUADRANTS, ZONES, ErrorSpaceAnalysis
from errscope.render import Figure, _attrs


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


def smooth_full_width(axis, c: np.ndarray) -> np.ndarray:
    """density._Axis.smooth summing every column of c at each grid node, zeros too."""
    if axis.fine is None:
        return c
    lo, hi = axis._reach(axis.fine, axis.grid)
    return np.array([np.einsum("f,fj->j", _gaussian(g - axis.fine[a:b], axis.h), c[a:b])
                     for g, a, b in zip(axis.grid.tolist(), lo.tolist(), hi.tolist())])


def riemann_mass(grid) -> float:
    """Total probability mass of a KdeGrid by rectangle sum."""
    dx = (grid.xs[-1] - grid.xs[0]) / (grid.xs.size - 1)
    dy = (grid.ys[-1] - grid.ys[0]) / (grid.ys.size - 1)
    return float(grid.values.sum() * dx * dy)


def midrank_percentiles(distances) -> np.ndarray:
    """(#less + 0.5 * #tied) / N of each value, both counts from a binary search of the
    sorted values."""
    d = np.asarray(distances, dtype=float)
    order = np.sort(d)
    less = np.searchsorted(order, d, side="left")
    tied = np.searchsorted(order, d, side="right") - less
    return (less + 0.5 * tied) / d.size


def same_prediction_set(a, b) -> bool:
    """Field-by-field equality of two PredictionSets (== is identity)."""
    return (a.instance_ids.tolist() == b.instance_ids.tolist()
            and a.model_names == b.model_names
            and np.array_equal(a.y_true, b.y_true)
            and np.array_equal(a.predictions, b.predictions)
            and np.array_equal(a.errors, b.errors))


def duplicate_ids(ids) -> list[str]:
    """Ids that occur more than once: a dict in file order records each id at its first
    repeat."""
    seen, repeats = set(), {}
    for iid in ids:
        if iid in seen:
            repeats.setdefault(iid, None)
        seen.add(iid)
    return list(repeats)


_M32 = 0xFFFFFFFF


@cache
def _g_table() -> np.ndarray:
    """(4, 627) uint64: the 32-bit limbs, low first, of g(k) = floor(10^-k 2^(125 -
    floor(-k log2 10))) + 1 at column k + 324, for k from -324 to 302."""
    table = np.zeros((4, 627), dtype=np.uint64)
    for k in range(-324, 303):
        r = 125 - ((-k * 913124641741) >> 38)
        g = (10 ** max(-k, 0) << max(r, 0)) // (10 ** max(k, 0) << max(-r, 0)) + 1
        table[:, k + 324] = [(g >> s) & _M32 for s in (0, 32, 64, 96)]
    return table


def _round_to_odd(g: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """floor(g cp / 2^128), its low bit set when the 64 bits below are not all 0; the
    192-bit product of g's (4, n) limbs and cp's uint64 rows is summed in 32-bit columns."""
    c0, c1 = cp & _M32, cp >> 32
    g0, g1, g2, g3 = g
    p01, p10, p11, p20, p21, p30 = g0 * c1, g1 * c0, g1 * c1, g2 * c0, g2 * c1, g3 * c0
    col1 = ((g0 * c0) >> 32) + (p01 & _M32) + (p10 & _M32)
    col2 = (col1 >> 32) + (p01 >> 32) + (p10 >> 32) + (p11 & _M32) + (p20 & _M32)
    col3 = (col2 >> 32) + (p11 >> 32) + (p20 >> 32) + (p21 & _M32) + (p30 & _M32)
    vb = g3 * c1 + (col3 >> 32) + (p21 >> 32) + (p30 >> 32)
    return vb | (((col2 | col3) & _M32) != 0)


def shortest_schubfach(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, k) as _text._shortest gives them, from Schubfach (Giulietti 2020, "The Schubfach
    way to render doubles"): the scaled interval ends and value, three 192-bit products of
    each positive normal double's IEEE bits, decide between the one-digit-shorter
    neighbours and the two closest."""
    q = (bits >> 52).astype(np.int64) - 1075
    c = bits & ((1 << 52) - 1)
    closer = (c == 0) & (q > -1074)  # at a power of two the gap below is half the gap above
    c |= 1 << 52
    k = (q * 661971961083 - closer * 274743187321) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 3).astype(np.uint64)
    cb = c << 2
    g = _g_table().take(k + 324, axis=1)
    vbl, vb, vbr = _round_to_odd(g, np.stack([cb - 2 + closer.astype(np.uint64), cb, cb + 2]) << h)
    lower, upper = vbl + (c & 1), vbr - (c & 1)  # the interval holds its ends when c is even
    s, sp = vb >> 2, vb // 40
    # At most one of the two one-digit-shorter neighbours lies in the interval.
    up_in, wp_in = lower <= 40 * sp, 40 * sp + 40 <= upper
    short = (s >= 10) & (up_in != wp_in)
    u_in, w_in = lower <= 4 * s, 4 * s + 4 <= upper
    up = np.where(u_in != w_in, w_in, (vb > 4 * s + 2) | ((vb == 4 * s + 2) & (s & 1 == 1)))
    return np.where(short, sp + wp_in, s + up), k + short


def fixed_step(v: float) -> str:
    """v as the %m field writes it: m = rint(v 1000) as m 10^-3, from Python ints alone."""
    m = int(np.rint(v * 1000.0))
    whole, fraction = divmod(abs(m), 1000)
    return "-" * (m < 0) + str(whole) + (f".{fraction:03d}".rstrip("0") if fraction else "")


def rows(template: str, *columns):
    """template % row for each row of the equal-length columns, one string per row: the
    byte reference of the package's row writer.

    A 1-D numpy column goes through tolist(), so a float64 formats as a Python float, as
    does Strings, which gives its str; a (rows, width) uint8 column gives the text of each
    row's bytes, decoded row by row. A %m field takes fixed_step's text of its column.
    """
    specs = re.findall(r"%(r|s|m)", template)
    columns = [[row.tobytes().decode() for row in c] if getattr(c, "ndim", 0) == 2
               else c.tolist() if isinstance(c, (np.ndarray, Strings)) else c for c in columns]
    columns = [list(map(fixed_step, c)) if spec == "m" else c for spec, c in zip(specs, columns)]
    return map(template.replace("%m", "%s").__mod__, zip(*columns))


def to_csv(ps) -> str:
    """Wide-CSV text of a PredictionSet through csv.writer, in one string."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("id", "y_true") + ps.model_names)
    # tolist() gives Python floats, whose repr is the shortest exact form;
    # converting whole columns avoids a list object per row.
    columns = [ps.y_true.tolist()] + ps.predictions.T.tolist()
    writer.writerows(zip(ps.instance_ids.tolist(), *(map(repr, c) for c in columns)))
    return buf.getvalue()


def with_points(report: dict, analysis: ErrorSpaceAnalysis) -> dict:
    """A copy of the pair report with every instance of the analysis under "errorspace"."""
    # tolist() gives Python floats, which json writes as repr, and Python ints.
    columns = zip(*analysis.e.T.tolist(), analysis.distance.tolist(),
                  analysis.percentile.tolist(), analysis.zone.tolist(), analysis.quadrant.tolist())
    errorspace = {
        "model_a": analysis.model_a,
        "model_b": analysis.model_b,
        "metric": analysis.metric,
        "point_fields": ["e1", "e2", "distance", "percentile", "zone", "quadrant"],
        "zones": list(ZONES),
        "quadrants": list(QUADRANTS),
        "points": [list(row) for row in columns],
        "summary": {
            "n": analysis.n,
            "median2d": list(analysis.median2d),
            "covariance": analysis.covariance.ravel().tolist(),
            "crown_threshold": analysis.crown_threshold,
            "zone_counts": analysis.zone_counts,
            "quadrant_counts": analysis.quadrant_counts,
        },
    }
    return {**report, "errorspace": errorspace}


# A line that opens an array at the indent of errorspace.points' rows: only a point does.
_POINT_ROW = re.compile(r"^ {6}\[\n(?: {8}.*\n)*? {6}\]", re.M)


def report_text(report: dict) -> str:
    """The canonical layout of a report: json.dumps(indent=2) and a final LF, except that
    each row of errorspace.points is json.dumps(row) on its own line."""
    text = json.dumps(report, indent=2) + "\n"
    return _POINT_ROW.sub(lambda m: "      " + json.dumps(json.loads(m[0])), text)


def svg_numbers(values):
    """Lazy strings of a float column of shape coordinates, at the fixed step of 10^-3."""
    return map(fixed_step, np.asarray(values, dtype=float).ravel().tolist())


class FormatFigure(Figure):
    """A Figure whose shape rows format each number through fixed_step and fill a %s row
    template: the byte reference of Figure's row writer."""

    def _rows(self, head: str, columns, fills, **attrs) -> None:
        """One element per row of the columns, each filling a %s of head, then fill and attrs.
        fills is one colour or (rows, 3) RGB ints, one RGB row per row."""
        if isinstance(fills, str):
            fills = repeat(fills)
        else:
            fills = map("#%02x%02x%02x".__mod__, map(tuple, np.asarray(fills).tolist()))
        row = f'<{head} fill="%s"{_attrs(**attrs)}/>\n'
        self.elements.extend(map(row.__mod__, zip(*columns, fills)))

    def circles(self, cx, cy, r: float, fills, **attrs) -> None:
        self._rows(f'circle cx="%s" cy="%s"{_attrs(r=r)}', (svg_numbers(cx), svg_numbers(cy)),
                   fills, **attrs)

    def rects(self, x, y, w: float, h: float, fills, **attrs) -> None:
        self._rows(f'rect x="%s" y="%s"{_attrs(width=w, height=h)}',
                   (svg_numbers(x), svg_numbers(y)), fills, **attrs)

    def polygons(self, x, y, fills, **attrs) -> None:
        xy = np.stack([np.asarray(x, dtype=float), np.asarray(y, dtype=float)], axis=-1)
        v = xy.shape[1]
        points = " ".join(["%s,%s"] * v)
        # Each row takes the next 2v numbers: x and y of each vertex in turn.
        self._rows('polygon points="%s"',
                   (map(points.__mod__, zip(*[svg_numbers(xy)] * (2 * v))),), fills, **attrs)
