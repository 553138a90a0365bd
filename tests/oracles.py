"""Scalar reference implementations the tests check the package against."""

import csv
import io
import math
from collections import Counter
from itertools import repeat

import numpy as np

from errscope._text import Picks, Strings
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


def rows(template: str, *columns):
    """template % row for each row of the equal-length columns, one string per row: the
    byte reference of the package's row writer.

    A numpy column goes through tolist(), so a float64 formats as a Python float, as
    does Strings, which gives its str; the codes of Picks select its texts.
    """
    columns = [[c.texts[i] for i in c.codes.tolist()] if isinstance(c, Picks)
               else c.tolist() if isinstance(c, (np.ndarray, Strings)) else c for c in columns]
    return map(template.__mod__, zip(*columns))


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
    # tolist() gives Python floats, which json writes as repr.
    columns = zip(*analysis.e.T.tolist(), analysis.zone.tolist(), analysis.quadrant.tolist(),
                  analysis.distance.tolist(), analysis.percentile.tolist())
    errorspace = {
        "model_a": analysis.model_a,
        "model_b": analysis.model_b,
        "metric": analysis.metric,
        "points": [
            {"e1": e1, "e2": e2, "zone": ZONES[z], "quadrant": QUADRANTS[q],
             "distance": d, "percentile": p}
            for e1, e2, z, q, d, p in columns
        ],
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


def svg_numbers(values):
    """Lazy strings of a float column: max 6 significant digits, no negative zero."""
    v = np.asarray(values, dtype=float).ravel()
    # Adding 0.0 turns -0.0, the one value .6g writes as "-0", into 0.0.
    return map(format, (v + 0.0).tolist(), repeat(".6g"))


class FormatFigure(Figure):
    """A Figure whose shape rows format each number through format(v, ".6g") and fill
    a %s row template: the byte reference of Figure's row writer."""

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
