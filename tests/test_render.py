import os
import tracemalloc

import numpy as np
import pytest

from conftest import find_all, point_in_polygon, polygon_points, svg_text
from oracles import FormatFigure, colormap_rgb

from errscope import (
    WARM_COOL,
    ZONES,
    analyze_pair,
    boxplot_stats,
    default_hex_radius,
    hexbin,
    kde2d,
    parse_predictions,
    render_boxplots,
    render_error_space,
    render_model_grid,
)
from errscope.exceptions import DegenerateDistribution, MissingLayerInput, UnknownModel
from errscope._text import M_BOUND, ROW_CHUNK
from errscope.render import ERROR_SPACE_LAYERS, Figure, colormap, fmt


def sample_analysis(n=101, seed=0, metric="mahalanobis", scale_b=1.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n)
    b = scale_b * rng.normal(size=n) + 0.3 * a
    return analyze_pair(np.column_stack([a, b]), "A", "B", metric=metric)


def test_fmt_six_significant_digits():
    assert fmt(1.0) == "1"
    assert fmt(-0.0) == "0"
    assert fmt(123456.789) == "123457"
    assert fmt(0.000123456789) == "0.000123457"
    for v in (float("nan"), float("inf")):
        with pytest.raises(DegenerateDistribution):
            fmt(v)


# A signed zero, the smallest subnormal, magnitudes that round to 0 (both signs), ties to
# even at the step (down and up), fractions of 1 to 3 digits, carries into the next integer
# digit, 13 integer digits, and the largest value below the bound.
SVG_EDGES = [-0.0, 5e-324, 1e-5, -2.5e-07, -0.0004, 0.0005, 0.0015, -0.0625, 123456.5,
             349.019, 2.29125, 800.0, -1234567.0, -98765.4321, 9.9996, -999999.9995,
             1e12 + 0.0625, np.nextafter(M_BOUND, 0.0)]


@pytest.mark.parametrize("shape", ["circles", "rects", "polygons", "wide_polygons"])
@pytest.mark.parametrize("fills", ["per_row", "constant"])
def test_shape_rows_past_one_chunk_match_reference(shape, fills):
    rng = np.random.default_rng(14)
    # 1200 rows of 256 vertices, about 4 KB each, pass row_chunks' 4 MB bound.
    n, v = (1200, 256) if shape == "wide_polygons" else (ROW_CHUNK + 1, 3)
    x, y = rng.choice(SVG_EDGES, size=(2, n, v))
    fills = rng.integers(0, 256, size=(n, 3)) if fills == "per_row" else "none"
    figs = Figure(10.0, 10.0), FormatFigure(10.0, 10.0)
    for fig in figs:
        if shape == "circles":
            fig.circles(x[:, 0], y[:, 0], 3.0, fills, fill_opacity=0.7, cls="pt")
        elif shape == "rects":
            fig.rects(x[:, 0], y[:, 0], 2.5, 1e300, fills, fill_opacity=0.6)
        else:
            fig.polygons(x, y, fills, stroke="#000000", cls="hex")
    assert len(figs[0].elements) > 2  # the background, then two or more chunks of rows
    got, want = (svg_text(fig).encode("utf-8") for fig in figs)
    lines = got.split(b"\n"), want.split(b"\n")
    assert len(lines[0]) == len(lines[1]) == n + 5  # header, svg, background, rows, end, ""
    # The first differing line, rather than a diff of two long documents.
    assert next(((a, b) for a, b in zip(*lines) if a != b), None) is None
    assert got == want


@pytest.mark.parametrize("shape", ["circles", "rects", "polygons"])
def test_shape_numbers_below_the_bound(shape):
    """Every shape writes the largest value below 2^53 / 1000, in magnitude, and rejects the
    bound itself, any larger value and a non-finite one."""
    def draw(v):
        fig = Figure(10.0, 10.0)
        if shape == "circles":
            fig.circles([1.0, v], [v, 1.0], 3.0, "none")
        elif shape == "rects":
            fig.rects([1.0, v], [v, 1.0], 2.5, 1e300, "none")
        else:
            fig.polygons([[1.0, v, 2.0]], [[v, 1.0, 2.0]], "none")
        return svg_text(fig)

    below = np.nextafter(M_BOUND, 0.0)
    assert draw(below).count("9007199254740.99") == 2
    assert draw(-below).count("-9007199254740.99") == 2
    for v in (M_BOUND, -M_BOUND, 1e16, 1e300, -1e300, np.inf, np.nan):
        with pytest.raises(DegenerateDistribution, match="figure coordinate"):
            draw(v)


def test_write_traced_peak_at_1e5():
    # Figure.write hands the file one piece at a time: no whole document is built.
    an = sample_analysis(n=100_000, seed=9)
    fig = render_error_space(an, layers=ERROR_SPACE_LAYERS, kde=kde2d(an.e),
                             hexgrid=hexbin(an.e, default_hex_radius(an.e)))
    with open(os.devnull, "w", encoding="utf-8", newline="\n") as fh:
        tracemalloc.start()
        try:
            fig.write(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 8 * 2**20  # two of row_chunks' 4 MB buffers


def test_colormap_endpoints_and_interpolation():
    assert colormap([0.0, 1.0]).tolist() == [[215, 48, 39], [69, 117, 180]]
    mid = colormap([0.125])[0]
    assert all(min(a, b) <= v <= max(a, b)
               for v, a, b in zip(mid, (215, 48, 39), (253, 174, 97)))
    # Out-of-range, control-point and in-between t agree with the segment walk.
    ts = np.concatenate([np.linspace(-0.1, 1.1, 1201), [0.25, 0.5, 0.75]])
    assert [tuple(c) for c in colormap(ts).tolist()] == [
        colormap_rgb(WARM_COOL, t) for t in ts]


def test_byte_determinism():
    an = sample_analysis()
    kde = kde2d(an.e)
    hx = hexbin(an.e, 0.5)
    layers = ("zones", "proximity", "crown", "kde", "hexbin")
    svg1 = svg_text(render_error_space(an, layers=layers, kde=kde, hexgrid=hx))
    svg2 = svg_text(render_error_space(an, layers=layers, kde=kde, hexgrid=hx))
    assert svg1.encode() == svg2.encode()


def test_point_positions_match_transform():
    an = sample_analysis(n=50)
    fig = render_error_space(an, layers=("zones", "proximity", "crown"))
    circles = find_all(fig, "circle", cls="pt")
    assert len(circles) == 50
    for c, (e1, e2) in zip(circles, an.e):
        x, y = fig.transform.apply(e1, e2)
        assert abs(float(c.get("cx")) - x) <= 0.5
        assert abs(float(c.get("cy")) - y) <= 0.5


def test_zone_fill_agrees_with_classifier():
    an = sample_analysis(n=80, seed=3)
    fig = render_error_space(an, layers=("zones", "scatter"))
    zones_a = [polygon_points(el) for el in find_all(fig, "polygon", cls="zone-a")]
    zones_b = [polygon_points(el) for el in find_all(fig, "polygon", cls="zone-b")]
    assert len(zones_a) == 2 and len(zones_b) == 2
    for (e1, e2), code in zip(an.e, an.zone):
        x, y = fig.transform.apply(e1, e2)
        in_a = any(point_in_polygon(x, y, poly) for poly in zones_a)
        in_b = any(point_in_polygon(x, y, poly) for poly in zones_b)
        zone = ZONES[code]
        if zone == "a_better":
            assert in_a and not in_b
        elif zone == "b_better":
            assert in_b and not in_a


def test_euclidean_crown_is_circle():
    an = sample_analysis(metric="euclidean")
    fig = render_error_space(an, layers=("proximity", "crown"))
    crowns = find_all(fig, "circle", cls="crown")
    assert len(crowns) == 1
    c = crowns[0]
    assert c.get("stroke") == "#ffffff"
    expected_r = abs(fig.transform.sx) * an.crown_threshold
    assert float(c.get("r")) == pytest.approx(expected_r, rel=1e-5)
    cx, cy = fig.transform.apply(*an.median2d)
    assert float(c.get("cx")) == pytest.approx(cx, abs=0.01)


def test_mahalanobis_crown_axis_ratio():
    # Engineer sample covariance exactly diag(4, 1).
    rng = np.random.default_rng(4)
    n = 400
    z1 = rng.normal(size=n)
    z2 = rng.normal(size=n)
    z1 = (z1 - z1.mean()) / z1.std(ddof=1)
    z2 = z2 - z2.mean()
    z2 -= z1 * (z1 @ z2) / (z1 @ z1)  # orthogonalize
    z2 /= z2.std(ddof=1)
    an = analyze_pair(np.column_stack([2.0 * z1, z2]), "A", "B", metric="mahalanobis")
    assert np.allclose(an.covariance, np.diag([4.0, 1.0]), atol=1e-9)

    fig = render_error_space(an, layers=("crown",))
    crowns = find_all(fig, "polygon", cls="crown")
    assert len(crowns) == 1
    pts = np.array(polygon_points(crowns[0]))
    assert pts.shape[0] >= 128
    center = np.array(fig.transform.apply(*an.median2d))
    radii = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
    assert radii.max() / radii.min() == pytest.approx(2.0, rel=1e-3)


def test_missing_layer_input():
    an = sample_analysis()
    with pytest.raises(MissingLayerInput):
        render_error_space(an, layers=("kde",))
    with pytest.raises(MissingLayerInput):
        render_error_space(an, layers=("hexbin",))
    with pytest.raises(ValueError):
        render_error_space(an, layers=("sparkles",))


def test_boxplots_need_stats():
    with pytest.raises(ValueError, match="no boxplot stats to render"):
        render_boxplots([])


def test_boxplot_outlier_dots():
    stats = [("M", boxplot_stats([1.0, 2.0, 3.0, 4.0, 100.0]))]
    fig = render_boxplots(stats)
    dots = find_all(fig, "circle", cls="outlier")
    assert len(dots) == 1


def test_boxplot_disjoint_ranges_ordered():
    s1 = boxplot_stats([1.0, 2.0, 3.0])
    s2 = boxplot_stats([10.0, 11.0, 12.0])
    fig = render_boxplots([("low", s1), ("high", s2)])
    boxes = [p for p in find_all(fig, "polygon") if p.get("fill") == "#c6dbef"]
    assert len(boxes) == 2
    x_first = min(x for x, _ in polygon_points(boxes[0]))
    x_second = min(x for x, _ in polygon_points(boxes[1]))
    assert x_first < x_second


def test_pred_vs_actual_perfect_model_tied_colors():
    ps = parse_predictions("id,y_true,M\na,1,1\nb,2,2\nc,3,3")
    fig = render_model_grid(ps, ["M"])
    pts = find_all(fig, "circle", cls="pt")
    assert len(pts) == 3
    tied = "#%02x%02x%02x" % tuple(colormap([0.5])[0])
    assert all(p.get("fill") == tied for p in pts)


def test_pred_vs_actual_unique_coolest_point():
    ps = parse_predictions(
        "id,y_true,M\n" + "\n".join(f"r{i},{i},{i}.1" for i in range(9)) + "\nz,50,90")
    fig = render_model_grid(ps, ["M"])
    pts = find_all(fig, "circle", cls="pt")
    coolest = "#%02x%02x%02x" % tuple(colormap([0.95])[0])
    assert sum(1 for p in pts if p.get("fill") == coolest) == 1
    with pytest.raises(UnknownModel):
        render_model_grid(ps, ["nope"])


def test_model_grid_layout_12_models():
    n = 30
    rng = np.random.default_rng(5)
    y = rng.uniform(0, 10, size=n)
    header = "id,y_true," + ",".join(f"A{k}" for k in range(1, 13))
    rows = [
        f"r{i},{y[i]}," + ",".join(str(y[i] + rng.normal()) for _ in range(12))
        for i in range(n)
    ]
    ps = parse_predictions(header + "\n" + "\n".join(rows))
    fig = render_model_grid(ps, ps.model_names)
    assert fig.width == 4 * 800.0
    assert fig.height == 3 * 800.0
    assert len(find_all(fig, "circle", cls="pt")) == 12 * n
