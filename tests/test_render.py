import numpy as np
import pytest

from conftest import find_all, point_in_polygon, polygon_points
from oracles import colormap_rgb

from errscope import (
    WARM_COOL,
    ZONES,
    Zone,
    analyze_pair,
    boxplot_stats,
    hexbin,
    kde2d,
    parse_predictions,
    render_boxplots,
    render_error_space,
    render_model_grid,
)
from errscope.exceptions import DegenerateDistribution, MissingLayerInput, UnknownModel
from errscope.render import colormap, fmt, rgb


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
    svg1 = render_error_space(an, layers=layers, kde=kde, hexgrid=hx).to_svg()
    svg2 = render_error_space(an, layers=layers, kde=kde, hexgrid=hx).to_svg()
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
        if zone is Zone.A_BETTER:
            assert in_a and not in_b
        elif zone is Zone.B_BETTER:
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
    tied = rgb(colormap([0.5])[0])
    assert all(p.get("fill") == tied for p in pts)


def test_pred_vs_actual_unique_coolest_point():
    ps = parse_predictions(
        "id,y_true,M\n" + "\n".join(f"r{i},{i},{i}.1" for i in range(9)) + "\nz,50,90")
    fig = render_model_grid(ps, ["M"])
    pts = find_all(fig, "circle", cls="pt")
    coolest = rgb(colormap([0.95])[0])
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
