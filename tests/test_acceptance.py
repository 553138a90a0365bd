"""Acceptance gate: one test per release criterion, with a pass line each."""

import math
import time

import numpy as np
from oracles import hex_centers, hex_total, riemann_mass

from errscope import (
    analyze_pair,
    hexbin,
    kde2d,
    mae,
    rmse,
    sort_models_by_metric,
)
from errscope.cli import main
from errscope.density import xy_to_axial
from errscope.errorspace import mahalanobis_many
from errscope.synth import (
    SCENARIOS,
    gen_asymmetric_pair,
    gen_outlier_vs_moderate,
    gen_under_vs_over,
    generate,
)


def ok(num, text):
    print(f"[PASS] criterion {num}: {text}")


def pair_errors(ps, a, b):
    """The error columns of models a and b."""
    return ps.errors[:, ps.index(a)], ps.errors[:, ps.index(b)]


def test_c01_outlier_scenario_metric_values():
    t0 = time.perf_counter()
    ps = gen_outlier_vs_moderate(1000, outlier_magnitude=500.0, seed=0)
    ea, eb = pair_errors(ps, "B1", "B2")
    assert mae(ea) == 0.5
    assert abs(rmse(ea) - 15.8114) < 1e-4

    for seed in range(20):
        ps = gen_outlier_vs_moderate(1000, moderate_sigma=9.9, seed=seed)
        _, eb = pair_errors(ps, "B1", "B2")
        assert 7.3 <= mae(eb) <= 8.4, f"seed {seed}: mae {mae(eb)}"
        assert 9.4 <= rmse(eb) <= 10.4, f"seed {seed}: rmse {rmse(eb)}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    ok(1, f"B1 mae=0.5 rmse~15.8114; B2 in band over 20 seeds ({elapsed:.3f}s)")


def test_c02_metric_ordering_flips_every_seed():
    for seed in range(1, 101):
        ps = gen_outlier_vs_moderate(1000, seed=seed)
        ea, eb = pair_errors(ps, "B1", "B2")
        assert mae(ea) < mae(eb), f"seed {seed}"
        assert rmse(ea) > rmse(eb), f"seed {seed}"
    ok(2, "mae(B1) < mae(B2) and rmse(B1) > rmse(B2) for seeds 1..100")


def test_c03_directionality_masking():
    ps = gen_under_vs_over(5000, bias=9.0, sigma=3.0, seed=1)
    ea, eb = pair_errors(ps, "C1", "C2")
    assert abs(mae(ea) - mae(eb)) < 0.5
    assert abs(rmse(ea) - rmse(eb)) < 0.6
    assert np.all(ea <= 0.0)
    assert np.all(eb >= 0.0)
    ok(3, "C1/C2 metrics nearly equal while signs are 100% opposite")


def test_c04_ranking_fixture():
    # Two-point error vectors [m+d, m-d] with d = sqrt(s^2 - m^2) reproduce the
    # target MAE m and RMSE s exactly.
    table = {
        "A1": (12.9, 16.8), "A2": (13.5, 17.5), "A3": (32.3, 37.2),
        "A4": (21.3, 25.7), "A5": (35.6, 40.7), "A6": (21.8, 26.3),
        "A7": (18.1, 22.7), "A8": (19.3, 24.8), "A9": (10.9, 14.7),
        "A10": (11.0, 14.5), "A11": (20.9, 24.8), "A12": (18.2, 23.2),
    }
    reports = {}
    for name, (m, s) in table.items():
        d = math.sqrt(s * s - m * m)
        e = np.array([m + d, m - d])
        assert abs(mae(e) - m) < 0.05 and abs(rmse(e) - s) < 0.05
        reports[name] = {"mae": mae(e), "rmse": rmse(e), "r_squared": None, "n": 2}
    assert sort_models_by_metric(reports, "rmse")[:4] == ["A10", "A9", "A1", "A2"]
    assert sort_models_by_metric(reports, "mae")[:4] == ["A9", "A10", "A1", "A2"]
    ok(4, "ranking fixture hits A10,A9,A1,A2 by rmse and A9,A10,A1,A2 by mae")


def test_c05_mahalanobis_correctness():
    rng = np.random.default_rng(42)
    pts = rng.normal(size=(1000, 2)) @ np.array([[2.0, 0.3], [0.3, 0.7]])
    d_m = mahalanobis_many(pts, (0.0, 0.0), np.eye(2))
    d_e = np.hypot(pts[:, 0], pts[:, 1])
    assert np.max(np.abs(d_m - d_e)) < 1e-12

    cov_inv = np.linalg.inv(np.cov(pts, rowvar=False))
    d1 = mahalanobis_many(pts, pts.mean(axis=0), cov_inv)
    scaled = 10.0 * pts
    cov_inv_s = np.linalg.inv(np.cov(scaled, rowvar=False))
    d10 = mahalanobis_many(scaled, scaled.mean(axis=0), cov_inv_s)
    assert np.max(np.abs(d10 - d1) / np.maximum(d1, 1e-300)) < 1e-9
    ok(5, "identity-cov equals euclidean < 1e-12; 10x rescale moves distances < 1e-9 rel")


def test_c06_crown_splits_points_in_half():
    rng = np.random.default_rng(7)
    for k in range(10):
        a = rng.normal(size=101)
        b = rng.normal(size=101) + 0.4 * a
        an = analyze_pair(np.column_stack([a, b]), "A", "B", metric="mahalanobis")
        d = an.distance
        assert np.unique(d).size == 101, "tie encountered"
        assert np.sum(d < an.crown_threshold) == 50
        assert np.sum(d > an.crown_threshold) == 50
    ok(6, "crown threshold splits 101 tie-free points 50/50 in 10 random analyses")


def test_c07_zone_partition_and_swap():
    for kind in sorted(SCENARIOS):
        ps = generate(kind, 257, seed=13)
        a_name, b_name = ps.model_names
        ea, eb = pair_errors(ps, a_name, b_name)
        an = analyze_pair(np.column_stack([ea, eb]), a_name, b_name)
        assert sum(an.zone_counts.values()) == 257
        swapped = analyze_pair(np.column_stack([eb, ea]), b_name, a_name)
        assert swapped.zone_counts["a_better"] == an.zone_counts["b_better"]
        assert swapped.zone_counts["b_better"] == an.zone_counts["a_better"]
        assert swapped.zone_counts["tie"] == an.zone_counts["tie"]
    ok(7, "zone counts sum to N and swap exactly under model order swap, all scenarios")


def test_c08_kde_normalization():
    rng = np.random.default_rng(21)
    for k in range(20):
        n = int(rng.integers(50, 400))
        pts = rng.normal(size=(n, 2)) * rng.uniform(0.5, 5.0, size=2) + rng.uniform(-10, 10, size=2)
        mass = riemann_mass(kde2d(pts))
        assert 0.98 <= mass <= 1.02, f"dataset {k}: mass {mass}"
    ok(8, "KDE Riemann mass in [0.98, 1.02] on 20 random datasets")


def test_c09_hexbin_conservation_and_oracle():
    rng = np.random.default_rng(33)
    pts = rng.uniform(-100, 100, size=(10_000, 2))
    radius = 4.0
    layer = hexbin(pts, radius)
    assert hex_total(layer) == 10_000

    centers = hex_centers(layer)
    keys = [(q, r) for q, r, _ in layer.cells]
    q, r = xy_to_axial(pts[:, 0], pts[:, 1], radius)
    d2 = (centers[:, 0][None, :] - pts[:, 0][:, None]) ** 2 \
        + (centers[:, 1][None, :] - pts[:, 1][:, None]) ** 2
    nearest = np.argmin(d2, axis=1)
    for i in range(pts.shape[0]):
        assert keys[nearest[i]] == (int(q[i]), int(r[i]))
    ok(9, "hexbin conserves 10000 points and matches the nearest-center oracle")


def test_c10_asymmetric_case_geometry():
    ps = gen_asymmetric_pair(5000, correlation=0.9, shift=5.0, seed=2)
    e1, e2 = pair_errors(ps, "E1", "E2")
    corr = float(np.corrcoef(e1, e2)[0, 1])
    assert 0.85 <= corr <= 0.95
    assert float(np.mean(e2 > e1)) > 0.75
    ok(10, f"asymmetric pair: correlation {corr:.3f}, majority above y=x")


def test_c11_cli_determinism(tmp_path):
    outputs = []
    for tag in ("first", "second"):
        csv_path = tmp_path / f"{tag}.csv"
        svg_path = tmp_path / f"{tag}.svg"
        json_path = tmp_path / f"{tag}.json"
        figs = tmp_path / f"figs_{tag}"
        assert main(["synth", "--kind", "asymmetric_pair", "--n", "300",
                     "--seed", "17", "-o", str(csv_path)]) == 0
        assert main(["metrics", str(csv_path), "--plots", str(figs)]) == 0
        assert main(["compare", str(csv_path), "--a", "E1", "--b", "E2",
                     "--layers", "zones,proximity,crown,kde,hexbin",
                     "-o", str(svg_path), "--json", str(json_path)]) == 0
        outputs.append((
            csv_path.read_bytes(), svg_path.read_bytes(), json_path.read_bytes(),
            (figs / "boxplots.svg").read_bytes(),
            (figs / "pred_vs_actual_grid.svg").read_bytes(),
        ))
    assert outputs[0] == outputs[1]
    ok(11, "repeated CLI runs produce byte-identical CSV, SVG and JSON outputs")


def test_c12_linear_scaling_of_distances():
    rng = np.random.default_rng(5)
    big = rng.normal(size=(1_000_000, 2))
    small = big[:100_000]
    cov_inv = np.linalg.inv(np.cov(small, rowvar=False))

    def timed(pts):
        t0 = time.perf_counter()
        mahalanobis_many(pts, (0.0, 0.0), cov_inv)
        return time.perf_counter() - t0

    # Interleaved rounds, so a slow spell of the host hits both sizes alike; 11 give each
    # size's minimum more chances to land in a fast spell of a host whose speed varies.
    rounds = [(timed(small), timed(big)) for _ in range(11)]
    t_small = min(t for t, _ in rounds)
    t_big = min(t for _, t in rounds)
    assert t_big < 15.0 * max(t_small, 1e-9), f"{t_big:.4f}s vs {t_small:.4f}s"
    ok(12, f"distance computation at 1e6 points within 15x of 1e5 "
           f"({t_big * 1e3:.1f}ms vs {t_small * 1e3:.1f}ms)")
