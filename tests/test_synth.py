import math

import numpy as np
import pytest
from oracles import same_prediction_set

from errscope import analyze_pair, generate, mae, parse_predictions, rmse
from errscope.synth import (
    SCENARIOS,
    gen_asymmetric_pair,
    gen_equal_metrics_divergent,
    gen_outlier_vs_moderate,
    gen_under_vs_over,
)


def errors_of(ps, name):
    return ps.errors[:, ps.index(name)]


@pytest.mark.parametrize("kind", sorted(SCENARIOS))
def test_generators_deterministic(kind):
    a = generate(kind, 200, seed=42)
    b = generate(kind, 200, seed=42)
    assert same_prediction_set(a, b)
    c = generate(kind, 200, seed=43)
    assert not same_prediction_set(c, a)


@pytest.mark.parametrize("kind", sorted(SCENARIOS))
def test_generated_sets_pass_ingest(kind):
    ps = generate(kind, 50, seed=1)
    assert same_prediction_set(parse_predictions(ps.to_csv()), ps)


def test_outlier_scenario_profile():
    ps = gen_outlier_vs_moderate(1000, seed=11)
    e1, e2 = errors_of(ps, "B1"), errors_of(ps, "B2")
    assert np.count_nonzero(e1) == 1
    assert e1.sum() == 500.0
    assert np.all(np.abs(e2) <= 3.0 * 9.9)


def test_outlier_scenario_metric_flip_over_seeds():
    flips = 0
    for seed in range(100):
        ps = gen_outlier_vs_moderate(1000, seed=seed)
        ea, eb = errors_of(ps, "B1"), errors_of(ps, "B2")
        if mae(ea) < mae(eb) and rmse(ea) > rmse(eb):
            flips += 1
    assert flips >= 95


def test_under_vs_over_signs_and_magnitudes():
    ps = gen_under_vs_over(5000, bias=9.0, sigma=3.0, seed=5)
    e1, e2 = errors_of(ps, "C1"), errors_of(ps, "C2")
    assert np.all(e1 <= 0.0)
    assert np.all(e2 >= 0.0)
    ea, eb = errors_of(ps, "C1"), errors_of(ps, "C2")
    assert abs(mae(ea) - mae(eb)) < 0.5
    # Monte-Carlo estimate of E|bias + noise| as the MAE oracle.
    rng = np.random.default_rng(12345)
    expected = np.mean(np.abs(9.0 + rng.normal(0.0, 3.0, size=200_000)))
    assert mae(ea) == pytest.approx(expected, abs=0.2)


def test_equal_metrics_divergent():
    ps = gen_equal_metrics_divergent(4000, seed=8)
    ea, eb = errors_of(ps, "D1"), errors_of(ps, "D2")
    assert abs(mae(ea) - mae(eb)) < 0.1
    assert rmse(eb) > rmse(ea)
    delta = ea - eb
    assert np.std(delta) > 3.2 / 2.0
    assert np.all(eb <= 0.0)


def test_asymmetric_pair_geometry():
    ps = gen_asymmetric_pair(5000, correlation=0.9, shift=5.0, seed=3)
    e1, e2 = errors_of(ps, "E1"), errors_of(ps, "E2")
    corr = float(np.corrcoef(e1, e2)[0, 1])
    assert 0.85 <= corr <= 0.95
    assert np.mean(e2 > e1) > 0.75
    assert np.mean(e1) < 0.0


def test_symmetric_zero_shift_balances_zones():
    n = 4000
    ps = gen_asymmetric_pair(n, correlation=0.0, shift=0.0, seed=9)
    ea, eb = errors_of(ps, "E1"), errors_of(ps, "E2")
    an = analyze_pair(np.column_stack([ea, eb]), "E1", "E2")
    assert abs(an.zone_counts["a_better"] - an.zone_counts["b_better"]) <= 3 * math.sqrt(n)


def test_generate_rejects_unknown_kind_and_params():
    with pytest.raises(ValueError, match="unknown scenario"):
        generate("nope", 10)
    for name in ("wat", "n", "seed"):
        with pytest.raises(ValueError, match="unknown parameter"):
            generate("under_vs_over", 10, params={name: 1.0})
