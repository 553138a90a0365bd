"""Structured analysis reports combining metrics, rankings and pair data."""

from __future__ import annotations

import json
import math
from dataclasses import asdict

import numpy as np

from . import __version__
from .errorspace import ErrorSpaceAnalysis
from .exceptions import DegenerateDistribution
from .ingest import PredictionSet
from .metrics import boxplot_stats, metric_report, sort_models_by_metric

# Choices the method leaves open; embedded so figures are auditable.
DECISIONS = {
    "quartile_rule": "linear interpolation at position (n-1)*p",
    "whisker_rule": "tukey 1.5*IQR",
    "median_2d": "componentwise",
    "percentile_convention": "midrank",
    "kde_bandwidth": "scott: sigma * n^(-1/6) per axis",
    "colormap": "warm_cool",
    "rng": "numpy PCG64",
}


def build_metrics_report(ps: PredictionSet, sort_key: str = "rmse") -> dict:
    """Per-model metrics, boxplot stats and ranking as a JSON-able dict."""
    reports, per_model = {}, {}
    for m, errors in zip(ps.model_names, ps.errors.T):
        with np.errstate(over="ignore"):
            reports[m] = rep = metric_report(errors, ps.y_true)
        if not (math.isfinite(rep.rmse) and math.isfinite(rep.r_squared or 0.0)):
            raise DegenerateDistribution(f"metrics of model {m!r} overflow float64")
        per_model[m] = {
            "metrics": asdict(rep),
            "boxplot": asdict(boxplot_stats(errors)),
        }
    warnings = []
    dups = ps.duplicate_ids()
    if dups:
        warnings.append(f"duplicate instance ids: {', '.join(dups[:10])}")
    return {
        "tool": {"name": "errscope", "version": __version__, "decisions": DECISIONS},
        "n": ps.n,
        "warnings": warnings,
        "per_model": per_model,
        "ranking": {"key": sort_key, "order": sort_models_by_metric(reports, sort_key)},
    }


def build_pair_report(ps: PredictionSet, analysis: ErrorSpaceAnalysis) -> dict:
    """Metrics report, ranked by rmse, extended with the 2D pair comparison summary."""
    report = build_metrics_report(ps)
    e = analysis.e
    corr = math.nan
    if analysis.n >= 2:
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = float(np.corrcoef(e[:, 0], e[:, 1])[0, 1])
    report["pair"] = {
        "model_a": analysis.model_a,
        "model_b": analysis.model_b,
        "metric": analysis.metric,
        "median2d": list(analysis.median2d),
        "crown_threshold": analysis.crown_threshold,
        "zone_counts": analysis.zone_counts,
        "quadrant_counts": analysis.quadrant_counts,
        # undefined for a single point or a zero-variance axis
        "error_correlation": corr if math.isfinite(corr) else None,
        "fraction_b_above_a": float(np.mean(e[:, 1] > e[:, 0])),
    }
    return report


def to_json(payload: dict) -> str:
    """Canonical JSON serialization: stable key order, LF-terminated, finite numbers."""
    return json.dumps(payload, indent=2, sort_keys=False, allow_nan=False) + "\n"
