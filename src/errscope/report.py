"""Structured analysis reports combining metrics, rankings and pair data."""

from __future__ import annotations

import contextlib
import json
import math

import numpy as np

from . import __version__
from ._text import row_chunks
from .errorspace import QUADRANTS, ZONES, ErrorSpaceAnalysis
from .exceptions import DegenerateDistribution
from .ingest import PredictionSet
from .metrics import boxplot_stats, metric_report, sort_models_by_metric

# The layout of the reports, as the shipped schema describes it. Version 2 writes each
# errorspace point as one array of POINT_FIELDS.
SCHEMA_VERSION = 2
POINT_FIELDS = ("e1", "e2", "distance", "percentile", "zone", "quadrant")

# Choices the method leaves open; embedded so figures are auditable.
DECISIONS = {
    "quartile_rule": "linear interpolation at position (n-1)*p",
    "whisker_rule": "tukey 1.5*IQR",
    "median_2d": "componentwise",
    "percentile_convention": "midrank",
    "kde_bandwidth": "scott: sigma * n^(-1/6) per axis",
    "kde_evaluation": "per axis, linear binning onto K = ceil(dx / (h * sqrt(8 * 2.5e-4))) "
                      "sub-steps per grid step if K <= 16, else exact; if both axes pass 16, "
                      "the one with the smaller K is binned if K <= 104; kernel cut at 9h",
    "covariance": "mean-centered sample covariance, n - 1; ridge 1e-9 * max(var1, var2, 1) "
                  "on the diagonal when the condition number passes 1e12",
    "colormap": "warm_cool",
    "rng": "numpy PCG64",
}


def model_metrics(ps: PredictionSet) -> dict[str, dict]:
    """metric_report of each model, by name; a metric that overflows float64 is an error."""
    reports = {}
    for m, errors in zip(ps.model_names, ps.errors.T):
        with np.errstate(over="ignore"):
            reports[m] = rep = metric_report(errors, ps.y_true)
        if not (math.isfinite(rep["rmse"]) and math.isfinite(rep["r_squared"] or 0.0)):
            raise DegenerateDistribution(f"metrics of model {m!r} overflow float64")
    return reports


def build_metrics_report(ps: PredictionSet, sort_key: str = "rmse") -> dict:
    """Per-model metrics, boxplot stats and ranking as a JSON-able dict."""
    reports = model_metrics(ps)
    per_model = {m: {"metrics": rep, "boxplot": boxplot_stats(errors)}
                 for (m, rep), errors in zip(reports.items(), ps.errors.T)}
    warnings = []
    dups = ps.duplicate_ids(limit=10)
    if dups:
        warnings.append(f"duplicate instance ids: {', '.join(map(repr, dups))}")
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "errscope", "version": __version__, "decisions": DECISIONS},
        "n": ps.n,
        "warnings": warnings,
        "per_model": per_model,
        "ranking": {"key": sort_key, "order": sort_models_by_metric(reports, sort_key)},
    }


def build_pair_report(ps: PredictionSet, analysis: ErrorSpaceAnalysis) -> dict:
    """Metrics report, ranked by rmse, extended with the 2D pair comparison summary."""
    report = build_metrics_report(ps)
    report["pair"] = {
        "model_a": analysis.model_a,
        "model_b": analysis.model_b,
        "metric": analysis.metric,
        "median2d": list(analysis.median2d),
        "crown_threshold": analysis.crown_threshold,
        "zone_counts": analysis.zone_counts,
        "quadrant_counts": analysis.quadrant_counts,
        "error_correlation": analysis.correlation,
        "fraction_b_above_a": float(np.mean(analysis.e[:, 1] > analysis.e[:, 0])),
    }
    return report


# One instance under errorspace.points: its POINT_FIELDS on one line, as json.dumps(row)
# writes them; %r of a Python float is the text json writes for it.
_POINT = ",\n      [%r, %r, %r, %r, %s, %s]"


def write_pair_json(fh, report: dict, analysis: ErrorSpaceAnalysis) -> None:
    """Write the pair report plus every instance of the analysis under "errorspace" to an
    open text file, streaming the points from the arrays. The layout is to_json's, except
    that each point is one line: [e1, e2, distance, percentile, zone code, quadrant code]."""
    if not all(np.isfinite(a).all() for a in (analysis.e, analysis.distance, analysis.percentile)):
        raise ValueError("Out of range float values are not JSON compliant")
    errorspace = {
        "model_a": analysis.model_a,
        "model_b": analysis.model_b,
        "metric": analysis.metric,
        "point_fields": list(POINT_FIELDS),
        "zones": list(ZONES),
        "quadrants": list(QUADRANTS),
        "points": [],
        "summary": {
            "n": analysis.n,
            "median2d": list(analysis.median2d),
            "covariance": analysis.covariance.ravel().tolist(),
            "crown_threshold": analysis.crown_threshold,
            "zone_counts": analysis.zone_counts,
            "quadrant_counts": analysis.quadrant_counts,
        },
    }
    # json escapes every '"' inside a string, so only the key itself matches.
    head, tail = to_json({**report, "errorspace": errorspace}).split('"points": []', 1)
    # Each code is one digit, as ZONES and QUADRANTS each have fewer than ten names.
    codes = ((c + ord("0")).astype(np.uint8)[:, None] for c in (analysis.zone, analysis.quadrant))
    points = row_chunks(_POINT, *analysis.e.T, analysis.distance, analysis.percentile, *codes)
    with contextlib.closing(points):  # a failed write joins the writer's helper too
        fh.write(head + '"points": [' + next(points)[1:])  # n >= 1; no comma before the first
        fh.writelines(points)
    fh.write("\n    ]" + tail)


def to_json(payload: dict) -> str:
    """Canonical JSON serialization: stable key order, LF-terminated, finite numbers."""
    return json.dumps(payload, indent=2, sort_keys=False, allow_nan=False) + "\n"
