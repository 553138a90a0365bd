"""Structured analysis reports combining metrics, rankings and pair data."""

from __future__ import annotations

import json
import math

import numpy as np

from . import __version__
from ._text import Picks, row_chunks
from .errorspace import QUADRANTS, ZONES, ErrorSpaceAnalysis
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
    dups = ps.duplicate_ids()
    if dups:
        warnings.append(f"duplicate instance ids: {', '.join(map(repr, dups[:10]))}")
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


# One instance under errorspace.points, laid out as by json.dumps(indent=2);
# %r of a Python float is the text json writes for it.
_POINT = (',\n      {\n        "e1": %r,\n        "e2": %r,\n        %s,\n'
          '        "distance": %r,\n        "percentile": %r\n      }')
# The "zone" and "quadrant" lines of a point, at index zone * len(QUADRANTS) + quadrant.
_ZONE_QUADRANT = [f'"zone": "{z}",\n        "quadrant": "{q}"' for z in ZONES for q in QUADRANTS]


def write_pair_json(fh, report: dict, analysis: ErrorSpaceAnalysis) -> None:
    """Write the pair report plus every instance of the analysis under "errorspace" to an
    open text file, streaming the points from the arrays; the bytes are those of to_json."""
    if not all(np.isfinite(a).all() for a in (analysis.e, analysis.distance, analysis.percentile)):
        raise ValueError("Out of range float values are not JSON compliant")
    errorspace = {
        "model_a": analysis.model_a,
        "model_b": analysis.model_b,
        "metric": analysis.metric,
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
    zone_quadrant = Picks(_ZONE_QUADRANT, analysis.zone * len(QUADRANTS) + analysis.quadrant)
    points = row_chunks(_POINT, *analysis.e.T, zone_quadrant, analysis.distance,
                        analysis.percentile)
    fh.write(head + '"points": [' + next(points)[1:])  # n >= 1; no comma before the first
    fh.writelines(points)
    fh.write("\n    ]" + tail)


def to_json(payload: dict) -> str:
    """Canonical JSON serialization: stable key order, LF-terminated, finite numbers."""
    return json.dumps(payload, indent=2, sort_keys=False, allow_nan=False) + "\n"
