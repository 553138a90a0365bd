"""Aggregate metrics and 1D distribution summaries of per-instance errors.

Sign convention throughout the package: error = prediction - truth, so a
positive error is an overestimation. Quartiles use linear interpolation on
order statistics at position (n-1)*p (numpy's default), whiskers follow the
Tukey 1.5*IQR rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import LengthMismatch


@dataclass(frozen=True)
class MetricReport:
    mae: float
    rmse: float
    r_squared: float | None
    n: int


@dataclass(frozen=True)
class BoxplotStats:
    min_whisker: float
    q1: float
    median: float
    q3: float
    max_whisker: float
    iqr: float
    outliers: tuple[float, ...]


def mae(e) -> float:
    return float(np.mean(np.abs(e)))


def rmse(e) -> float:
    return float(np.sqrt(np.mean(np.square(e))))


def _r_squared(e: np.ndarray, y_true: np.ndarray) -> float | None:
    """Coefficient of determination 1 - SSres/SStot of signed errors e; None
    when the target has fewer than two values or is constant."""
    if y_true.shape != e.shape:
        raise LengthMismatch(f"{y_true.size} truths vs {e.size} errors")
    if y_true.size < 2:
        return None
    ss_tot = float(np.sum(np.square(y_true - y_true.mean())))
    if ss_tot == 0.0:
        return None
    ss_res = float(np.sum(np.square(e)))
    return 1.0 - ss_res / ss_tot


def boxplot_stats(e) -> BoxplotStats:
    """Five-number summary with Tukey fences; fence-exceeding points listed."""
    x = np.asarray(e, dtype=float)
    q1, med, q3 = (float(v) for v in np.percentile(x, [25.0, 50.0, 75.0]))
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = x[(x >= lo_fence) & (x <= hi_fence)]
    # Fences always contain the quartiles, so inside is never empty. The
    # interpolated quartile may exceed every in-fence point; clamp so the
    # whiskers never cross the box.
    min_whisker = min(float(inside.min()), q1)
    max_whisker = max(float(inside.max()), q3)
    outliers = tuple(float(v) for v in np.sort(x[(x < lo_fence) | (x > hi_fence)]))
    return BoxplotStats(min_whisker, q1, med, q3, max_whisker, iqr, outliers)


def sort_models_by_metric(reports: dict[str, MetricReport], key: str = "rmse") -> list[str]:
    """Model names ascending by mae or rmse; ties broken lexicographically."""
    if key not in ("mae", "rmse"):
        raise ValueError(f"sort key must be 'mae' or 'rmse', got {key!r}")
    if not reports:
        raise ValueError("no metric reports to sort")
    return sorted(reports, key=lambda m: (getattr(reports[m], key), m))


def metric_report(e: np.ndarray, y_true: np.ndarray) -> MetricReport:
    """All scalar metrics of one model's (n,) errors; r_squared is None when undefined."""
    return MetricReport(mae=mae(e), rmse=rmse(e), r_squared=_r_squared(e, y_true), n=e.size)
