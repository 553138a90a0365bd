"""Per-instance errors, aggregate metrics and 1D distribution summaries.

Sign convention throughout the package: error = prediction - truth, so a
positive error is an overestimation. Quartiles use linear interpolation on
order statistics at position (n-1)*p (numpy's default), whiskers follow the
Tukey 1.5*IQR rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConstantTarget, LengthMismatch, NonFinite


@dataclass(frozen=True)
class ErrorVector:
    """Signed per-instance errors of one model, in target units."""

    model_name: str
    errors: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.errors, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise LengthMismatch("error vector must be 1D with n >= 1")
        if not np.all(np.isfinite(arr)):
            raise NonFinite(f"non-finite error in model {self.model_name!r}")
        object.__setattr__(self, "errors", arr)

    @property
    def n(self) -> int:
        return self.errors.size


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


def compute_errors(y_true, y_pred, model_name: str = "") -> ErrorVector:
    """Signed errors prediction - truth; positive means overestimation."""
    yt = np.asarray(y_true, dtype=float)
    yp = np.asarray(y_pred, dtype=float)
    if yt.shape != yp.shape:
        raise LengthMismatch(f"{yt.size} truths vs {yp.size} predictions")
    return ErrorVector(model_name=model_name, errors=yp - yt)


def mae(e: ErrorVector) -> float:
    return float(np.mean(np.abs(e.errors)))


def rmse(e: ErrorVector) -> float:
    return float(np.sqrt(np.mean(np.square(e.errors))))


def r_squared(y_true, y_pred) -> float:
    """Coefficient of determination, 1 - SSres/SStot."""
    return _r_squared(compute_errors(y_true, y_pred), y_true)


def _r_squared(e: ErrorVector, y_true) -> float:
    yt = np.asarray(y_true, dtype=float)
    if yt.shape != e.errors.shape:
        raise LengthMismatch(f"{yt.size} truths vs {e.n} errors")
    if yt.size < 2:
        raise ConstantTarget("r_squared needs at least two instances")
    ss_tot = float(np.sum(np.square(yt - yt.mean())))
    if ss_tot == 0.0:
        raise ConstantTarget("target values are constant")
    ss_res = float(np.sum(np.square(e.errors)))
    return 1.0 - ss_res / ss_tot


def boxplot_stats(e: ErrorVector) -> BoxplotStats:
    """Five-number summary with Tukey fences; fence-exceeding points listed."""
    x = e.errors
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


def metric_report(e: ErrorVector, y_true) -> MetricReport:
    """All scalar metrics of one model's errors; r_squared is None when undefined."""
    try:
        r2 = _r_squared(e, y_true)
    except ConstantTarget:
        r2 = None
    return MetricReport(mae=mae(e), rmse=rmse(e), r_squared=r2, n=e.n)
