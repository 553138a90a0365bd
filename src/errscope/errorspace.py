"""2D error space for a model pair: zones, quadrants, distances, crown.

The space plots the paired errors (e1, e2) of two models on the same
instances. The diagonals y = x and y = -x split the plane into two
"hourglass" comparison zones; distance from the 2D median (Euclidean or
Mahalanobis) drives the percentile-proximity colormap and the median crown.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateDistribution, LengthMismatch, NonFinite

METRICS = ("euclidean", "mahalanobis")

# Ridge kicks in when the sample covariance is singular or nearly so.
_COND_LIMIT = 1e12
_RIDGE_SCALE = 1e-9

# Names of the zones and quadrants; the int8 codes of an analysis index them.
ZONES = ("a_better", "b_better", "tie")
QUADRANTS = ("over_over", "over_under", "under_over", "under_under", "on_axis")


@dataclass(frozen=True, eq=False)
class ErrorSpaceAnalysis:
    """Per-instance arrays of a model pair's error space, row i = instance i.

    zone and quadrant hold int8 codes indexing ZONES and QUADRANTS.
    """

    model_a: str
    model_b: str
    e: np.ndarray  # (n, 2): columns are the errors of model_a and model_b
    zone: np.ndarray
    quadrant: np.ndarray
    distance: np.ndarray
    percentile: np.ndarray
    median2d: tuple[float, float]
    covariance: np.ndarray
    metric: str
    crown_threshold: float

    @property
    def n(self) -> int:
        return self.e.shape[0]

    @property
    def zone_counts(self) -> dict[str, int]:
        return _counts(self.zone, ZONES)

    @property
    def quadrant_counts(self) -> dict[str, int]:
        return _counts(self.quadrant, QUADRANTS)


def _counts(codes: np.ndarray, names: tuple) -> dict[str, int]:
    return dict(zip(names, np.bincount(codes, minlength=len(names)).tolist()))


def classify(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The zone and quadrant codes (indices into ZONES, QUADRANTS) of each row.

    Zones compare |e1| with |e2| exactly, no epsilon: points on y = x or
    y = -x tie. Quadrants follow the sign pattern; an exact zero in either
    column puts the point on an axis.
    """
    e = np.asarray(e, dtype=float).reshape(-1, 2)
    a1, a2 = np.abs(e[:, 0]), np.abs(e[:, 1])
    # ZONES lists a_better, b_better, tie.
    zone = np.select([a1 < a2, a1 > a2], [0, 1], 2)
    # QUADRANTS lists over_over, over_under, under_over, under_under, on_axis,
    # so the code of an off-axis point is 2 * (e1 < 0) + (e2 < 0).
    under = e < 0.0
    quadrant = np.where((e == 0.0).any(axis=1), 4, 2 * under[:, 0] + under[:, 1])
    return zone.astype(np.int8), quadrant.astype(np.int8)


def mahalanobis_many(points: np.ndarray, center, cov_inv: np.ndarray) -> np.ndarray:
    """Vectorized Mahalanobis distances: one inversion, O(N) evaluations."""
    d = np.asarray(points, dtype=float) - np.asarray(center, dtype=float)
    return np.sqrt(np.einsum("ij,jk,ik->i", d, np.asarray(cov_inv, dtype=float), d))


def percentile_ranks(distances) -> np.ndarray:
    """Midrank percentile of each distance: (#less + 0.5 * #tied) / N."""
    d = np.asarray(distances, dtype=float)
    if d.size < 1:
        raise DegenerateDistribution("percentile_ranks needs at least one value")
    # Per distinct value, #tied is its count and #less the counts of the values below it.
    _, inverse, counts = np.unique(d, return_inverse=True, return_counts=True)
    starts = np.cumsum(counts) - counts
    return ((starts + 0.5 * counts) / d.size)[inverse]


def analyze_pair(e, model_a: str, model_b: str,
                 metric: str = "mahalanobis") -> ErrorSpaceAnalysis:
    """Full 2D error-space analysis of an (n, 2) array of paired errors.

    Column 0 holds the errors of model_a (x), column 1 those of model_b (y).
    Distances are measured from the componentwise median; the Mahalanobis
    covariance is the mean-centered sample covariance of the whole cloud.
    """
    if metric not in METRICS:
        raise ValueError(f"metric must be {' or '.join(map(repr, METRICS))}, got {metric!r}")
    # A C-ordered copy: the covariance's column means depend on the layout in
    # their last bit, and the reports pin those bits.
    pts = np.array(e, dtype=float, order="C")
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
        raise LengthMismatch(f"paired errors must have shape (n >= 1, 2), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise NonFinite("paired errors must be finite")
    n = pts.shape[0]
    if metric == "mahalanobis" and n < 3:
        raise DegenerateDistribution("mahalanobis analysis needs at least 3 points")

    # Componentwise median, the boxplots' rule; the mean of the two middle
    # values of an even count can overflow.
    with np.errstate(over="ignore"):
        center = (float(np.median(pts[:, 0])), float(np.median(pts[:, 1])))
    if not np.isfinite(center).all():
        raise DegenerateDistribution("error median overflows float64")
    cov = np.eye(2)
    if n >= 2:
        with np.errstate(over="ignore", invalid="ignore"):
            centered = pts - pts.mean(axis=0)
            cov = centered.T @ centered / (n - 1)
        if not np.isfinite(cov).all():
            raise DegenerateDistribution("error covariance overflows float64")
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = np.linalg.cond(cov)
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            cov = cov + _RIDGE_SCALE * max(cov[0, 0], cov[1, 1], 1.0) * np.eye(2)

    if metric == "euclidean":
        dist = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            dist = mahalanobis_many(pts, center, np.linalg.inv(cov))
        if not np.isfinite(dist).all():
            raise DegenerateDistribution("Mahalanobis distances overflow float64: the error "
                                         "covariance is too small to invert")

    zone, quadrant = classify(pts)
    return ErrorSpaceAnalysis(
        model_a=model_a,
        model_b=model_b,
        e=pts,
        zone=zone,
        quadrant=quadrant,
        distance=dist,
        percentile=percentile_ranks(dist),
        median2d=center,
        covariance=cov,
        metric=metric,
        crown_threshold=float(np.median(dist)),
    )
