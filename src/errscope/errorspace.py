"""2D error space for a model pair: zones, quadrants, distances, crown.

The space plots the paired errors (e1, e2) of two models on the same
instances. The diagonals y = x and y = -x split the plane into two
"hourglass" comparison zones; distance from the 2D median (Euclidean or
Mahalanobis) drives the percentile-proximity colormap and the median crown.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateDistribution, LengthMismatch, NonFinite

# Ridge kicks in when the sample covariance is singular or nearly so.
_COND_LIMIT = 1e12
_RIDGE_SCALE = 1e-9


class Zone(str, enum.Enum):
    A_BETTER = "a_better"
    B_BETTER = "b_better"
    TIE = "tie"


class Quadrant(str, enum.Enum):
    OVER_OVER = "over_over"
    OVER_UNDER = "over_under"
    UNDER_OVER = "under_over"
    UNDER_UNDER = "under_under"
    ON_AXIS = "on_axis"


ZONES = tuple(Zone)
QUADRANTS = tuple(Quadrant)


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

    def to_dict(self) -> dict:
        zones = [z.value for z in ZONES]
        quads = [q.value for q in QUADRANTS]
        # tolist() gives Python floats, which json writes as repr.
        columns = zip(*self.e.T.tolist(), self.zone.tolist(), self.quadrant.tolist(),
                      self.distance.tolist(), self.percentile.tolist())
        return {
            "model_a": self.model_a,
            "model_b": self.model_b,
            "metric": self.metric,
            "points": [
                {"e1": e1, "e2": e2, "zone": zones[z], "quadrant": quads[q],
                 "distance": d, "percentile": p}
                for e1, e2, z, q, d, p in columns
            ],
            "summary": {
                "n": self.n,
                "median2d": list(self.median2d),
                "covariance": self.covariance.ravel().tolist(),
                "crown_threshold": self.crown_threshold,
                "zone_counts": self.zone_counts,
                "quadrant_counts": self.quadrant_counts,
            },
        }


def _counts(codes: np.ndarray, names: tuple) -> dict[str, int]:
    counts = np.bincount(codes, minlength=len(names)).tolist()
    return {name.value: c for name, c in zip(names, counts)}


def classify(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zone and quadrant codes (indices into ZONES, QUADRANTS) of each row.

    Zones compare |e1| with |e2| exactly, no epsilon: points on y = x or
    y = -x tie. Quadrants follow the sign pattern; an exact zero in either
    column puts the point on an axis.
    """
    e = np.asarray(e, dtype=float).reshape(-1, 2)
    a1, a2 = np.abs(e[:, 0]), np.abs(e[:, 1])
    zone = np.select([a1 < a2, a1 > a2],
                     [ZONES.index(Zone.A_BETTER), ZONES.index(Zone.B_BETTER)],
                     ZONES.index(Zone.TIE))
    # QUADRANTS lists over_over, over_under, under_over, under_under, so the
    # code of an off-axis point is 2 * (e1 < 0) + (e2 < 0).
    under = e < 0.0
    quadrant = np.where((e == 0.0).any(axis=1), QUADRANTS.index(Quadrant.ON_AXIS),
                        2 * under[:, 0] + under[:, 1])
    return zone.astype(np.int8), quadrant.astype(np.int8)


def median2d(points) -> tuple[float, float]:
    """Componentwise median (same interpolation rule as the boxplots)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape[0] < 1:
        raise DegenerateDistribution("median2d needs at least one point")
    return (float(np.median(pts[:, 0])), float(np.median(pts[:, 1])))


def covariance2(points) -> np.ndarray:
    """Sample covariance (1/(N-1), mean-centered) of a 2D point cloud."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape[0] < 2:
        raise DegenerateDistribution("covariance needs at least two points")
    centered = pts - pts.mean(axis=0)
    return centered.T @ centered / (pts.shape[0] - 1)


def regularized_inverse(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert a 2x2 covariance, ridging the diagonal when near-singular.

    Returns (possibly ridged covariance, its inverse).
    """
    cov = np.asarray(cov, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.linalg.cond(cov)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        eps = _RIDGE_SCALE * max(cov[0, 0], cov[1, 1], 1.0)
        cov = cov + eps * np.eye(2)
    return cov, np.linalg.inv(cov)


def mahalanobis_many(points: np.ndarray, center, cov_inv: np.ndarray) -> np.ndarray:
    """Vectorized Mahalanobis distances: one inversion, O(N) evaluations."""
    d = np.asarray(points, dtype=float) - np.asarray(center, dtype=float)
    return np.sqrt(np.einsum("ij,jk,ik->i", d, np.asarray(cov_inv, dtype=float), d))


def percentile_ranks(distances) -> np.ndarray:
    """Midrank percentile of each distance: (#less + 0.5 * #tied) / N."""
    d = np.asarray(distances, dtype=float)
    if d.size < 1:
        raise DegenerateDistribution("percentile_ranks needs at least one value")
    order = np.sort(d)
    less = np.searchsorted(order, d, side="left")
    tied = np.searchsorted(order, d, side="right") - less
    return (less + 0.5 * tied) / d.size


def crown_threshold(distances) -> float:
    """Median distance: the crown splits points into equal halves."""
    d = np.asarray(distances, dtype=float)
    if d.size < 1:
        raise DegenerateDistribution("crown_threshold needs at least one value")
    return float(np.median(d))


def analyze_pair(e, model_a: str, model_b: str,
                 metric: str = "mahalanobis") -> ErrorSpaceAnalysis:
    """Full 2D error-space analysis of an (n, 2) array of paired errors.

    Column 0 holds the errors of model_a (x), column 1 those of model_b (y).
    Distances are measured from the componentwise median; the Mahalanobis
    covariance is the mean-centered sample covariance of the whole cloud.
    """
    if metric not in ("euclidean", "mahalanobis"):
        raise ValueError(f"metric must be 'euclidean' or 'mahalanobis', got {metric!r}")
    # A C-ordered copy: covariance2's column means depend on the layout in
    # their last bit, and the reports pin those bits.
    pts = np.array(e, dtype=float, order="C")
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
        raise LengthMismatch(f"paired errors must have shape (n >= 1, 2), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise NonFinite("paired errors must be finite")
    n = pts.shape[0]
    if metric == "mahalanobis" and n < 3:
        raise DegenerateDistribution("mahalanobis analysis needs at least 3 points")

    center = median2d(pts)
    cov, cov_inv = np.eye(2), np.eye(2)
    if n >= 2:
        with np.errstate(over="ignore", invalid="ignore"):
            cov = covariance2(pts)
        if not np.isfinite(cov).all():
            raise DegenerateDistribution("error covariance overflows float64")
        cov, cov_inv = regularized_inverse(cov)

    if metric == "euclidean":
        dist = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            dist = mahalanobis_many(pts, center, cov_inv)
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
        crown_threshold=crown_threshold(dist),
    )
