"""Seeded generators for prediction sets with known pathological geometry.

Each scenario produces a PredictionSet whose two models alias one aggregate
metric while differing in a way the 2D error space exposes. All draws come
from numpy's PCG64 generator seeded explicitly, so the same (kind, n, seed,
params) always yields a bit-identical result.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from .ingest import PredictionSet

Y_RANGE = (0.0, 100.0)


def _ground_truth(rng: np.random.Generator, n: int) -> np.ndarray:
    # Snapped to multiples of 2^-20 so adding a modest error to y and
    # subtracting y again reproduces the error bit-exactly.
    y = rng.uniform(Y_RANGE[0], Y_RANGE[1], size=n)
    return np.round(y * 2.0 ** 20) / 2.0 ** 20


def _build(ids_prefix: str, y: np.ndarray, models: dict[str, np.ndarray]) -> PredictionSet:
    return PredictionSet(
        instance_ids=tuple(f"{ids_prefix}{i}" for i in range(y.size)),
        y_true=y,
        model_names=tuple(models),
        predictions=np.column_stack([y + err for err in models.values()]),
    )


def gen_outlier_vs_moderate(n: int, outlier_magnitude: float = 500.0,
                            moderate_sigma: float = 9.9, seed: int = 0) -> PredictionSet:
    """One extreme miss vs. uniformly moderate errors.

    B1 is exact everywhere except a single error of +outlier_magnitude, so
    its MAE is tiny while its RMSE is dominated by the outlier. B2 makes
    Gaussian errors with no draw beyond 3 sigma, the opposite profile.
    """
    if n < 2:
        raise ValueError("outlier scenario needs n >= 2")
    rng = np.random.default_rng(seed)
    y = _ground_truth(rng, n)
    e1 = np.zeros(n)
    e1[int(rng.integers(n))] = outlier_magnitude
    e2 = rng.normal(0.0, moderate_sigma, size=n)
    while True:
        extreme = np.abs(e2) > 3.0 * moderate_sigma
        if not extreme.any():
            break
        e2[extreme] = rng.normal(0.0, moderate_sigma, size=int(extreme.sum()))
    # Calibrate the sample RMS to moderate_sigma (truncation shrinks it and
    # sampling noise would otherwise dominate seed-to-seed RMSE), keeping
    # every error inside the 3-sigma fence.
    e2 *= moderate_sigma / np.sqrt(np.mean(np.square(e2)))
    np.clip(e2, -3.0 * moderate_sigma, 3.0 * moderate_sigma, out=e2)
    return _build("b", y, {"B1": e1, "B2": e2})


def gen_under_vs_over(n: int, bias: float = 9.0, sigma: float = 3.0,
                      seed: int = 0) -> PredictionSet:
    """Systematic underestimator vs. mirror-image overestimator.

    Both error magnitude distributions are identical, so MAE and RMSE
    nearly coincide while every sign differs.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    y = _ground_truth(rng, n)
    e1 = -np.abs(bias + rng.normal(0.0, sigma, size=n))
    e2 = np.abs(bias + rng.normal(0.0, sigma, size=n))
    return _build("c", y, {"C1": e1, "C2": e2})


def gen_equal_metrics_divergent(n: int, level: float = 3.2, jitter: float = 0.25,
                                seed: int = 0) -> PredictionSet:
    """Near-constant underestimation vs. dispersed underestimation.

    D2's error magnitudes are rescaled so its sample MAE matches D1's level
    exactly; its dispersion still pushes RMSE higher, and the per-instance
    difference between the two models' errors is widely spread.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = np.random.default_rng(seed)
    y = _ground_truth(rng, n)
    e1 = -level + rng.normal(0.0, jitter, size=n)
    raw = np.abs(rng.normal(0.0, level * math.sqrt(math.pi / 2.0), size=n))
    e2 = -raw * (level / raw.mean())
    return _build("d", y, {"D1": e1, "D2": e2})


def gen_asymmetric_pair(n: int, correlation: float = 0.9, shift: float = 5.0,
                        sigma: float = 10.0, seed: int = 0) -> PredictionSet:
    """Correlated error pair with one conservative model.

    Errors are bivariate Gaussian with the given correlation; E1 is biased
    negative by `shift` while E2 is centered, so most points sit above the
    identity diagonal in the 2D error space.
    """
    if n < 3:
        raise ValueError("asymmetric scenario needs n >= 3")
    if not 0.0 <= correlation < 1.0:
        raise ValueError("correlation must be in [0, 1)")
    rng = np.random.default_rng(seed)
    y = _ground_truth(rng, n)
    cov = sigma ** 2 * np.array([[1.0, correlation], [correlation, 1.0]])
    errs = rng.multivariate_normal([-shift, 0.0], cov, size=n)
    return _build("e", y, {"E1": errs[:, 0], "E2": errs[:, 1]})


def gen_correlated_pair(n: int, correlation: float = 0.9, sigma: float = 10.0,
                        seed: int = 0) -> PredictionSet:
    """Symmetric correlated pair: asymmetric scenario with zero shift."""
    return gen_asymmetric_pair(n, correlation=correlation, shift=0.0,
                               sigma=sigma, seed=seed)


SCENARIOS = {
    "outlier_vs_moderate": gen_outlier_vs_moderate,
    "under_vs_over": gen_under_vs_over,
    "equal_metrics_divergent": gen_equal_metrics_divergent,
    "asymmetric_pair": gen_asymmetric_pair,
    "correlated_pair": gen_correlated_pair,
}


def generate(kind: str, n: int, seed: int = 0, params: dict[str, float] | None = None
             ) -> PredictionSet:
    """Run the generator of a scenario kind; params are its keyword
    arguments other than n and seed."""
    if kind not in SCENARIOS:
        raise ValueError(f"unknown scenario kind {kind!r}; "
                         f"known: {', '.join(sorted(SCENARIOS))}")
    fn = SCENARIOS[kind]
    params = params or {}
    unknown = set(params) - (set(inspect.signature(fn).parameters) - {"n", "seed"})
    if unknown:
        raise ValueError(f"unknown parameter(s) for {kind!r}: {', '.join(sorted(unknown))}")
    return fn(n, seed=seed, **params)
