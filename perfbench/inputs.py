"""Seeded input files for the benchmark workloads.

The generators live here, not in ``errscope.synth``, so that a change to the
package's own scenario code cannot change what the other workloads read.
Every input is a pure function of (workload, seed): numpy PCG64 seeded with
``[seed, stream]`` and values written with ``repr`` so they parse back to the
same float64 bits.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

ALL_LAYERS_N = 100_000
SYNTH_N = 200_000


def _truth(rng: np.random.Generator, n: int) -> np.ndarray:
    # Multiples of 2^-20 in [0, 100], as realistic targets with exact bits.
    return np.round(rng.uniform(0.0, 100.0, size=n) * 2.0 ** 20) / 2.0 ** 20


def _write_csv(path: Path, prefix: str, y: np.ndarray, preds: dict[str, np.ndarray]) -> str:
    cols = [y.tolist()] + [p.tolist() for p in preds.values()]
    lines = ["id,y_true," + ",".join(preds)]
    lines += [prefix + str(i) + "," + ",".join(map(repr, row))
              for i, row in enumerate(zip(*cols))]
    data = ("\n".join(lines) + "\n").encode("ascii")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def correlated_pair(path: Path, seed: int, n: int = ALL_LAYERS_N) -> str:
    """Bivariate Gaussian errors, correlation 0.9, sigma 10, E1 shifted by -5."""
    rng = np.random.default_rng([seed, 1])
    y = _truth(rng, n)
    z = rng.standard_normal((n, 2))
    rho = 0.9
    e1 = -5.0 + 10.0 * z[:, 0]
    e2 = 10.0 * (rho * z[:, 0] + np.sqrt(1.0 - rho * rho) * z[:, 1])
    return _write_csv(path, "e", y, {"E1": y + e1, "E2": y + e2})
