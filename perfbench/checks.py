"""Output checks: strict JSON, the shipped report schema, numpy recomputation.

Each check returns a list of problems; an empty list means the output passed.
Expected values are recomputed here with numpy from the input file, never
through errscope, so a defect in the package cannot hide itself.
"""

from __future__ import annotations

import itertools
import json
import re

import jsonschema
import numpy as np

RTOL = 1e-9


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text: str):
    """Parse RFC 8259 JSON; NaN, Infinity and -Infinity are errors."""
    return json.loads(text, parse_constant=_reject_constant)


def schema_errors(value, schema: dict, limit: int = 5) -> list[str]:
    """The first ``limit`` violations of the report schema, as jsonschema finds them."""
    validator = jsonschema.validators.validator_for(schema)(schema)
    errors = itertools.islice(validator.iter_errors(value), limit)
    return [f"{e.json_path}: {e.message}" for e in errors]


def load_columns(csv_path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """(model names, y_true, predictions (n, m)) read with numpy."""
    with open(csv_path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1,
                      usecols=range(1, len(header)), ndmin=2)
    return header[2:], data[:, 0], data[:, 1:]


def pair_counts(e1: np.ndarray, e2: np.ndarray) -> dict:
    """Zone and quadrant counts and the share of points with e2 > e1."""
    a1, a2 = np.abs(e1), np.abs(e2)
    axis = (e1 == 0.0) | (e2 == 0.0)
    zones = {"a_better": a1 < a2, "b_better": a1 > a2, "tie": a1 == a2}
    quads = {
        "over_over": ~axis & (e1 > 0) & (e2 > 0),
        "over_under": ~axis & (e1 > 0) & (e2 < 0),
        "under_over": ~axis & (e1 < 0) & (e2 > 0),
        "under_under": ~axis & (e1 < 0) & (e2 < 0),
        "on_axis": axis,
    }
    return {
        "zone_counts": {k: int(v.sum()) for k, v in zones.items()},
        "quadrant_counts": {k: int(v.sum()) for k, v in quads.items()},
        "fraction_b_above_a": float(np.mean(e2 > e1)),
    }


def model_metrics(names, y: np.ndarray, preds: np.ndarray) -> dict:
    errors = preds - y[:, None]
    mae = np.mean(np.abs(errors), axis=0)
    rmse = np.sqrt(np.mean(np.square(errors), axis=0))
    return {m: {"mae": float(mae[j]), "rmse": float(rmse[j])} for j, m in enumerate(names)}


def _close(got, want: float) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= RTOL * abs(want)


def report_problems(report: dict, schema: dict, names, y, preds) -> list[str]:
    """Schema, per-model metrics and rmse ranking of a metrics/pair report."""
    problems = schema_errors(report, schema)
    if problems:
        return problems
    if report["n"] != y.size:
        problems.append(f"report n={report['n']}, input has {y.size} rows")
    want = model_metrics(names, y, preds)
    for m, w in want.items():
        got = report["per_model"].get(m, {}).get("metrics", {})
        for key in ("mae", "rmse"):
            if not _close(got.get(key), w[key]):
                problems.append(f"{m}.{key}={got.get(key)!r}, numpy gives {w[key]!r}")
    order = sorted(want, key=lambda m: (want[m]["rmse"], m))
    if report["ranking"] != {"key": "rmse", "order": order}:
        problems.append(f"ranking {report['ranking']} != rmse order {order}")
    return problems


def pair_problems(got: dict, want: dict) -> list[str]:
    problems = [f"{k}: {got.get(k)} != {want[k]}"
                for k in ("zone_counts", "quadrant_counts") if got.get(k) != want[k]]
    frac = got.get("fraction_b_above_a")
    if not isinstance(frac, float) or abs(frac - want["fraction_b_above_a"]) > 1e-12:
        problems.append(f"fraction_b_above_a {frac} != {want['fraction_b_above_a']}")
    return problems


def summary_problems(stdout: str, want: dict) -> list[str]:
    """Zone/quadrant table and fraction line of the compare terminal summary."""
    got = {k: int(v) for k, v in re.findall(r"^([a-z_]+) +(\d+)$", stdout, re.M)}
    problems = [f"summary {k}: {got.get(k)} != {v}"
                for table in ("zone_counts", "quadrant_counts")
                for k, v in want[table].items() if got.get(k) != v]
    frac = f"fraction with e_b > e_a: {want['fraction_b_above_a']:.4f}"
    if frac not in stdout.splitlines():
        problems.append(f"summary lacks {frac!r}")
    return problems


def svg_count(svg: bytes, cls: str) -> int:
    return svg.count(f'class="{cls}"'.encode())


def svg_problems(svg: bytes, points: int, crowns: int = 0) -> list[str]:
    problems = []
    if not (svg.startswith(b'<?xml version="1.0" encoding="UTF-8"?>\n<svg ')
            and svg.endswith(b"</svg>\n")):
        problems.append("not a standalone SVG document")
    if svg_count(svg, "pt") != points:
        problems.append(f'{svg_count(svg, "pt")} class="pt" circles, expected {points}')
    if svg_count(svg, "crown") != crowns:
        problems.append(f"{svg_count(svg, 'crown')} crowns, expected {crowns}")
    return problems
