"""The two CLI workloads: their inputs, argv, output files and checks.

Paths are relative to the workload's work directory, which is the current
directory while the CLI runs, so outputs do not depend on where the
checkout lives. Why each workload exists is in README.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import inputs

SCHEMA = Path(__file__).resolve().parents[1] / "src" / "errscope" / "schemas" / "analysis_report.schema.json"
ALL_LAYERS = "zones,proximity,crown,kde,hexbin"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (workdir, seed) -> (argv, {input name: sha256})
    prepare: Callable[[Path, int], tuple[list[str], dict]]
    # files whose bytes make up output_mb
    outputs: tuple[str, ...]
    # workdir -> problems
    check: Callable[[Path], list[str]]


def _read(workdir: Path, rel: str) -> bytes:
    return (workdir / rel).read_bytes()


def _schema() -> dict:
    return json.loads(SCHEMA.read_text(encoding="utf-8"))


def _prepare_all_layers(workdir, seed):
    sha = inputs.correlated_pair(workdir / "input.csv", seed)
    argv = ["compare", "input.csv", "--a", "E1", "--b", "E2", "--metric", "mahalanobis",
            "--layers", ALL_LAYERS, "-o", "out/error_space.svg", "--json", "out/report.json"]
    return argv, {"input.csv": sha}


def _check_all_layers(workdir):
    names, y, preds = checks.load_columns(workdir / "input.csv")
    want = checks.pair_counts(preds[:, 0] - y, preds[:, 1] - y)
    report = checks.strict_json(_read(workdir, "out/report.json").decode("utf-8"))
    problems = checks.report_problems(report, _schema(), names, y, preds)
    if not problems:
        problems += checks.pair_problems(report["pair"], want)
        if len(report["errorspace"]["points"]) != y.size:
            problems.append("errorspace.points does not list every instance")
    problems += checks.summary_problems(_read(workdir, "out/stdout.txt").decode(), want)
    return problems + checks.svg_problems(_read(workdir, "out/error_space.svg"), y.size, crowns=1)


def _prepare_synth(workdir, seed):
    argv = ["synth", "--kind", "under_vs_over", "--n", str(inputs.SYNTH_N),
            "--seed", str(seed), "-o", "out/synth.csv"]
    return argv, {}


def _check_synth(workdir):
    data = _read(workdir, "out/synth.csv")
    lines = data.split(b"\n", inputs.SYNTH_N + 1)
    if lines[0] != b"id,y_true,C1,C2" or len(lines) != inputs.SYNTH_N + 2 or lines[-1] != b"":
        return ["synth.csv: wrong header or row count"]
    ids = [ln.split(b",", 1)[0] for ln in lines[1:-1]]
    if ids != [b"c%d" % i for i in range(inputs.SYNTH_N)]:
        return ["synth.csv: ids are not c0..c{n-1}"]
    names, y, preds = checks.load_columns(workdir / "out/synth.csv")
    problems = []
    if not ((0.0 <= y) & (y <= 100.0)).all():
        problems.append("y_true outside [0, 100]")
    if not ((preds[:, 0] <= y) & (preds[:, 1] >= y)).all():
        problems.append("C1 must underestimate and C2 overestimate everywhere")
    stdout = _read(workdir, "out/stdout.txt").decode()
    for m, w in checks.model_metrics(names, y, preds).items():
        row = f"{m:<8} {w['mae']:>10.4f} {w['rmse']:>10.4f}"
        if row not in stdout.splitlines():
            problems.append(f"summary lacks {row!r}")
    return problems


WORKLOADS = {w.name: w for w in [
    Workload("compare_all_layers",
             "every module works: Mahalanobis, all five layers and the JSON report at n=100k",
             _prepare_all_layers, ("out/error_space.svg", "out/report.json"), _check_all_layers),
    Workload("synth_write",
             "synth under_vs_over at n=200k: arrays to PredictionSet to CSV, the write path",
             _prepare_synth, ("out/synth.csv",), _check_synth),
]}
