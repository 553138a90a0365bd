"""errscope benchmark: two CLI workloads run through ``errscope.cli.main``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload compare_all_layers --seed 1 --seconds 45 --trace 0

One caller runs a closed loop in this process: each invocation starts after
the previous one returns. ``--trace 0`` reports the end-to-end metrics with
tracing off; ``--trace 1`` is a separate run that wraps the package's public
functions in spans and reports per-layer metrics. Every invocation's outputs
are checked; the last line of stdout is the JSON result. Full records (the
environment, input and output sha256, samples, spans) are written to
``.perfbench/results/``. README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pinned before numpy loads: the KDE's matmul uses OpenBLAS, and the host
# this was sized on has two cores.
BLAS_THREADS = "2"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if not (SRC / "errscope" / "__init__.py").is_file():
    sys.exit(f"no errscope package under {SRC}: run from the root of an errscope checkout")
sys.path.insert(0, str(SRC))

import numpy as np

import errscope.cli
import spans
from workloads import WORKLOADS, Workload

MIN_SAMPLES = 3
# After each timed invocation, fresh-interpreter imports run for this share
# of its wall time (at least one), so setup_s samples the same host phases.
SETUP_SHARE = 0.1
MB = 2 ** 20
IMPORT_PROBE = ("import time; t = time.perf_counter(); import errscope.cli; "
                "print(time.perf_counter() - t)")
CHILD_MAIN = "import sys; from errscope.cli import main; sys.exit(main(sys.argv[1:]))"
PER_LAYER = {
    "ingest.parse_s": "s", "ingest.parse_peak_mb": "MB", "ingest.cells": "count",
    "ingest.to_csv_s": "s",
    "metrics.s": "s", "metrics.compute_errors_calls": "count",
    "errorspace.analyze_s": "s", "errorspace.analyze_peak_mb": "MB",
    "errorspace.coords_calls": "count", "errorspace.coords_s": "s",
    "density.kde_s": "s", "density.kde_peak_mb": "MB", "density.hexbin_s": "s",
    "density.hex_cells": "count",
    "render.build_s": "s", "render.build_peak_mb": "MB", "render.elements": "count",
    "render.save_s": "s", "render.svg_bytes": "bytes",
    "report.build_s": "s", "report.build_calls": "count", "report.to_dict_s": "s",
    "report.serialize_s": "s", "report.json_bytes": "bytes",
    "synth.generate_s": "s",
    "cli.self_s": "s", "cli.wall_s": "s", "trace.coverage": "ratio",
    "trace.overhead": "ratio", "trace.untraced_wall_s": "s",
}
COUNT_UNITS = ("count", "bytes")


def child_env() -> dict:
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, asked from the library itself."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("libscipy_openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "errscope": errscope.__version__,
        "openblas_threads": blas_threads(),
        "blas_env": BLAS_THREADS,
        "loadavg_start": list(os.getloadavg()),
        "machine": platform.machine(),
    }


def import_seconds() -> float:
    """Wall time of ``import errscope.cli`` inside a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(),
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


class Bench:
    """Runs one workload's invocations in its work directory and judges them.

    The first invocation is the reference: its outputs are checked in full,
    and every later invocation must reproduce its bytes exactly.
    """

    def __init__(self, wl: Workload, workdir: Path, argv: list[str]):
        self.wl = wl
        self.workdir = workdir
        self.argv = argv
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.reference: dict[str, str] | None = None
        self.reference_ok = False

    def _clear(self) -> None:
        out = self.workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()

    def _digests(self) -> dict[str, str]:
        out = self.workdir / "out"
        return {str(p.relative_to(self.workdir)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.rglob("*")) if p.is_file()}

    def _judge(self, rc) -> None:
        self.attempted += 1
        if rc != 0:
            verdict = [f"exit status {rc}"]
        elif self.reference is None:
            self.reference = self._digests()
            try:
                verdict = self.wl.check(self.workdir)
            except Exception as exc:  # a malformed output can break any check
                verdict = [f"check raised {exc!r}"]
            self.reference_ok = not verdict
        elif self._digests() != self.reference:
            verdict = ["output bytes differ from the first repetition"]
        else:
            verdict = [] if self.reference_ok else ["same output as the failed first repetition"]
        if verdict:
            self.failed += 1
            self.problems += [f"invocation {self.attempted}: {v}" for v in verdict[:5]]

    def in_process(self, call=errscope.cli.main) -> float:
        """One invocation in this process; returns its wall time in seconds."""
        self._clear()
        gc.collect()
        with open(self.workdir / "out/stdout.txt", "w", encoding="utf-8") as out, \
                open(self.workdir / "out/stderr.txt", "w", encoding="utf-8") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = call(self.argv)
            except (Exception, SystemExit) as exc:
                rc = repr(exc)
            wall = time.perf_counter() - t0
        self._judge(rc)
        return wall

    def child(self) -> float:
        """One invocation in a fresh interpreter; returns its peak RSS in MB."""
        self._clear()
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, "out/stdout.txt", flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, "out/stderr.txt", flags, 0o644)]
        pid = os.posix_spawn(sys.executable, [sys.executable, "-c", CHILD_MAIN, *self.argv],
                             child_env(), file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        self._judge(os.waitstatus_to_exitcode(status))
        return usage.ru_maxrss * 1024 / MB  # ru_maxrss is in KiB on Linux

    def output_mb(self) -> float:
        return sum((self.workdir / rel).stat().st_size for rel in self.wl.outputs) / MB


def timed_run(bench: Bench, seconds: float) -> tuple[dict, dict]:
    bench.in_process()  # warm-up; also the reference output
    output_mb = bench.output_mb()
    rss = bench.child()
    samples: list[float] = []
    setup: list[float] = []
    start = time.perf_counter()
    while len(samples) < MIN_SAMPLES or (time.perf_counter() - start + statistics.median(
            samples) * (1.0 + SETUP_SHARE) <= seconds):
        samples.append(bench.in_process())
        spent = 0.0
        while spent < SETUP_SHARE * samples[-1]:
            setup.append(import_seconds())
            spent += setup[-1]
    metrics = {
        "wall_s": (statistics.median(samples), "s"),
        "peak_rss_mb": (rss, "MB"),
        "output_mb": (output_mb, "MB"),
        "success_ratio": ((bench.attempted - bench.failed) / bench.attempted, "ratio"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return metrics, {"wall_samples_s": samples, "setup_samples_s": setup}


def traced_run(bench: Bench, seconds: float) -> tuple[dict, dict]:
    tracer = spans.Tracer()
    root = tracer.span(spans.ROOT_SPAN, errscope.cli.main)

    def traced(peak: bool) -> float:
        tracer.invocation += 1
        tracer.peak = peak
        tracer.install()
        try:
            return bench.in_process(root)
        finally:
            tracer.uninstall()

    bench.in_process()  # warm-up; also the reference output
    plain: list[float] = []
    timed: list[float] = []
    start = time.perf_counter()
    while not timed or time.perf_counter() - start + plain[-1] + timed[-1] <= seconds:
        plain.append(bench.in_process())
        timed.append(traced(peak=False))
    traced(peak=True)
    peak_inv = tracer.invocation

    per_inv = [spans.layer_metrics([s for s in tracer.spans if s["invocation"] == i])
               for i in range(1, peak_inv)]
    values = {}
    for name, unit in PER_LAYER.items():
        vals = [m.get(name, 0) for m in per_inv]
        if unit in COUNT_UNITS:
            if len(set(vals)) != 1:
                bench.problems.append(f"trace count {name} differs between invocations: {vals}")
            values[name] = vals[0]
        else:
            values[name] = statistics.median(vals)
    values.update(spans.peak_metrics([s for s in tracer.spans if s["invocation"] == peak_inv]))
    values["trace.untraced_wall_s"] = statistics.median(plain)
    values["trace.overhead"] = statistics.median(timed) / values["trace.untraced_wall_s"] - 1.0
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}
    if tracer.missing:
        bench.notes.append("not in the package, so not traced: " + ", ".join(tracer.missing))
    extra = {"untraced_wall_samples_s": plain, "traced_wall_samples_s": timed,
             "spans": tracer.spans}
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    env = environment()
    workdir = ROOT / ".perfbench" / "work" / wl.name
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "out").mkdir(parents=True)
    os.chdir(workdir)
    try:
        cli_argv, input_sha = wl.prepare(workdir, args.seed)
        bench = Bench(wl, workdir, cli_argv)
        run = traced_run if args.trace else timed_run
        metrics, extra = run(bench, args.seconds)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    correct = bench.failed == 0 and not bench.problems
    record = {
        "workload": wl.name, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "argv": cli_argv, "environment": env,
        "inputs_sha256": input_sha, "outputs_sha256": bench.reference,
        "correct": correct, "attempted": bench.attempted, "failed": bench.failed,
        "fail_ratio": bench.failed / bench.attempted, "problems": bench.problems,
        "notes": bench.notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, **extra,
    }
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"{wl.name} seed={args.seed} trace={args.trace}: "
          f"{bench.attempted} invocations, {bench.failed} failed")
    for problem in bench.problems:
        print(f"  problem: {problem}")
    for note in bench.notes:
        print(f"  note: {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    print(f"  {'fail_ratio':<28} {record['fail_ratio']:>14.6g} ratio "
          f"({bench.failed}/{bench.attempted})")
    if not args.trace:
        print(f"  wall_s is the median of {len(extra['wall_samples_s'])} samples; "
              f"no tail percentile (needs 10 samples beyond it)")
    print(json.dumps({"correct": correct, "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
