"""Spans around errscope's public functions, installed from outside the package.

The tracer rebinds the names that ``errscope.cli`` and ``errscope.report``
look up at call time (and a few methods on their classes) to wrappers that
record a span per call: id, name, parent id, start and end in ns, and any
counts taken from the call's result. Nothing in the package is edited;
``uninstall`` puts every original back. Spans stay in memory until the
benchmark writes them out at the end.
"""

from __future__ import annotations

import os
import time
import tracemalloc

import errscope.cli
import errscope.report
from errscope.errorspace import ErrorSpaceAnalysis
from errscope.ingest import PredictionSet
from errscope.render import Figure


def _cells(args, kwargs, ps):
    return {"cells": ps.n * (2 + len(ps.model_names))}


def _hex_cells(args, kwargs, layer):
    return {"hex_cells": len(layer.cells)}


def _elements(args, kwargs, fig):
    return {"elements": len(fig.elements)}


def _svg_bytes(args, kwargs, _):
    return {"svg_bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


def _json_bytes(args, kwargs, text):
    return {"json_bytes": len(text.encode("utf-8"))}


# (owner, attribute, span name, counts from (args, kwargs, result), peak pass)
TARGETS = [
    (errscope.cli, "parse_predictions", "ingest.parse", _cells, True),
    (errscope.cli, "select_pair", "ingest.select_pair", None, False),
    (PredictionSet, "to_csv", "ingest.to_csv", None, False),
    (errscope.cli, "compute_errors", "metrics.compute_errors", None, False),
    (errscope.cli, "mae", "metrics.mae", None, False),
    (errscope.cli, "rmse", "metrics.rmse", None, False),
    (errscope.report, "compute_errors", "metrics.compute_errors", None, False),
    (errscope.report, "boxplot_stats", "metrics.boxplot_stats", None, False),
    (errscope.report, "metric_report", "metrics.metric_report", None, False),
    (errscope.report, "sort_models_by_metric", "metrics.sort_models_by_metric", None, False),
    (errscope.cli, "analyze_pair", "errorspace.analyze", None, True),
    (ErrorSpaceAnalysis, "coords", "errorspace.coords", None, False),
    (errscope.cli, "kde2d", "density.kde", None, True),
    (errscope.cli, "default_hex_radius", "density.hex_radius", None, False),
    (errscope.cli, "hexbin", "density.hexbin", _hex_cells, False),
    (errscope.cli, "render_error_space", "render.build", _elements, True),
    (Figure, "save", "render.save", _svg_bytes, False),
    (errscope.cli, "build_pair_report", "report.build", None, False),
    (ErrorSpaceAnalysis, "to_dict", "report.to_dict", None, False),
    (errscope.cli, "to_json", "report.serialize", _json_bytes, False),
    (errscope.cli, "generate", "synth.generate", None, False),
]
ROOT_SPAN = "cli.main"


class Tracer:
    """Records nested spans of one thread; ``peak`` adds tracemalloc peaks."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.peak = False
        self.invocation = 0

    def span(self, name: str, fn, counts=None, peak_span: bool = False):
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            rec = {"id": sid, "name": name, "parent": self._stack[-1] if self._stack else None,
                   "invocation": self.invocation}
            self.spans.append(rec)
            self._stack.append(sid)
            own_tm = self.peak and peak_span and not tracemalloc.is_tracing()
            if own_tm:
                tracemalloc.start()
            rec["start_ns"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end_ns"] = time.perf_counter_ns()
                if own_tm:
                    rec["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()
            if counts is not None:
                rec.update(counts(args, kwargs, result))
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every target; a target the package no longer has is listed
        in ``missing`` and its metrics read 0, since nothing calls it."""
        self.missing = []
        for owner, attr, name, counts, peak_span in TARGETS:
            if not hasattr(owner, attr):
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, counts, peak_span))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer sums for the spans of one traced invocation.

    ``<name>_s`` sums the durations of spans with that name whose parent has
    a different name, so recursion is never counted twice. A layer total
    (``metrics.s``) sums spans of the layer whose parent is outside it.
    ``cli.self_s`` is the root span minus its direct children, which never
    overlap because the CLI runs on one thread.
    """
    by_id = {s["id"]: s for s in spans}
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for s in spans:
        dur = (s["end_ns"] - s["start_ns"]) / 1e9
        parent = by_id.get(s["parent"])
        layer = s["name"].split(".")[0]
        if parent is None or parent["name"] != s["name"]:
            add(s["name"] + "_s", dur)
        if parent is None or parent["name"].split(".")[0] != layer:
            add(layer + ".s", dur)
        add(s["name"] + "_calls", 1)
        for key in ("cells", "hex_cells", "elements", "svg_bytes", "json_bytes"):
            if key in s:
                add(layer + "." + key, s[key])
    root = [s for s in spans if s["parent"] is None and s["name"] == ROOT_SPAN]
    if len(root) == 1:
        wall = (root[0]["end_ns"] - root[0]["start_ns"]) / 1e9
        children = sum((s["end_ns"] - s["start_ns"]) / 1e9
                       for s in spans if s["parent"] == root[0]["id"])
        out["cli.wall_s"] = wall
        out["cli.self_s"] = wall - children
        out["trace.coverage"] = children / wall
    return out


def peak_metrics(spans: list[dict]) -> dict:
    """Largest tracemalloc peak, in MB (2^20 bytes), per span name."""
    out: dict[str, float] = {}
    for s in spans:
        if "peak_bytes" in s:
            key = s["name"] + "_peak_mb"
            out[key] = max(out.get(key, 0.0), s["peak_bytes"] / 2 ** 20)
    return out
