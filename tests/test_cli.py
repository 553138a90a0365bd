import builtins
import errno
import inspect
import io
import itertools
import json
import os
import stat
import sys
import tempfile
import threading
import time
import warnings
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
import test_golden as golden
from conftest import svg_text

import errscope.cli
import errscope.ingest
import errscope.render
import errscope.report
from errscope import analyze_pair, parse_predictions, render_error_space
from errscope.cli import _write_all, main
from errscope.metrics import boxplot_stats
from errscope.render import ERROR_SPACE_LAYERS
from errscope.synth import SCENARIOS, generate

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "src" / "errscope" / "schemas" / "analysis_report.schema.json"


@pytest.fixture
def demo_csv(tmp_path):
    out = tmp_path / "demo.csv"
    assert main(["synth", "--kind", "outlier_vs_moderate", "--n", "300",
                 "--seed", "5", "-o", str(out)]) == 0
    return out


def test_synth_writes_csv_and_is_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["synth", "--kind", "under_vs_over", "--n", "100", "--seed", "9",
                 "-o", str(a)]) == 0
    assert main(["synth", "--kind", "under_vs_over", "--n", "100", "--seed", "9",
                 "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "id,y_true,C1,C2"
    assert len(lines) == 101


def test_synth_unknown_kind_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--kind", "nope", "--n", "10", "-o", "x.csv"])
    assert exc.value.code == 2  # argparse choice validation


def test_synth_bad_param_exits_2(tmp_path, capsys):
    assert main(["synth", "--kind", "under_vs_over", "--n", "10",
                 "--param", "wat=1", "-o", str(tmp_path / "x.csv")]) == 2
    assert "unknown parameter(s)" in capsys.readouterr().err


def test_synth_size_as_param_exits_2(tmp_path, capsys):
    # n and seed have their own flags; as --param they are unknown.
    assert main(["synth", "--kind", "under_vs_over", "--n", "10",
                 "--param", "n=5", "-o", str(tmp_path / "x.csv")]) == 2
    assert "unknown parameter(s)" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, err", [
    (["--kind", "correlated_pair", "--n", "40", "--param", "sigma=1e200"], 3,
     "error: metrics of model 'E1' overflow float64\n"),
    (["--kind", "equal_metrics_divergent", "--n", "5", "--seed", "1", "--param", "jitter=1e308"],
     3, "error: metrics of model 'D1' overflow float64\n"),
    (["--kind", "correlated_pair", "--n", "40", "--param", "sigma=nan"], 2,
     "error: --param 'sigma': 'nan' is not finite\n"),
    (["--kind", "outlier_vs_moderate", "--n", "40", "--param", "moderate_sigma=5e-324"], 3,
     "error: scenario outlier_vs_moderate leaves float64 with these parameters\n"),
    (["--kind", "under_vs_over", "--n", "0"], 2, "error: n must be >= 1\n"),
    (["--kind", "outlier_vs_moderate", "--n", "1"], 2, "error: outlier scenario needs n >= 2\n"),
], ids=["sigma_1e200", "jitter_1e308", "sigma_nan", "moderate_sigma_subnormal", "n_0",
        "outlier_n_1"])
def test_synth_float64_edges_write_nothing(tmp_path, capsys, argv, code, err):
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
        assert main(["synth", *argv, "-o", str(out)]) == code
    assert capsys.readouterr() == ("", err)
    assert not out.exists()


def test_synth_size_beyond_memory_exits_2(tmp_path, capsys):
    # 10^15 float64s are 8 PB, past a 47-bit address space: the first
    # allocation is refused before anything is allocated.
    out = tmp_path / "x.csv"
    assert main(["synth", "--kind", "under_vs_over", "--n", str(10**15), "-o", str(out)]) == 2
    out_text, err = capsys.readouterr()
    assert out_text == "" and err.startswith("error: Unable to allocate") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("param, err", [
    ("sigma", "error: --param expects key=value, got 'sigma'\n"),
    ("sigma=abc", "error: --param 'sigma': 'abc' is not a number\n"),
], ids=["no_equals", "not_a_number"])
def test_synth_malformed_param_exits_2(tmp_path, capsys, param, err):
    out = tmp_path / "x.csv"
    assert main(["synth", "--kind", "under_vs_over", "--n", "10", "--param", param,
                 "-o", str(out)]) == 2
    assert capsys.readouterr() == ("", err)
    assert not out.exists()


@pytest.mark.parametrize("argv", [["metrics"], ["compare", "--a", "M1", "--b", "M2"]],
                         ids=["metrics", "compare"])
def test_input_beyond_memory_exits_2(tmp_path, capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise MemoryError  # as a parse of a file too large for memory would, with no text

    monkeypatch.setattr(errscope.cli, "parse_predictions", refuse)
    monkeypatch.chdir(tmp_path)
    Path("in.csv").write_text("id,y_true,M1,M2\na,0,1,2\n")
    assert main([argv[0], "in.csv", *argv[1:]]) == 2
    assert capsys.readouterr() == ("", "error: out of memory\n")
    assert [p.name for p in tmp_path.iterdir()] == ["in.csv"]


@pytest.mark.parametrize("kind, key", [
    ("outlier_vs_moderate", "moderate_sigma"), ("under_vs_over", "sigma"),
    ("equal_metrics_divergent", "jitter"), ("equal_metrics_divergent", "level"),
    ("asymmetric_pair", "sigma"), ("correlated_pair", "sigma"),
])
def test_synth_negative_scale_exits_2(tmp_path, capsys, kind, key):
    # asymmetric_pair and correlated_pair square sigma, so -1 used to pass as 1.
    out = tmp_path / "x.csv"
    assert main(["synth", "--kind", kind, "--n", "40", "--param", f"{key}=-1",
                 "-o", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: --param {key}: must be >= 0, got -1.0\n")
    assert not out.exists()


@pytest.mark.parametrize("kind, key", [
    ("under_vs_over", "sigma"), ("outlier_vs_moderate", "moderate_sigma"),
    ("equal_metrics_divergent", "jitter"), ("asymmetric_pair", "sigma"),
])
def test_synth_negative_zero_scale_is_zero(tmp_path, capsys, kind, key):
    # -0.0 passes the >= 0 check, and numpy refused it by its sign bit with "scale < 0".
    # Now it runs as 0 does: the same exit code, text and CSV bytes.
    out, runs = tmp_path / "x.csv", []
    for value in ("0", "-0.0"):
        code = main(["synth", "--kind", kind, "--n", "40", "--param", f"{key}={value}",
                     "-o", str(out)])
        runs.append((code, capsys.readouterr(), out.exists() and out.read_bytes()))
        out.unlink(missing_ok=True)
    assert runs[0] == runs[1] and runs[0][0] == 0


def test_synth_outlier_with_zero_moderate_sigma(tmp_path, capsys):
    # moderate_sigma 0 is in the documented range: its RMS calibration used to divide 0 by
    # 0 and exit 3. Every B2 error is 0.
    out = tmp_path / "x.csv"
    assert main(["synth", "--kind", "outlier_vs_moderate", "--n", "300",
                 "--param", "moderate_sigma=0", "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    ps = parse_predictions(out.read_bytes())
    assert ps.n > 1 and ps.errors[:, ps.index("B2")].tolist() == [0.0] * ps.n


def test_metrics_json_report(demo_csv, capsys):
    assert main(["metrics", str(demo_csv), "--sort", "mae", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ranking"]["key"] == "mae"
    b1 = report["per_model"]["B1"]["metrics"]
    b2 = report["per_model"]["B2"]["metrics"]
    assert b1["mae"] < b2["mae"]
    assert b1["rmse"] > b2["rmse"]
    assert report["ranking"]["order"][0] == "B1"
    if jsonschema is not None:
        jsonschema.validate(report, json.loads(SCHEMA_PATH.read_text()))


def test_metrics_plots_written(demo_csv, tmp_path, monkeypatch):
    calls = []

    def counting_boxplot_stats(e):
        calls.append(e)
        return boxplot_stats(e)

    for module in (errscope.cli, errscope.report):
        if hasattr(module, "boxplot_stats"):
            monkeypatch.setattr(module, "boxplot_stats", counting_boxplot_stats)
    figs = tmp_path / "figs"
    assert main(["metrics", str(demo_csv), "--plots", str(figs)]) == 0
    assert (figs / "boxplots.svg").exists()
    assert (figs / "pred_vs_actual_grid.svg").exists()
    # The boxplots are drawn from the report's stats: one computation per model.
    assert len(calls) == 2


def test_metrics_plots_failure_removes_written_figure(demo_csv, tmp_path, capsys):
    # The second figure's path is a directory: the first figure is removed, the directory kept.
    plots = tmp_path / "plots"
    (plots / "pred_vs_actual_grid.svg").mkdir(parents=True)
    capsys.readouterr()
    assert main(["metrics", str(demo_csv), "--plots", str(plots)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert [p.name for p in plots.iterdir()] == ["pred_vs_actual_grid.svg"]
    assert (plots / "pred_vs_actual_grid.svg").is_dir()


def test_metrics_boxplots_failure_removes_the_grid(demo_csv, tmp_path, capsys):
    # The boxplots path is a directory and a grid from an earlier run is in place: the grid,
    # written on a second thread, is removed as well, and the directory kept.
    figs = tmp_path / "figs"
    (figs / "boxplots.svg").mkdir(parents=True)
    (figs / "pred_vs_actual_grid.svg").write_text("old grid")
    capsys.readouterr()
    assert main(["metrics", str(demo_csv), "--plots", str(figs)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert repr(str(figs / "boxplots.svg")) in err
    assert [p.name for p in figs.iterdir()] == ["boxplots.svg"]
    assert (figs / "boxplots.svg").is_dir()


@pytest.mark.parametrize("argv, code", [
    (["metrics", "{csv}", "--plots", "{tmp}/figs"], 0),
    (["metrics", "{csv}", "--plots", "{tmp}/grid_dir"], 2),
    (["synth", "--kind", "under_vs_over", "--n", "50", "-o", "{tmp}/out.csv"], 0),
    (["synth", "--kind", "under_vs_over", "--n", "50", "-o", "{tmp}/nodir/out.csv"], 2),
], ids=["metrics_exit_0", "metrics_exit_2", "synth_exit_0", "synth_exit_2"])
def test_metrics_and_synth_leave_no_thread(demo_csv, tmp_path, capsys, argv, code):
    # metrics writes its grid on a second thread, and the grid's path fails in grid_dir;
    # synth has one output, and its 50 rows are one chunk, which the row writer writes
    # without a helper thread.
    (tmp_path / "grid_dir" / "pred_vs_actual_grid.svg").mkdir(parents=True)
    before = threading.active_count()
    assert main([a.format(csv=demo_csv, tmp=tmp_path) for a in argv]) == code
    assert threading.active_count() == before


class FailsOnSecondWrite:
    """An open file whose second write raises ENOSPC: synth's first chunk of rows, after
    its header."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def fileno(self):
        return self.fh.fileno()

    def write(self, text):
        self.writes += 1
        if self.writes == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.fh.write(text)


def test_synth_failed_write_leaves_no_helper(tmp_path, monkeypatch, capsys, helpers, on_cores):
    # The row writer's helper has written the first chunk when its write fails: exit 2, no
    # CSV and no thread left when main returns.
    on_cores(2)
    monkeypatch.setattr(errscope.cli, "open", lambda *a, **k: FailsOnSecondWrite(open(*a, **k)),
                        raising=False)
    out = tmp_path / "out.csv"
    before = threading.enumerate()
    assert main(["synth", "--kind", "under_vs_over", "--n", "20000", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert not out.exists() and len(helpers) == 1 and helpers[0]
    assert threading.enumerate() == before


def test_helpers_by_core_count_write_the_same_bytes(tmp_path, monkeypatch, capsys, helpers):
    # row_chunks reads the core count once for each writer of more than one chunk, and
    # decimals once for each parse of more than one chunk of cells. On one core none of
    # them takes a helper; on two cores each does, and a writer's helper writes at least
    # the first chunk. synth, compare with every layer and metrics --plots write the same
    # bytes on both.
    def run(k: int) -> dict:
        reads, out = [], tmp_path / str(k)
        monkeypatch.setattr(errscope._text, "cores",
                            lambda: reads.append(sys._getframe(1).f_code.co_name) or k)
        helpers.clear()
        csv = out / "in.csv"
        out.mkdir()
        assert main(["synth", "--kind", "under_vs_over", "--n", "20000", "-o", str(csv)]) == 0
        assert main(["compare", str(csv), "--a", "C1", "--b", "C2", "--layers",
                     ",".join(ERROR_SPACE_LAYERS), "-o", str(out / "x.svg"),
                     "--json", str(out / "x.json")]) == 0
        assert main(["metrics", str(csv), "--plots", str(out / "figs")]) == 0
        writers = reads.count("row_chunks")
        assert reads.count("decimals") == 2 and len(reads) == writers + 2
        assert writers >= 5 and len(helpers) == writers * (k > 1)
        assert all(helpers)
        return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

    one = run(1)
    assert len(one) == 5 and run(2) == one


def test_compare_json_failure_removes_svg(demo_csv, tmp_path, capsys):
    capsys.readouterr()
    assert main(["compare", str(demo_csv), "--a", "B1", "--b", "B2", "-o", str(tmp_path / "a.svg"),
                 "--json", str(tmp_path / "nodir" / "r.json")]) == 2
    assert capsys.readouterr() == ("", f"error: [Errno 2] No such file or directory: "
                                       f"'{tmp_path / 'nodir' / 'r.json'}'\n")
    assert [p.name for p in tmp_path.iterdir()] == [demo_csv.name]


def test_failure_keeps_a_device_written_through_a_symlink(demo_csv, tmp_path, capsys):
    # The SVG goes through a link to /dev/null: neither the link nor the device is removed.
    link = tmp_path / "link.svg"
    link.symlink_to(os.devnull)
    capsys.readouterr()
    assert main(["compare", str(demo_csv), "--a", "B1", "--b", "B2", "-o", str(link),
                 "--json", str(tmp_path / "nodir" / "r.json")]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert link.is_symlink() and os.readlink(link) == os.devnull
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_failure_removes_the_file_a_symlink_names(demo_csv, tmp_path, capsys):
    # The SVG goes through a link to a regular file: the file is removed, the link kept.
    target, link = tmp_path / "target.svg", tmp_path / "link.svg"
    target.write_text("old")
    link.symlink_to(target)
    capsys.readouterr()
    assert main(["compare", str(demo_csv), "--a", "B1", "--b", "B2", "-o", str(link),
                 "--json", str(tmp_path / "nodir" / "r.json")]) == 2
    assert not target.exists() and link.is_symlink()


def test_failed_removal_keeps_the_write_error(demo_csv, tmp_path, capsys, monkeypatch):
    # The report's write fails, then the SVG cannot be removed: the write's error is
    # reported and the partial report is still removed.
    real_unlink = Path.unlink

    def unlink(self, missing_ok=False):
        if self.name == "a.svg":
            raise PermissionError(errno.EACCES, "Permission denied", str(self))
        real_unlink(self, missing_ok=missing_ok)

    def disk_full(*args):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "unlink", unlink)
    monkeypatch.setattr(errscope.report, "row_chunks", disk_full)
    capsys.readouterr()
    assert main(["compare", str(demo_csv), "--a", "B1", "--b", "B2", "-o", str(tmp_path / "a.svg"),
                 "--json", str(tmp_path / "bad.json")]) == 2
    assert capsys.readouterr() == ("", f"error: [Errno {errno.ENOSPC}] No space left on device\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.svg", demo_csv.name]


@pytest.mark.parametrize("argv", [
    ["compare", "in.csv", "--a", "B1", "--b", "B2", "-o", "in.csv", "--json", "nodir/r.json"],
    ["compare", "in.csv", "--a", "B1", "--b", "B2", "-o", "x.svg", "--json", "./x.svg"],
    ["metrics", "figs/boxplots.svg", "--plots", "figs"],
], ids=["compare_over_input", "compare_outputs_at_one_path", "metrics_over_input"])
def test_output_over_the_input_or_another_output_exits_2(demo_csv, tmp_path, capsys,
                                                         monkeypatch, argv):
    """Output paths are checked before any file is opened: one that names the input or
    another output exits 2 with one error line, writes nothing and leaves the input."""
    data = demo_csv.read_bytes()
    run = tmp_path / "run"
    (run / "figs").mkdir(parents=True)
    (run / argv[1]).write_bytes(data)
    monkeypatch.chdir(run)
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: output ") and err.count("\n") == 1
    assert sorted(p.relative_to(run).as_posix() for p in run.rglob("*")) == ["figs", argv[1]]
    assert (run / argv[1]).read_bytes() == data


def test_compare_json_write_failure_removes_partial_file(demo_csv, tmp_path, capsys, monkeypatch):
    # The disk fills after the report's first chunk of points: the SVG and the
    # partly written report are both removed.
    real_row_chunks = errscope.report.row_chunks

    def disk_full_after_one_chunk(*args):
        yield from itertools.islice(real_row_chunks(*args), 1)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(errscope.report, "row_chunks", disk_full_after_one_chunk)
    capsys.readouterr()
    assert main(["compare", str(demo_csv), "--a", "B1", "--b", "B2", "-o", str(tmp_path / "a.svg"),
                 "--json", str(tmp_path / "bad.json")]) == 2
    assert capsys.readouterr() == ("", f"error: [Errno {errno.ENOSPC}] No space left on device\n")
    assert [p.name for p in tmp_path.iterdir()] == [demo_csv.name]


def test_synth_write_failure_removes_partial_csv(tmp_path, capsys, monkeypatch):
    # Memory runs out once the header is written: the partial CSV is removed.
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(errscope.ingest, "row_chunks", out_of_memory)
    assert main(["synth", "--kind", "under_vs_over", "--n", "50",
                 "-o", str(tmp_path / "bad.csv")]) == 2
    assert capsys.readouterr() == ("", "error: out of memory\n")
    assert list(tmp_path.iterdir()) == []


def test_duplicate_ids_warn_on_stderr(tmp_path, capsys):
    path = tmp_path / "in.csv"
    path.write_text("id,y_true,M1,M2\na,0,1,2\na,0,2,1\nb,0,-1,3\nc,0,3,-2\nd,0,1,1\n")
    warning = "warning: duplicate instance ids: 'a'\n"
    assert main(["metrics", str(path)]) == 0
    assert capsys.readouterr().err == warning
    assert main(["compare", str(path), "--a", "M1", "--b", "M2",
                 "-o", str(tmp_path / "x.svg")]) == 0
    assert capsys.readouterr().err == warning


def test_json_ids_are_strings_integers_or_the_index(tmp_path, capsys):
    # An integer id is its decimal text and a missing one the instance index, so 12 and
    # "12" repeat, as do 2 and the third instance, which has no id.
    ids = [12, "12", None, 2, 10**30, -7, "None"]
    instances = [{"y_true": 0.0, "predictions": {"M1": float(k), "M2": 1.0 - k}}
                 | ({} if iid is None else {"id": iid}) for k, iid in enumerate(ids)]
    path = tmp_path / "ids.json"
    path.write_text(json.dumps({"instances": instances}))
    assert main(["metrics", str(path)]) == 0
    assert capsys.readouterr().err == "warning: duplicate instance ids: '12', '2'\n"
    assert parse_predictions(path.read_bytes(), "json").instance_ids.tolist() == [
        "12", "12", "2", "2", str(10**30), "-7", "None"]


def test_duplicate_id_holding_an_lf_warns_on_one_line(tmp_path, capsys):
    # The quoted id "a\nb", given twice, is shown as its repr: one stderr line.
    path = tmp_path / "in.csv"
    path.write_text('id,y_true,M1,M2\n"a\nb",0,1,2\n"a\nb",0,2,1\nc,0,3,-2\n')
    warning = "warning: duplicate instance ids: 'a\\nb'\n"
    assert main(["metrics", str(path)]) == 0
    assert capsys.readouterr().err == warning
    assert main(["compare", str(path), "--a", "M1", "--b", "M2",
                 "-o", str(tmp_path / "x.svg")]) == 0
    assert capsys.readouterr().err == warning


def test_writers_fix_line_ends(tmp_path, monkeypatch):
    # A text file opened without newline= is written with the platform's line
    # separator, CRLF on some, which would change every output's bytes.
    newlines = {}
    real_open = builtins.open

    def recording_open(file, mode="r", *args, **kwargs):
        if "w" in mode:
            newlines[Path(file).name] = kwargs.get("newline")
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--kind", "asymmetric_pair", "--n", "50", "-o", "in.csv"]) == 0
    assert main(["metrics", "in.csv", "--plots", "figs"]) == 0
    assert main(["compare", "in.csv", "--a", "E1", "--b", "E2", "-o", "x.svg",
                 "--json", "rep.json"]) == 0
    assert newlines == dict.fromkeys(["in.csv", "boxplots.svg", "pred_vs_actual_grid.svg",
                                      "x.svg", "rep.json"], "\n")


def test_metrics_empty_file_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["metrics", str(empty)]) == 2
    assert "error" in capsys.readouterr().err


def test_metrics_missing_file_exits_2(tmp_path):
    assert main(["metrics", str(tmp_path / "nope.csv")]) == 2


def test_compare_outputs(demo_csv, tmp_path, capsys):
    svg = tmp_path / "cmp.svg"
    rep = tmp_path / "rep.json"
    assert main(["compare", str(demo_csv), "--a", "B1", "--b", "B2",
                 "--metric", "mahalanobis", "--layers", "zones,proximity,crown",
                 "-o", str(svg), "--json", str(rep)]) == 0
    out = capsys.readouterr().out
    assert "a_better" in out and "crown threshold" in out
    report = json.loads(rep.read_text())
    assert report["pair"]["model_a"] == "B1"
    assert sum(report["pair"]["zone_counts"].values()) == 300
    assert len(report["errorspace"]["points"]) == 300
    assert svg.read_text().startswith("<?xml")
    if jsonschema is not None:
        jsonschema.validate(report, json.loads(SCHEMA_PATH.read_text()))


# file name -> (content, expected exit code)
INPUT_BYTES = {
    "latin1.csv": (b"id,y_true,M1\na,1.0,2.0\n\xe9,2.0,3.0\n", 2),
    "scalar_instance.json": (b'{"instances": [3]}', 2),
    "scalar_predictions.json":
        (b'{"instances": [{"id": "a", "y_true": 1.0, "predictions": 3}]}', 2),
    "huge_int.json": (b'{"instances": [{"id": "a", "y_true": 1' + b"0" * 400
                      + b', "predictions": {"M": 1}}]}', 2),
    "excel_bom.csv": (b"\xef\xbb\xbfid,y_true,M1\na,1.0,2.0\nb,2.0,2.5\n", 0),
}
# file name -> (content, error line)
MALFORMED_JSON = {
    "string_y_true.json": (b'{"instances": [{"id": "a", "y_true": "1", "predictions": {"M": 1}}]}',
                           "instance 0: y_true is not a number"),
    "bool_prediction.json":
        (b'{"instances": [{"id": "a", "y_true": 1, "predictions": {"M": true}}]}',
         "instance 0: prediction 'M' is not a number"),
    "no_instances.json": (b'{"rows": []}', "JSON must contain a non-empty 'instances' array"),
    "empty_predictions.json": (b'{"instances": [{"id": "a", "y_true": 1, "predictions": {}}]}',
                               "instances must carry a non-empty 'predictions' map"),
    # An id that is neither a string nor an integer, as null next to "None", which str()
    # once made a false duplicate.
    **{f"{name}_id.json": (b'{"instances": [{"id": "None", "y_true": 1, "predictions": {"M": 1}},'
                           b' {"id": ' + value + b', "y_true": 1, "predictions": {"M": 2}}]}',
                           "instance 1: id is not a string or an integer")
       for name, value in [("null", b"null"), ("bool", b"false"), ("float", b"1.0"),
                           ("object", b'{"a": [1, true]}'), ("array", b"[0]")]},
}


@pytest.mark.parametrize("name", INPUT_BYTES)
def test_metrics_input_bytes(tmp_path, name):
    content, code = INPUT_BYTES[name]
    path = tmp_path / name
    path.write_bytes(content)
    assert main(["metrics", str(path)]) == code


ROWS = b",1,2,3\nb,1,2,3\nc,2,3,1\n"
@pytest.mark.parametrize("name", MALFORMED_JSON)
def test_malformed_json_exits_2(tmp_path, capsys, name):
    content, message = MALFORMED_JSON[name]
    path = tmp_path / name
    path.write_bytes(content)
    assert main(["metrics", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


# file name -> content, each once a traceback: a cell past csv.field_size_limit(), quoted
# or not; JSON nested past the recursion limit; an integer past Python's digit limit.
BAD_INPUTS = {
    "long_id.csv": b"id,y_true,M1,M2\n" + b"a" * 200_000 + ROWS,
    "long_quoted_id.csv": b'id,y_true,M1,M2\n"' + b"a" * 200_000 + b'"' + ROWS,
    "long_model_name.csv": b"id,y_true,M1," + b"M" * 200_000 + b"\na" + ROWS,
    "nested.json": b"[" * 200_000,
    "nested_instances.json": b'{"instances": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    "digits.json": b'{"instances": [{"id": "a", "y_true": ' + b"1" * 5000
                   + b', "predictions": {"M1": 1, "M2": 2}}]}',
}


@pytest.mark.parametrize("args", [["metrics", "--plots", "figs", "--json"],
                                  ["compare", "--a", "M1", "--b", "M2", "-o", "x.svg"]],
                         ids=["metrics", "compare"])
@pytest.mark.parametrize("name", BAD_INPUTS)
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, monkeypatch, name, args):
    monkeypatch.chdir(tmp_path)
    Path(name).write_bytes(BAD_INPUTS[name])
    assert main([args[0], name, *args[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    if name.startswith("long_"):
        line = 1 if name == "long_model_name.csv" else 2
        assert captured.err == f"error: row {line}: field larger than field limit (131072)\n"
    elif name.startswith("nested"):
        assert captured.err.startswith("error: invalid JSON: maximum recursion depth exceeded")
    assert [p.name for p in tmp_path.iterdir()] == [name]


@pytest.mark.parametrize("flags", [
    ["--bandwidth", "1"],
    ["--bandwidth", "a,b"],
    ["--bandwidth", "1,0"],
    ["--bandwidth", "1,inf"],
    ["--hex-radius", "-1"],
    ["--hex-radius", "0"],
    ["--hex-radius", "nan"],
    ["--layers", "zones,sparkles"],
], ids="=".join)
def test_compare_bad_flag_values_exit_2(demo_csv, tmp_path, flags):
    with pytest.raises(SystemExit) as exc:
        main(["compare", str(demo_csv), "--a", "B1", "--b", "B2", "--layers", "kde,hexbin",
              *flags, "-o", str(tmp_path / "x.svg")])
    assert exc.value.code == 2
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize("args", [["metrics"], ["compare", "--a", "M1", "--b", "M2"]],
                         ids=lambda args: args[0])
def test_overflowing_error_exits_2(tmp_path, capsys, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    Path("overflow.csv").write_text("id,y_true,M1,M2\na,1,2,3\nb,-1e308,1e308,0\nc,2,3,5\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
        assert main([args[0], "overflow.csv", *args[1:]]) == 2
    err = capsys.readouterr().err
    assert err == "error: error of model 'M1' at instance 1 overflows float64\n"


def huge_errors_csv(tmp_path) -> Path:
    """50 rows whose errors are N(0, 1) * 1e200: finite, but their squares overflow."""
    rng = np.random.default_rng(0)
    y = rng.uniform(0.0, 100.0, size=50)
    preds = y[:, None] + rng.normal(size=(50, 2)) * 1e200
    rows = "".join(f"r{i},{t!r},{a!r},{b!r}\n"
                   for i, (t, (a, b)) in enumerate(zip(y.tolist(), preds.tolist())))
    path = tmp_path / "huge.csv"
    path.write_text("id,y_true,M1,M2\n" + rows)
    return path


@pytest.mark.parametrize("metric", ["euclidean", "mahalanobis"])
def test_compare_huge_errors_exit_3(tmp_path, capsys, metric):
    path = huge_errors_csv(tmp_path)
    rep = tmp_path / "rep.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["compare", str(path), "--a", "M1", "--b", "M2", "--metric", metric,
                     "-o", str(tmp_path / "x.svg"), "--json", str(rep)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not rep.exists()


@pytest.mark.parametrize("flags", [[], ["--json"], ["--plots", "figs"]],
                         ids=["table", "json", "plots"])
def test_metrics_huge_errors_exit_3(tmp_path, capsys, monkeypatch, flags):
    monkeypatch.chdir(tmp_path)
    path = huge_errors_csv(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
        assert main(["metrics", str(path), *flags]) == 3
    out, err = capsys.readouterr()
    assert err == "error: metrics of model 'M1' overflow float64\n"
    assert out == ""
    assert not Path("figs", "boxplots.svg").exists()


@pytest.mark.parametrize("rows", [
    # Boxplot axis spanning one subnormal: its tick step underflows.
    "a,0,0,0\nb,0,5e-324,0\nc,0,0,5e-324\n",
    # The boxplots draw, but the predicted-vs-actual axis overflows.
    "a,-1e308,-1e308,-1e308\nb,1e308,1e308,1e308\n",
], ids=["subnormal_span", "truth_1e308"])
def test_metrics_plots_float64_edges_exit_3(tmp_path, capsys, rows):
    path = tmp_path / "in.csv"
    path.write_text("id,y_true,M1,M2\n" + rows)
    figs = tmp_path / "figs"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["metrics", str(path), "--plots", str(figs)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert list(figs.glob("*.svg")) == []


@pytest.mark.parametrize("value", ["1e16", "-1e16", "9007199254740992", "1e308", "-1.7e308"])
@pytest.mark.parametrize("flags", [[], ["--global-scale"]], ids=["per_panel", "global_scale"])
def test_metrics_plots_huge_constant_target(tmp_path, capsys, value, flags):
    # Truth and prediction are one constant: the panel pads its zero span by
    # at least one ulp, since adding 1.0 is lost at this magnitude.
    path = tmp_path / "in.csv"
    path.write_text(f"id,y_true,M1\nr0,{value},{value}\n")
    figs = tmp_path / "figs"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["metrics", str(path), "--plots", str(figs), *flags]) == 0
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in figs.glob("*.svg")) == ["boxplots.svg",
                                                        "pred_vs_actual_grid.svg"]


def test_compare_default_layers(demo_csv, tmp_path):
    # Each figure compare writes has the bytes of one render_error_space call.
    ps = parse_predictions(demo_csv.read_bytes())
    analysis = analyze_pair(ps.errors[:, [ps.index("B1"), ps.index("B2")]], "B1", "B2")
    every = ["--layers", "zones,scatter,proximity,crown,kde,hexbin"]
    for flags, kwargs in [
        ([], {}),
        (["--layers", "zones,proximity,crown"], {}),
        (every, {"layers": ERROR_SPACE_LAYERS}),  # Scott's bandwidth, diagonal / 40 cells
        (every + ["--bandwidth", "1.5,1.5", "--hex-radius", "2"],
         {"layers": ERROR_SPACE_LAYERS, "bandwidth": (1.5, 1.5), "hex_radius": 2.0}),
    ]:
        svg = tmp_path / "x.svg"
        assert main(["compare", str(demo_csv), "--a", "B1", "--b", "B2", *flags,
                     "-o", str(svg)]) == 0
        assert svg.read_bytes() == svg_text(render_error_space(analysis, **kwargs)).encode("utf-8")


def test_to_json_rejects_nan():
    with pytest.raises(ValueError):
        errscope.report.to_json({"rmse": float("nan")})
    with pytest.raises(ValueError):
        errscope.report.to_json({"r_squared": [-float("inf")]})


def test_compare_unknown_model_exits_2(demo_csv, tmp_path):
    assert main(["compare", str(demo_csv), "--a", "B1", "--b", "ZZ",
                 "-o", str(tmp_path / "x.svg")]) == 2


def test_compare_degenerate_exits_3(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("id,y_true,M1,M2\na,1,2,3\nb,2,3,4\n")
    assert main(["compare", str(path), "--a", "M1", "--b", "M2",
                 "--layers", "kde,proximity",
                 "-o", str(tmp_path / "x.svg")]) == 3


def test_compare_identical_models(tmp_path, capsys):
    path = tmp_path / "same.csv"
    rows = "\n".join(f"r{i},{i},{i + 1},{i + 1}" for i in range(10))
    path.write_text(f"id,y_true,M1,M2\n{rows}\n")
    rep = tmp_path / "rep.json"
    assert main(["compare", str(path), "--a", "M1", "--b", "M2",
                 "-o", str(tmp_path / "x.svg"), "--json", str(rep)]) == 0
    report = json.loads(rep.read_text())
    assert report["pair"]["zone_counts"] == {"a_better": 0, "b_better": 0, "tie": 10}
    # constant error vectors: correlation undefined, reported as null
    assert report["pair"]["error_correlation"] is None


def two_model_rows(n=20, seed=6):
    """CSV rows r<i>,truth,first model,second model with spread-out errors."""
    rng = np.random.default_rng(seed)
    y = rng.uniform(0.0, 10.0, size=n)
    preds = y[:, None] + rng.normal(size=(n, 2))
    return [f"r{i},{t!r},{a!r},{b!r}" for i, (t, (a, b)) in enumerate(zip(y.tolist(),
                                                                          preds.tolist()))]


# In an input file, only a JSON escape can carry a lone surrogate; "\udc80" is
# also how an argument byte 0x80 reaches the CLI.
@pytest.mark.parametrize("name", ["\ud800", "\udc80"], ids=["d800", "dc80"])
@pytest.mark.parametrize("args", [
    ["metrics"],
    ["metrics", "--json"],
    ["metrics", "--plots", "figs"],
    ["compare", "--a", None, "--b", "M2", "-o", "e.svg", "--json", "e.json"],
], ids=["table", "json", "plots", "compare"])
def test_lone_surrogate_model_name_exits_2(tmp_path, capsys, monkeypatch, name, args):
    monkeypatch.chdir(tmp_path)
    instances = [{"id": i, "y_true": float(t), "predictions": {name: float(a), "M2": float(b)}}
                 for i, t, a, b in (row.split(",") for row in two_model_rows())]
    Path("sur.json").write_text(json.dumps({"instances": instances}))  # ASCII, with \u escapes
    assert main([args[0], "sur.json", *(name if a is None else a for a in args[1:])]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sur.json"]


@pytest.mark.parametrize("name", ["a\x01b", "a\x0cb", "a\x1fb"], ids=["x01", "x0c", "x1f"])
def test_control_character_model_name_svgs_are_xml(tmp_path, capsys, name):
    path = tmp_path / "in.csv"
    path.write_text("\n".join([f"id,y_true,{name},M2", *two_model_rows()]) + "\n")
    svg, rep, figs = tmp_path / "e.svg", tmp_path / "e.json", tmp_path / "figs"
    assert main(["compare", str(path), "--a", name, "--b", "M2", "--json", str(rep),
                 "-o", str(svg)]) == 0
    assert main(["metrics", str(path), "--plots", str(figs)]) == 0
    for p in (svg, figs / "boxplots.svg", figs / "pred_vs_actual_grid.svg"):
        ET.parse(p)  # XML 1.0 has no such character: each shows as U+FFFD
        assert "a\ufffdb" in p.read_text(encoding="utf-8")
    assert json.loads(rep.read_text(encoding="utf-8"))["pair"]["model_a"] == name


def test_cli_idempotent_byte_identical(demo_csv, tmp_path):
    outs = []
    for tag in ("one", "two"):
        svg = tmp_path / f"{tag}.svg"
        rep = tmp_path / f"{tag}.json"
        assert main(["compare", str(demo_csv), "--a", "B1", "--b", "B2",
                     "--layers", "zones,proximity,crown,hexbin,kde",
                     "-o", str(svg), "--json", str(rep)]) == 0
        outs.append((svg.read_bytes(), rep.read_bytes()))
    assert outs[0] == outs[1]


def test_synth_metrics_compare_roundtrip(tmp_path):
    from errscope.synth import SCENARIOS

    for kind in sorted(SCENARIOS):
        for seed in range(3):
            csv_path = tmp_path / f"{kind}_{seed}.csv"
            assert main(["synth", "--kind", kind, "--n", "60", "--seed",
                         str(seed), "-o", str(csv_path)]) == 0
            assert main(["metrics", str(csv_path)]) == 0
            header = csv_path.read_text().splitlines()[0].split(",")
            a, b = header[2], header[3]
            assert main(["compare", str(csv_path), "--a", a, "--b", b,
                         "-o", str(tmp_path / "rt.svg")]) == 0


# A fixed 40 x 2 normal sample; the float64-edge tests scale it by 10^k.
EDGE_SAMPLE = np.random.default_rng(40).normal(size=(40, 2))
ALL_LAYERS = "zones,proximity,crown,kde,hexbin"


def errors_csv(path: Path, e: np.ndarray) -> Path:
    """A CSV whose truths are 0, so the models' errors are exactly e."""
    path.write_text("id,y_true,M1,M2\n" + "".join(
        f"r{i},0.0,{a!r},{b!r}\n" for i, (a, b) in enumerate(e.tolist())))
    return path


def run_compare(path: Path, outdir: Path, flags) -> tuple[int, str, Path, Path]:
    """compare M1 vs M2 with every numpy warning raised as an error."""
    svg, rep = outdir / "x.svg", outdir / "rep.json"
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["compare", str(path), "--a", "M1", "--b", "M2", *flags,
                     "-o", str(svg), "--json", str(rep)])
    return code, err.getvalue(), svg, rep


ASYM_ERRORS = generate("asymmetric_pair", 300, seed=17).errors  # within about +-40
EDGE_CASES = {
    # Subnormal covariance: its inverse overflows.
    "mahalanobis_1e-158": (EDGE_SAMPLE * 1e-158, ["--metric", "mahalanobis"]),
    # The KDE factors peak near 1 / bandwidth, and their product overflows.
    "kde_1e-160": (EDGE_SAMPLE * 1e-160, ["--metric", "euclidean", "--layers", ALL_LAYERS]),
    "kde_1e-300": (EDGE_SAMPLE * 1e-300, ["--metric", "mahalanobis", "--layers", ALL_LAYERS]),
    "bandwidth_1e308": (ASYM_ERRORS, ["--layers", "kde", "--bandwidth", "1e308,1e308"]),
    "bandwidth_1e-300": (ASYM_ERRORS, ["--layers", "kde", "--bandwidth", "1e-300,1e-300"]),
    # Axial coordinates beyond int64; hexagons or their canvas beyond float64.
    "hex_radius_1e-20": (ASYM_ERRORS, ["--layers", "hexbin", "--hex-radius", "1e-20"]),
    "hex_radius_1e308": (ASYM_ERRORS, ["--layers", "hexbin", "--hex-radius", "1e308"]),
    "hex_radius_1.7e308": (ASYM_ERRORS, ["--layers", "hexbin", "--hex-radius", "1.7e308"]),
    # Hexagon corners on the canvas at 2^53 / 1000 or beyond, which %m cannot write: 1e300,
    # and the least radius that reaches the bound (test_compare_hex_corners_below_the_bound).
    "hex_radius_1e300": (ASYM_ERRORS, ["--layers", "hexbin", "--hex-radius", "1e300"]),
    "hex_radius_1.087524660806989e12": (
        ASYM_ERRORS, ["--layers", "hexbin", "--hex-radius", "1087524660806.989"]),
    # The covariance underflows to 0 while the errors are not all 0.
    **{f"covariance_2^{k}_{metric}": (EDGE_SAMPLE * 2.0 ** k, ["--metric", metric])
       for k in (-540, -600, -1000) for metric in ("euclidean", "mahalanobis")},
    # A finite axis limit whose span, twice the limit, overflows.
    "axis_span_1e308": (np.array([[1e308, 1e308]]), ["--metric", "euclidean", "--layers", "zones"]),
}


@pytest.mark.parametrize("e, flags", EDGE_CASES.values(), ids=EDGE_CASES)
def test_compare_float64_edges_exit_3(tmp_path, e, flags):
    code, err, svg, rep = run_compare(errors_csv(tmp_path / "in.csv", e), tmp_path, flags)
    assert code == 3
    assert err.startswith("error:") and err.count("\n") == 1
    assert not svg.exists() and not rep.exists()


def test_compare_hex_corners_below_the_bound(tmp_path):
    """The radius one double below the least one EDGE_CASES rejects draws a corner at the
    largest shape coordinate %m writes."""
    flags = ["--layers", "hexbin", "--hex-radius", "1087524660806.9889"]
    code, err, svg, rep = run_compare(errors_csv(tmp_path / "in.csv", ASYM_ERRORS), tmp_path, flags)
    assert (code, err) == (0, "")
    assert "9007199254740.99" in svg.read_text()


def test_compare_other_model_overflow_leaves_no_svg(tmp_path):
    # M1 and M2 are fine; the report's metrics of M3 overflow.
    path = tmp_path / "in.csv"
    path.write_text("id,y_true,M1,M2,M3\na,0,1,2,1e200\nb,0,2,1,-1e200\n"
                    "c,0,3,-1,1e200\nd,0,-1,2,1\n")
    code, err, svg, rep = run_compare(path, tmp_path, [])
    assert code == 3
    assert err == "error: metrics of model 'M3' overflow float64\n"
    assert not svg.exists() and not rep.exists()


# compare builds the report and writes its JSON on a second thread while this one builds
# and writes the figure. Its errors and files must be those of the serial order: figure,
# report, SVG write, JSON write.
def late(monkeypatch, name: str, seconds: float = 0.3, module=errscope.cli) -> None:
    """Make module's name, errscope.cli's by default, sleep before it runs."""
    real = getattr(module, name)

    def delayed(*args, **kwargs):
        time.sleep(seconds)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, delayed)


@pytest.mark.parametrize("delayed", [None, "build_pair_report", "render_error_space"])
def test_compare_both_halves_fail_reports_the_figure(tmp_path, monkeypatch, delayed):
    # The figure's axis span and the report's metrics both overflow: the figure's error,
    # first in the serial order, is reported whichever thread fails first, and no file is left.
    if delayed:
        late(monkeypatch, delayed)
    path = tmp_path / "in.csv"
    path.write_text("id,y_true,M1,M2\na,0,1e308,1e308\n")
    code, err, svg, rep = run_compare(path, tmp_path, ["--metric", "euclidean", "--layers", "zones"])
    assert (code, err) == (3, "error: axis span from -1.05e+308 to 1.05e+308 overflows float64\n")
    assert not svg.exists() and not rep.exists()


def test_compare_figure_failure_removes_the_report(tmp_path, monkeypatch):
    # The report is built and written while the figure fails at the shape-coordinate bound:
    # the JSON written over a file already at its path is removed; the file at the SVG
    # path, never opened, is kept.
    late(monkeypatch, "render_error_space")
    path = errors_csv(tmp_path / "in.csv", ASYM_ERRORS)
    (tmp_path / "x.svg").write_text("old svg")
    (tmp_path / "rep.json").write_text("old json")
    code, err, svg, rep = run_compare(path, tmp_path, ["--layers", "hexbin", "--hex-radius", "1e300"])
    assert code == 3 and err.startswith("error: figure coordinate ") and err.count("\n") == 1
    assert svg.read_text() == "old svg" and not rep.exists()


def test_compare_report_failure_opens_no_svg(tmp_path, monkeypatch):
    # The report fails after the figure is built: the figure waits for it and is not
    # written, so the file already at its path is kept.
    late(monkeypatch, "build_pair_report")
    path = tmp_path / "in.csv"
    path.write_text("id,y_true,M1,M2,M3\na,0,1,2,1e200\nb,0,2,1,-1e200\nc,0,3,-1,1e200\n")
    (tmp_path / "x.svg").write_text("old svg")
    code, err, svg, rep = run_compare(path, tmp_path, [])
    assert (code, err) == (3, "error: metrics of model 'M3' overflow float64\n")
    assert svg.read_text() == "old svg" and not rep.exists()


def test_compare_report_stops_once_the_figure_fails(tmp_path, monkeypatch):
    # The figure fails at the shape-coordinate bound once the report's first chunk of points
    # is written: the report's thread stops at its next chunk, and neither file is left.
    written, failed, pulled = threading.Event(), threading.Event(), []
    real_row_chunks, real_render = errscope.report.row_chunks, errscope.cli.render_error_space

    def counted_row_chunks(*args):
        for chunk in real_row_chunks(*args):
            pulled.append(chunk)
            yield chunk
            written.set()  # resumed, so the chunk has been written
            assert failed.wait(10)
            time.sleep(0.05)  # for the figure's error to be recorded

    def render_after_one_chunk(*args, **kwargs):
        assert written.wait(10)
        try:
            return real_render(*args, **kwargs)
        finally:
            failed.set()

    monkeypatch.setattr(errscope.report, "row_chunks", counted_row_chunks)
    monkeypatch.setattr(errscope.cli, "render_error_space", render_after_one_chunk)
    chunks = 5  # 4 of 4096 rows and 1 of one row
    e = generate("correlated_pair", 4 * 4096 + 1, seed=1).errors[:, :2]
    code, err, svg, rep = run_compare(errors_csv(tmp_path / "in.csv", e), tmp_path,
                                      ["--layers", "hexbin", "--hex-radius", "1e300"])
    assert code == 3 and err.startswith("error: figure coordinate ") and err.count("\n") == 1
    assert not svg.exists() and not rep.exists()
    assert 2 <= len(pulled) < chunks


def test_write_all_under_thread_switches(tmp_path):
    """Four outputs, three on threads of their own, with a thread switch every 10 us: two
    writes fail, the later one in the serial order at its first piece and the earlier one
    at its 40th; the earlier one's error is raised, no file and no thread is left."""
    def build(k: int, fail: dict):
        def write(fh):
            for piece in range(50):
                if fail.get(k) == piece:
                    raise OSError(f"write {k}")
                fh.write(f"{k}:{piece}\n")
        return lambda: write

    before, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for first, second in itertools.combinations(range(4), 2):
            fail = {first: 40, second: 0}
            with pytest.raises(OSError, match=f"^write {first}$"):
                _write_all([(tmp_path / f"{k}.txt", build(k, fail)) for k in range(4)])
            assert list(tmp_path.iterdir()) == []
            assert threading.active_count() == before
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("rows, code", [
    ("a,0,1,2\nb,0,2,1\nc,0,3,-1\nd,0,-1,2\n", 0),
    ("a,0,1,2\nb,0,2,1\nc,0,3,-1\nd,0,-1,2\n", 2),
    ("a,0,1e308,1e308\n", 3),
], ids=["exit_0", "exit_2", "exit_3"])
def test_compare_leaves_no_thread(tmp_path, monkeypatch, rows, code):
    # The report is built 0.3 s late and its JSON written 0.3 s later still, or failed
    # then with a full disk: compare waits for the report's thread on every exit.
    def disk_full(*args):
        time.sleep(0.3)
        raise OSError(errno.ENOSPC, "No space left on device")

    late(monkeypatch, "build_pair_report")
    if code == 2:
        monkeypatch.setattr(errscope.cli, "write_pair_json", disk_full)
    else:
        late(monkeypatch, "write_pair_json")
    path = tmp_path / "in.csv"
    path.write_text("id,y_true,M1,M2\n" + rows)
    before = threading.enumerate()
    assert run_compare(path, tmp_path, ["--metric", "euclidean"])[0] == code
    assert threading.enumerate() == before


@pytest.mark.parametrize("module, delayed", [(errscope.cli, "build_pair_report"),
                                              (errscope.render, "kde2d")],
                         ids=["build_pair_report", "kde2d"])
def test_compare_digests_with_either_thread_late(tmp_path, monkeypatch, module, delayed):
    """The report's thread held back, and then the figure's: the golden bytes either way."""
    late(monkeypatch, delayed, module=module)
    for kind, metric in [("under_vs_over", "mahalanobis"), ("outlier_vs_moderate", "euclidean")]:
        csv, svg, rep = tmp_path / "in.csv", tmp_path / "x.svg", tmp_path / "rep.json"
        argv = ["synth", "--kind", kind, "--n", golden.N, "--seed", golden.SEED, "-o", csv]
        assert main([str(a) for a in argv]) == 0
        a, b = golden.PAIRS[kind]
        assert main(["compare", str(csv), "--a", a, "--b", b, "--metric", metric,
                     "--layers", golden.ALL_LAYERS, "-o", str(svg), "--json", str(rep)]) == 0
        assert (golden.sha(svg.read_bytes()), golden.sha(rep.read_bytes())) == \
            golden.COMPARE[kind, metric]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def assert_strict_report(text: str) -> None:
    """text is RFC 8259 JSON in the canonical layout, valid against the shipped schema."""
    report = json.loads(text, parse_constant=_reject_constant)
    assert text == oracles.report_text(report)
    if jsonschema is not None:
        jsonschema.validate(report, json.loads(SCHEMA_PATH.read_text()))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(k=st.integers(-320, 300), metric=st.sampled_from(["euclidean", "mahalanobis"]),
       hex_radius=st.none() | st.floats(5e-324, 1.7e308),
       bandwidth=st.none() | st.tuples(st.floats(5e-324, 1.7e308), st.floats(5e-324, 1.7e308)))
@example(k=-158, metric="mahalanobis", hex_radius=None, bandwidth=None)
@example(k=-160, metric="euclidean", hex_radius=None, bandwidth=None)
@example(k=-300, metric="mahalanobis", hex_radius=None, bandwidth=None)
@example(k=0, metric="mahalanobis", hex_radius=None, bandwidth=(1e308, 1e308))
@example(k=0, metric="mahalanobis", hex_radius=None, bandwidth=(1e-300, 1e-300))
@example(k=1, metric="mahalanobis", hex_radius=1e-20, bandwidth=None)
@example(k=1, metric="mahalanobis", hex_radius=1e308, bandwidth=None)
@example(k=1, metric="euclidean", hex_radius=1.7e308, bandwidth=None)
def test_compare_any_scale_exit_contract(k, metric, hex_radius, bandwidth):
    flags = ["--metric", metric, "--layers", ALL_LAYERS]
    if hex_radius is not None:
        flags += ["--hex-radius", repr(hex_radius)]
    if bandwidth is not None:
        flags += ["--bandwidth", f"{bandwidth[0]!r},{bandwidth[1]!r}"]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        code, err, svg, rep = run_compare(
            errors_csv(tmp / "in.csv", EDGE_SAMPLE * 10.0 ** k), tmp, flags)
        assert code in (0, 2, 3)
        if code == 3:
            assert err.startswith("error:") and err.count("\n") == 1
            assert not svg.exists()
        if code == 0:
            assert_strict_report(rep.read_text())


# Cells of the tiny CSVs: float64 edges, then an empty cell, a word and nan.
NUMBERS = ["0", "1", "-1", "1e16", "-1e16", "1e308", "-1e308", "5e-324", "1e-160"]
BAD_CELLS = ["", "x", "nan"]
# Files a run may write; the test puts them in a fresh directory.
FILES = ("in.csv", "figs", "x.svg", "rep.json", "out.csv")


def _flag(name, values=st.just(None)):
    """No flag, or the flag with one drawn value (None: the flag alone)."""
    return st.just([]) | values.map(lambda v: [name] if v is None else [name, v])


_positive = st.floats(5e-324, 1.7e308).map(repr)


@st.composite
def cli_cases(draw) -> tuple[list[str], str]:
    """(argv, CSV text): metrics or compare on a CSV of 1-8 rows and 1-3 models, or synth."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    # A few numbers per case, so that many cases keep to one magnitude and reach the figures.
    pool = st.sampled_from(draw(st.lists(st.sampled_from(NUMBERS), min_size=1, unique=True)))
    cells = [[draw(pool) for _ in range(m + 1)] for _ in range(n)]
    bad = draw(st.none() | st.sampled_from(BAD_CELLS))
    if bad is not None:  # at most one bad cell, so most inputs parse
        cells[draw(st.integers(0, n - 1))][draw(st.integers(0, m))] = bad
    names = [f"M{j}" for j in range(1, m + 1)]
    csv = "".join(",".join(row) + "\n" for row in [["id", "y_true", *names]]
                  + [[f"r{i}", *row] for i, row in enumerate(cells)])
    command = draw(st.sampled_from(["metrics", "compare", "synth"]))
    if command == "metrics":
        argv = ["metrics", "in.csv", *draw(_flag("--plots", st.just("figs"))),
                *draw(_flag("--global-scale")), *draw(_flag("--json"))]
    elif command == "compare":
        layers = st.lists(st.sampled_from(ERROR_SPACE_LAYERS), min_size=1, unique=True)
        argv = ["compare", "in.csv", "--a", draw(st.sampled_from(names)),
                "--b", draw(st.sampled_from(names)),
                "--metric", draw(st.sampled_from(["euclidean", "mahalanobis"])),
                "--layers", ",".join(draw(layers)),
                *draw(_flag("--bandwidth", st.tuples(_positive, _positive).map(",".join))),
                *draw(_flag("--hex-radius", _positive)),
                *draw(_flag("--json", st.just("rep.json"))),
                "-o", "x.svg"]
    else:
        kind = draw(st.sampled_from(sorted(SCENARIOS)))
        keys = sorted(set(inspect.signature(SCENARIOS[kind]).parameters) - {"n", "seed"})
        params = draw(st.dictionaries(st.sampled_from(keys), st.sampled_from(NUMBERS + ["nan"])))
        argv = _synth(kind, draw(st.integers(-1, 40)), *(f"{k}={v}" for k, v in params.items()),
                      seed=draw(st.integers(0, 3)))
    return argv, csv


def _synth(kind, n, *params, seed=0):
    return ["synth", "--kind", kind, "--n", str(n), "--seed", str(seed), "-o", "out.csv",
            *sum((["--param", p] for p in params), [])]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(case=cli_cases())
@example(case=(["metrics", "in.csv", "--plots", "figs"], "id,y_true,M1\nr0,1e16,1e16\n"))
@example(case=(["metrics", "in.csv", "--plots", "figs", "--global-scale"],
               "id,y_true,M1\nr0,-1e16,-1e16\n"))
@example(case=(["compare", "in.csv", "--a", "M1", "--b", "M1", "--metric", "euclidean",
                "--layers", "zones", "-o", "x.svg"], "id,y_true,M1\nr0,0,1e308\n"))
@example(case=(["compare", "in.csv", "--a", "M1", "--b", "M1", "--metric", "euclidean",
                "--layers", "zones", "-o", "x.svg"], "id,y_true,M1\nr0,0,-1e308\nr1,0,-1e308\n"))
@example(case=(_synth("correlated_pair", 40, "sigma=1e200"), ""))
@example(case=(_synth("equal_metrics_divergent", 5, "jitter=1e308", seed=1), ""))
@example(case=(_synth("correlated_pair", 40, "sigma=nan"), ""))
@example(case=(_synth("outlier_vs_moderate", 40, "moderate_sigma=5e-324"), ""))
# User text holding an LF, in a header, a model name, --a and a --param key: quoted.
@example(case=(["metrics", "in.csv"], '"i\nd",y_true,M1\nr0,1,1\n'))
@example(case=(["metrics", "in.csv"], 'id,y_true,"a\nb","a\nb"\nr0,1,1,1\n'))
@example(case=(["compare", "in.csv", "--a", "E\n1", "--b", "M1", "-o", "x.svg"],
               "id,y_true,M1\nr0,0,1\n"))
@example(case=(_synth("correlated_pair", 40, "a\nb=1"), ""))
@example(case=(_synth("correlated_pair", 40, "a\nb=x"), ""))
@example(case=(_synth("correlated_pair", 40, "a\nb=inf"), ""))
def test_cli_exit_contract(case):
    """Exit 0, 2 or 3 on any tiny input and flag values. A failure prints one
    error line and writes nothing; a report written is strict, schema-valid JSON."""
    argv, csv = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "in.csv").write_text(csv)
        argv = [str(tmp / a) if a in FILES else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
        assert code in (0, 2, 3)
        if code != 0:
            assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
            assert [p.name for p in tmp.iterdir()] == ["in.csv"]
        elif argv[0] == "metrics" and "--json" in argv:
            assert_strict_report(out.getvalue())
        elif "--json" in argv:
            assert_strict_report((tmp / "rep.json").read_text())
