import builtins
import errno
import inspect
import io
import itertools
import json
import tempfile
import warnings
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import svg_text

import errscope.cli
import errscope.ingest
import errscope.report
from errscope import analyze_pair, parse_predictions, render_error_space
from errscope.cli import main
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
     "error: scenario correlated_pair leaves float64 with these parameters\n"),
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


def test_compare_json_failure_removes_svg(demo_csv, tmp_path, capsys):
    capsys.readouterr()
    assert main(["compare", str(demo_csv), "--a", "B1", "--b", "B2", "-o", str(tmp_path / "a.svg"),
                 "--json", str(tmp_path / "nodir" / "r.json")]) == 2
    assert capsys.readouterr() == ("", f"error: [Errno 2] No such file or directory: "
                                       f"'{tmp_path / 'nodir' / 'r.json'}'\n")
    assert [p.name for p in tmp_path.iterdir()] == [demo_csv.name]


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
    svgs = []
    for tag, flags in (("default", []), ("explicit", ["--layers", "zones,proximity,crown"])):
        svg = tmp_path / f"{tag}.svg"
        assert main(["compare", str(demo_csv), "--a", "B1", "--b", "B2", *flags,
                     "-o", str(svg)]) == 0
        svgs.append(svg.read_bytes())
    ps = parse_predictions(demo_csv.read_bytes())
    analysis = analyze_pair(ps.errors[:, [ps.index("B1"), ps.index("B2")]], "B1", "B2")
    svgs.append(svg_text(render_error_space(analysis)).encode("utf-8"))
    assert svgs[0] == svgs[1] == svgs[2]


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
    # A finite axis limit whose span, twice the limit, overflows.
    "axis_span_1e308": (np.array([[1e308, 1e308]]), ["--metric", "euclidean", "--layers", "zones"]),
}


@pytest.mark.parametrize("e, flags", EDGE_CASES.values(), ids=EDGE_CASES)
def test_compare_float64_edges_exit_3(tmp_path, e, flags):
    code, err, svg, rep = run_compare(errors_csv(tmp_path / "in.csv", e), tmp_path, flags)
    assert code == 3
    assert err.startswith("error:") and err.count("\n") == 1
    assert not svg.exists() and not rep.exists()


def test_compare_other_model_overflow_leaves_no_svg(tmp_path):
    # M1 and M2 are fine; the report's metrics of M3 overflow.
    path = tmp_path / "in.csv"
    path.write_text("id,y_true,M1,M2,M3\na,0,1,2,1e200\nb,0,2,1,-1e200\n"
                    "c,0,3,-1,1e200\nd,0,-1,2,1\n")
    code, err, svg, rep = run_compare(path, tmp_path, [])
    assert code == 3
    assert err == "error: metrics of model 'M3' overflow float64\n"
    assert not svg.exists() and not rep.exists()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def assert_strict_report(text: str) -> None:
    """text is RFC 8259 JSON in the canonical layout, valid against the shipped schema."""
    report = json.loads(text, parse_constant=_reject_constant)
    assert text == json.dumps(report, indent=2) + "\n"
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
