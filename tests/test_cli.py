import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import errscope.cli
import errscope.report
from errscope.cli import main
from errscope.metrics import boxplot_stats

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


def test_synth_bad_param_exits_2(tmp_path):
    assert main(["synth", "--kind", "under_vs_over", "--n", "10",
                 "--param", "wat=1", "-o", str(tmp_path / "x.csv")]) == 2


def test_metrics_json_report(demo_csv, capsys, monkeypatch):
    monkeypatch.setenv("ERRSCOPE_NO_COLOR", "1")
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


def test_metrics_empty_file_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["metrics", str(empty)]) == 2
    assert "error" in capsys.readouterr().err


def test_metrics_missing_file_exits_2(tmp_path):
    assert main(["metrics", str(tmp_path / "nope.csv")]) == 2


def test_compare_outputs(demo_csv, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ERRSCOPE_NO_COLOR", "1")
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


@pytest.mark.parametrize("name", INPUT_BYTES)
def test_metrics_input_bytes(tmp_path, name):
    content, code = INPUT_BYTES[name]
    path = tmp_path / name
    path.write_bytes(content)
    assert main(["metrics", str(path)]) == code


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


def test_compare_identical_models(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ERRSCOPE_NO_COLOR", "1")
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


def test_cli_idempotent_byte_identical(demo_csv, tmp_path, monkeypatch):
    monkeypatch.setenv("ERRSCOPE_NO_COLOR", "1")
    outs = []
    for tag in ("one", "two"):
        svg = tmp_path / f"{tag}.svg"
        rep = tmp_path / f"{tag}.json"
        assert main(["compare", str(demo_csv), "--a", "B1", "--b", "B2",
                     "--layers", "zones,proximity,crown,hexbin,kde",
                     "-o", str(svg), "--json", str(rep)]) == 0
        outs.append((svg.read_bytes(), rep.read_bytes()))
    assert outs[0] == outs[1]


def test_synth_metrics_compare_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("ERRSCOPE_NO_COLOR", "1")
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
