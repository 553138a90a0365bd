import io
import json
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import errscope.cli
import errscope.report
from errscope.cli import main
from errscope.metrics import boxplot_stats
from errscope.synth import generate

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
}


@pytest.mark.parametrize("e, flags", EDGE_CASES.values(), ids=EDGE_CASES)
def test_compare_float64_edges_exit_3(tmp_path, e, flags):
    code, err, svg, rep = run_compare(errors_csv(tmp_path / "in.csv", e), tmp_path, flags)
    assert code == 3
    assert err.startswith("error:") and err.count("\n") == 1
    assert not svg.exists() and not rep.exists()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


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
            report = json.loads(rep.read_text(), parse_constant=_reject_constant)
            if jsonschema is not None:
                jsonschema.validate(report, json.loads(SCHEMA_PATH.read_text()))
