"""Pinned sha256 digests of CLI outputs, so a refactor provably changes no byte.

Every input is a `synth` scenario at n=300, seed 17. A digest may change only
with a change of output that is intended and recorded in CHANGES.md.
"""

import hashlib
import io
import os
import platform
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import errscope
from errscope.cli import main

N, SEED = 300, 17
ALL_LAYERS = "zones,proximity,crown,kde,hexbin"
PAIRS = {
    "asymmetric_pair": ("E1", "E2"),
    "correlated_pair": ("E1", "E2"),
    "equal_metrics_divergent": ("D1", "D2"),
    "outlier_vs_moderate": ("B1", "B2"),
    "under_vs_over": ("C1", "C2"),
}

SYNTH_CSV = {
    "asymmetric_pair":
        "644dd4dbbf84edfcf89066013c7d5cf6823eb6608ae9f7b19f19370b1db1dc65",
    "correlated_pair":
        "d6d30bec36c7109b9d7f7faa2920f65bd470169a99ebac69c69e99f97457c916",
    "equal_metrics_divergent":
        "92a1c81000dff036fe51e1a499678fc26ad5af921d7ef5ce5a256d99a808dfc5",
    "outlier_vs_moderate":
        "c0f2444eff59ed90b03629bc078635e661fa10da547e2426d48239fc0c13ef96",
    "under_vs_over":
        "c18aadb21d669da9fe719314efc656a4223cc3c1769b2538afb080cf1c52fecf",
}

# (kind, metric) -> (SVG, JSON report) of `compare --layers ALL_LAYERS --json`
COMPARE = {
    ("asymmetric_pair", "euclidean"): (
        "b7d37d46214fdc1b189070a58b7dac3a7a220a4579af1a838e4336359b519a2c",
        "9debcdff3d809fb3d37bbf9cf05377579af84368609059912441e6bd49161f81"),
    ("asymmetric_pair", "mahalanobis"): (
        "b1a90ff142a02c798c779fdebbf8baf53014d773231cc4b5ce22507da99fc0b4",
        "3420cb1b499d629680420d91507ab5025e6b1314ca81c5383e358edfa9550eb2"),
    ("correlated_pair", "euclidean"): (
        "4af3e7945090b784757c1c180f371311d88a4b3f7db4b29aa093e0ad6dea413a",
        "2753f9696bd7811c0a4ee96d6289ba503a3bbc1d5fb911ba5cf23f3fb65f5466"),
    ("correlated_pair", "mahalanobis"): (
        "85af9730d0ff508bf84df465cfdd6be2776e354e9437f0437f32ea8b43154729",
        "f15734f0aae25de189384f8c54ef40a1ea7e881b27ba8e6b696f6b5ddcf86fff"),
    ("equal_metrics_divergent", "euclidean"): (
        "fd1f7556ac86d92dd4c141acfef1568d9e28e51e32159a61e52f25986d1d9eb3",
        "bbe3a2d4faf86a33b9775f22ba9dfab570c7e2dd921ad685bf56243fb73d577d"),
    ("equal_metrics_divergent", "mahalanobis"): (
        "50da1649511b3c2f3b9a8a61041b63b1f9b8b1f7c1276b4271701934aa8461bd",
        "988c9791d8c27c275b71d32df0011a590f6cdb363dbe1bf402d4c58ddf871843"),
    ("outlier_vs_moderate", "euclidean"): (
        "6e56fd7f2fcba81fb6d77f8569737a3090a9b33a1396fe160e90195e029c75a4",
        "402e0d27750009a969017b0998e3b5466cf992cce57b668a341f4188b56370e7"),
    ("outlier_vs_moderate", "mahalanobis"): (
        "9ae313f4a7ec9829968d42a00646a3e3af10de4068e673ce8788badcf6c9c5a6",
        "4b6bc65191562e7ccb89703717ac7ec7492d865616a00266f90f2e1ad89576eb"),
    ("under_vs_over", "euclidean"): (
        "9dbe1f1f67ad51339d7be735877d004e64788e43332048520990b78b7d613bd6",
        "b72af6fea74972f6d326f1842024bab645368dae563411e376e308321c94990f"),
    ("under_vs_over", "mahalanobis"): (
        "4cea1069187fb28da5dd99feddd793dcb6e72525a485aec186b7cf28296a1023",
        "083457844d1bdfc565b51c74699aa30b5fe3b49b8f0ea807a3b7f050fa3cbadc"),
}

# `metrics --plots DIR --json` on asymmetric_pair
METRICS = {
    "boxplots.svg": "4bea8c781852b11d843db2a3795e03d7c1a0b839740413e5e17705c27899351a",
    "pred_vs_actual_grid.svg": "cf944c78a910954ec4e50b2e49141751c6c10d12b93d066a20801de3ea2f1d6c",
    "stdout": "026c501007c22e1fde7ca3fa0cf92cadff504560b885f8779513e3ad6fb53f95",
}


# Writer paths the digests above leave out, pinned before the three text writers
# shared one row helper. `compare --layers zones,scatter,crown` on correlated_pair:
SCATTER = {
    "euclidean": "5af4b01e4329212851380fe9b5ed046433e24f210975944ca4ace9b29e5833f1",
    "mahalanobis": "87817eeb49c4fffa85398dc8e9e49cb9e035e200802a066cb34be3aa273879cf",
}
# `metrics --plots DIR --global-scale` on asymmetric_pair
GLOBAL_GRID = "d0ad3311b4fec8dab9acf6959ecf0846679374b8d52fcb1125bedd97584ee9db"
# under_vs_over at n = 2^14 + 1, four chunks of the writers and one row: the synth CSV,
# then the SVG and report of `compare --layers ALL_LAYERS --json`.
CHUNK_N = (1 << 14) + 1
CHUNK = ("e31ff4f3701e34ca867d92b5a3cf4a4e5f90c2004858ec2cd85b4a360f0536f3",
         "8bec29176ccf3874f7269b3f31abfee04993c5ee62c525a306237a8b5371e2ba",
         "b0fccfe90f670f90c774103de7ed4569ed8aa0f57c39b58ef3bb49ad88b1e83a")


# The covariance ridge, which no scenario above reaches; pinned before the
# error-space steps were folded into analyze_pair. `compare --json` on an
# 8-row rank-1 cloud with errors on y = 2x (ridged covariance
# [6.000000024, 12.0, 12.0, 24.000000024]) and on three rows of equal values.
RIDGE_INPUTS = {
    "rank1": "id,y_true,M1,M2\n" + "".join(f"r{i},0,{i},{2 * i}\n" for i in range(8)),
    "identical": "id,y_true,M1,M2\n" + "".join(f"r{i},1,2,3\n" for i in range(3)),
}
RIDGE = {
    ("identical", "euclidean"): (
        "395e27a5321dcabff64606d82186ee996a8dc09dbaf6bbe7813e2aded7782c84",
        "3b1519ce98e5163000d782df7fb7b402463d854d15e7f0a46c46cd86b4db0c50"),
    ("identical", "mahalanobis"): (
        "d4a1ea730eaec20a8a80fef13a2fce33158b2461018a56027a143b760931fdbc",
        "b7cabe953080eb42c28d59eff1c1a91e14c9b441c29f939833af0b96a2403c7c"),
    ("rank1", "euclidean"): (
        "8172d32b1af5b4e281bec75dba31f04a7171677d0a17273a47f88449ed2cb840",
        "5e30fde481fe4204939a1476c0b1124fe83499a055285e84f709fe06d4cee96e"),
    ("rank1", "mahalanobis"): (
        "b08c0e7691a125aa988ec75b5f70fc94aeac63d9c93dc49de9141312371fc069",
        "cce05152d921783362d158f78671ecea4054f1a3144fd568066b5848acbfd54c"),
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_outputs(outdir: Path) -> dict:
    """The digests of every output pinned above, built with the CLI in outdir."""
    def run(*argv) -> str:
        """Run the CLI, which must exit 0; the digest of its stdout."""
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            assert main([str(a) for a in argv]) == 0
        return sha(stdout.getvalue().encode("utf-8"))

    def digests(*paths) -> tuple[str, ...]:
        return tuple(sha(path.read_bytes()) for path in paths)

    csv, svg, report, figs = (outdir / name
                              for name in ("in.csv", "error_space.svg", "report.json", "figs"))
    out = {}
    for kind in PAIRS:
        run("synth", "--kind", kind, "--n", N, "--seed", SEED, "-o", outdir / f"{kind}.csv")
        out["synth", kind] = sha((outdir / f"{kind}.csv").read_bytes())
    for kind, metric in COMPARE:
        a, b = PAIRS[kind]
        run("compare", outdir / f"{kind}.csv", "--a", a, "--b", b, "--metric", metric,
            "--layers", ALL_LAYERS, "-o", svg, "--json", report)
        out["compare", kind, metric] = digests(svg, report)
    out["metrics"] = {"stdout": run("metrics", outdir / "asymmetric_pair.csv",
                                    "--plots", figs, "--json")}
    for name in ("boxplots.svg", "pred_vs_actual_grid.svg"):
        out["metrics"][name] = sha((figs / name).read_bytes())
    for metric in SCATTER:
        run("compare", outdir / "correlated_pair.csv", "--a", "E1", "--b", "E2",
            "--metric", metric, "--layers", "zones,scatter,crown", "-o", svg)
        out["scatter", metric] = sha(svg.read_bytes())
    run("metrics", outdir / "asymmetric_pair.csv", "--plots", figs, "--global-scale")
    out["global_grid"] = sha((figs / "pred_vs_actual_grid.svg").read_bytes())
    run("synth", "--kind", "under_vs_over", "--n", CHUNK_N, "--seed", SEED, "-o", csv)
    run("compare", csv, "--a", "C1", "--b", "C2", "--layers", ALL_LAYERS,
        "-o", svg, "--json", report)
    out["chunk"] = digests(csv, svg, report)
    for case, metric in RIDGE:
        csv.write_text(RIDGE_INPUTS[case], encoding="utf-8")
        run("compare", csv, "--a", "M1", "--b", "M2", "--metric", metric,
            "-o", svg, "--json", report)
        out["ridge", case, metric] = digests(svg, report)
    return out


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    return golden_outputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("kind", sorted(PAIRS))
def test_synth_csv_digest(golden, kind):
    assert golden["synth", kind] == SYNTH_CSV[kind]


@pytest.mark.parametrize("kind", sorted(PAIRS))
@pytest.mark.parametrize("metric", ["euclidean", "mahalanobis"])
def test_compare_digests(golden, kind, metric):
    assert golden["compare", kind, metric] == COMPARE[(kind, metric)]


def test_metrics_digests(golden):
    assert golden["metrics"] == METRICS


@pytest.mark.parametrize("metric", ["euclidean", "mahalanobis"])
def test_compare_scatter_digest(golden, metric):
    assert golden["scatter", metric] == SCATTER[metric]


def test_metrics_global_scale_digest(golden):
    assert golden["global_grid"] == GLOBAL_GRID


def test_past_one_chunk_digests(golden):
    assert golden["chunk"] == CHUNK


@pytest.mark.parametrize("case", sorted(RIDGE_INPUTS))
@pytest.mark.parametrize("metric", ["euclidean", "mahalanobis"])
def test_ridge_path_digests(golden, case, metric):
    assert golden["ridge", case, metric] == RIDGE[(case, metric)]


# A child process prints the digests of the KDE values of two scenarios, then of
# every golden output.
DIGESTS = """
import hashlib, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from test_golden import golden_outputs
from errscope import generate, kde2d
for kind in ("correlated_pair", "outlier_vs_moderate"):
    values = kde2d(generate(kind, 3000, seed=1).errors[:, :2]).values
    print(kind, hashlib.sha256(values.tobytes()).hexdigest())
with tempfile.TemporaryDirectory() as outdir:
    for key, digests in golden_outputs(Path(outdir)).items():
        print(key, digests)
"""
CPU_VARS = ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OpenBLAS core types and numpy's dispatch list are x86-64 names")
def test_outputs_independent_of_blas_and_simd():
    # OpenBLAS reads its thread count and kernel, and numpy its SIMD level, when numpy
    # loads, so each setting gets its own process. SkylakeX is not forced: an AVX-512
    # kernel can crash a CPU without AVX-512.
    src = str(Path(errscope.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k not in CPU_VARS} | {"PYTHONPATH": path}
    cpu = np._core._multiarray_umath
    settings = [{}, {"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"},
                {"OPENBLAS_CORETYPE": "Prescott"},
                {"NPY_DISABLE_CPU_FEATURES": " ".join(cpu.__cpu_dispatch__)}]
    if cpu.__cpu_features__["AVX2"]:  # the Haswell kernels use AVX2
        settings.append({"OPENBLAS_CORETYPE": "Haswell"})
    digests = [subprocess.run([sys.executable, "-c", DIGESTS, str(Path(__file__).parent)],
                              capture_output=True, text=True, check=True, timeout=300,
                              env=env | setting).stdout for setting in settings]
    assert digests[0].count("\n") == 2 + 24  # the KDE digests, then the golden outputs
    for setting, text in zip(settings, digests):
        # numpy's exp is SIMD-dispatched, so the KDE values may move with the SIMD level;
        # no output built from them may.
        skip = 2 if "NPY_DISABLE_CPU_FEATURES" in setting else 0
        assert text.splitlines()[skip:] == digests[0].splitlines()[skip:], setting
