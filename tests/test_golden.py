"""Pinned sha256 digests of CLI outputs, so a refactor provably changes no byte.

Every input is a `synth` scenario at n=300, seed 17. A digest may change only
with a change of output that is intended and recorded in CHANGES.md.
"""

import hashlib

import pytest

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
        "2d0f5f3690b549f9812d92ef8a93e9c917bb5e292d90c52850a04e4c5cfb4437",
    "correlated_pair":
        "67b6508adbcf882d5608fd6ca0d8aa52a0fa207dcd40d5d30e259a295325223b",
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
        "4e96b64cd8d8a5f617b8c02e65e1dff7be985a0706d2df38b74d1d9474651da3",
        "c3fee582f23e89bf43f0cef71f1873ddc5950b019c70dfa8f0464d14e25596ef"),
    ("asymmetric_pair", "mahalanobis"): (
        "eb354f9deee56fbd41a62938f73e559dd51dff8720bf656c111bbdd8dccde6f2",
        "3a32c90f65fd258f2ed64a4a3ca790322404eaea8875f130849b97b0effdfc56"),
    ("correlated_pair", "euclidean"): (
        "6b3d4fc0ae2eea1658eb808502d1ab4c6a46f0e995af972bdebb8f2532c9c5eb",
        "7a49098d66f3baa8232414037e7065b14881ec2db019dbffbb6eabdc21f98f88"),
    ("correlated_pair", "mahalanobis"): (
        "1ffa17a624d08e4db083be1e0c559b165567a9389ba24c179641d159e7ea138e",
        "5ad77f29004925b12cc6e08e65c393ef9f2fdb5615b64f55efd03fec17ac941f"),
    ("equal_metrics_divergent", "euclidean"): (
        "fd1f7556ac86d92dd4c141acfef1568d9e28e51e32159a61e52f25986d1d9eb3",
        "9b7d69603f895e40a644fb66fb5b69c9bbd442d9d8c991c1b359d0974b344d4c"),
    ("equal_metrics_divergent", "mahalanobis"): (
        "50da1649511b3c2f3b9a8a61041b63b1f9b8b1f7c1276b4271701934aa8461bd",
        "b342438d59e147a2b7f93f0bab162bbe3a99a22e14e8ef44600ae06cec3dc14e"),
    ("outlier_vs_moderate", "euclidean"): (
        "6e56fd7f2fcba81fb6d77f8569737a3090a9b33a1396fe160e90195e029c75a4",
        "7dbc4ae3253e7b51e1d7dca87390217f9e0173d74dacaf1cd67e01f1af3fa214"),
    ("outlier_vs_moderate", "mahalanobis"): (
        "9ae313f4a7ec9829968d42a00646a3e3af10de4068e673ce8788badcf6c9c5a6",
        "209a9d520620656e97e246d4fcb09efaa6d3c5446ed0daea526882f278ef99b0"),
    ("under_vs_over", "euclidean"): (
        "d7b83c6189a1f35031b5b656cc2b9cc25f8caa2179d0d7df46a23e1aaef98c2d",
        "d8ae9185851fb4c1ac0b760a6725d2f9415c7f36bcf62e3648d9a77bfae273e6"),
    ("under_vs_over", "mahalanobis"): (
        "21f4e7e0321839e367ad5572fe24fc436d736dc4e27635bfd62126cd6c4ce041",
        "bd41cd768723aab30c04041ace194013b657bbae1c8ce8ace1f98592fb595880"),
}

# `metrics --plots DIR --json` on asymmetric_pair
METRICS = {
    "boxplots.svg": "f81f6e80ae6470b58ac9727b621aa11351f3eafbb7361deb53e4b65d12feb9ec",
    "pred_vs_actual_grid.svg": "8e29cfe8782f4fa00c0f4fe01f85702f93ff12b0dcd3b7139f1c75adcb97febe",
    "stdout": "d733a43cca1a88525e4305699b9bf6a673e93995b2d8dc36adb306256d0a9c66",
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("golden")
    paths = {}
    for kind in PAIRS:
        paths[kind] = outdir / f"{kind}.csv"
        assert main(["synth", "--kind", kind, "--n", str(N), "--seed", str(SEED),
                     "-o", str(paths[kind])]) == 0
    return paths


@pytest.mark.parametrize("kind", sorted(PAIRS))
def test_synth_csv_digest(synth_csv, kind):
    assert sha(synth_csv[kind].read_bytes()) == SYNTH_CSV[kind]


@pytest.mark.parametrize("kind", sorted(PAIRS))
@pytest.mark.parametrize("metric", ["euclidean", "mahalanobis"])
def test_compare_digests(synth_csv, tmp_path, kind, metric):
    a, b = PAIRS[kind]
    svg, report = tmp_path / "error_space.svg", tmp_path / "report.json"
    assert main(["compare", str(synth_csv[kind]), "--a", a, "--b", b,
                 "--metric", metric, "--layers", ALL_LAYERS,
                 "-o", str(svg), "--json", str(report)]) == 0
    assert (sha(svg.read_bytes()), sha(report.read_bytes())) == COMPARE[(kind, metric)]


def test_metrics_digests(synth_csv, tmp_path, capsys):
    capsys.readouterr()
    assert main(["metrics", str(synth_csv["asymmetric_pair"]),
                 "--plots", str(tmp_path), "--json"]) == 0
    got = {name: sha((tmp_path / name).read_bytes())
           for name in ("boxplots.svg", "pred_vs_actual_grid.svg")}
    got["stdout"] = sha(capsys.readouterr().out.encode("utf-8"))
    assert got == METRICS


# Writer paths the digests above leave out, pinned before the three text writers
# shared one row helper. `compare --layers zones,scatter,crown` on correlated_pair:
SCATTER = {
    "euclidean": "23082320c921d1823767855448b1250916d197c760eadd2514bb42b6b1682b52",
    "mahalanobis": "0174d4fc09b36f65b681cb844da99240c4684c89cfc34d0378686778a5a53545",
}
# `metrics --plots DIR --global-scale` on asymmetric_pair
GLOBAL_GRID = "e815bd615971068adf74fb6318f81d170ef6fd022ce1638e6db5f01c2f459954"
# under_vs_over at n = 2^14 + 1, four chunks of the writers and one row: the synth CSV,
# then the SVG and report of `compare --layers ALL_LAYERS --json`.
CHUNK_N = (1 << 14) + 1
CHUNK = ("e31ff4f3701e34ca867d92b5a3cf4a4e5f90c2004858ec2cd85b4a360f0536f3",
         "05b266428fa2c5582371aefecdbab095b65e2d6656791e7df5999c098e35f41a",
         "3d29ab012ae9d6bbbee46e9c6945cc2a87244f7fddcd556201def763177b452d")


@pytest.mark.parametrize("metric", ["euclidean", "mahalanobis"])
def test_compare_scatter_digest(synth_csv, tmp_path, metric):
    svg = tmp_path / "error_space.svg"
    assert main(["compare", str(synth_csv["correlated_pair"]), "--a", "E1", "--b", "E2",
                 "--metric", metric, "--layers", "zones,scatter,crown", "-o", str(svg)]) == 0
    assert sha(svg.read_bytes()) == SCATTER[metric]


def test_metrics_global_scale_digest(synth_csv, tmp_path):
    assert main(["metrics", str(synth_csv["asymmetric_pair"]),
                 "--plots", str(tmp_path), "--global-scale"]) == 0
    assert sha((tmp_path / "pred_vs_actual_grid.svg").read_bytes()) == GLOBAL_GRID


def test_past_one_chunk_digests(tmp_path):
    csv, svg, report = (tmp_path / name for name in ("in.csv", "error_space.svg", "report.json"))
    assert main(["synth", "--kind", "under_vs_over", "--n", str(CHUNK_N), "--seed", str(SEED),
                 "-o", str(csv)]) == 0
    assert main(["compare", str(csv), "--a", "C1", "--b", "C2", "--layers", ALL_LAYERS,
                 "-o", str(svg), "--json", str(report)]) == 0
    assert tuple(sha(p.read_bytes()) for p in (csv, svg, report)) == CHUNK


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
        "47ae42d2fa00330144a80d608b8b594a63604153ae322aea2974ea80b2a7023f",
        "12bd91039e40b940be7ff292a8ecc7c0826bddbba56229b185fae9fda01183d2"),
    ("identical", "mahalanobis"): (
        "8763d23e4d33d1cffba119cef0a1f5e324e791bc40e78f2642f10ac3ad541431",
        "8908ce77fe303cd42839cfb7d119c87bb14a4dc07c96bb03b87f21f06eb4d6c8"),
    ("rank1", "euclidean"): (
        "e3e0454e70f6511c00e746b382fb33bf0a9ce40904f51309df69954d752b2a91",
        "7036b4ddddb17d79c93acc6885ff8f7d215e5c796f92eaa00f42d295c75d2976"),
    ("rank1", "mahalanobis"): (
        "658ae3874282be880ff8c45fcf8e29af0a2d14707694c1d72e6e6b5d832fced9",
        "25887c44e783df00f1ecf6680ae93123cbf02f8761f7f02ed7d19786e97ba16c"),
}


@pytest.mark.parametrize("case", sorted(RIDGE_INPUTS))
@pytest.mark.parametrize("metric", ["euclidean", "mahalanobis"])
def test_ridge_path_digests(tmp_path, case, metric):
    csv, svg, report = (tmp_path / name for name in ("in.csv", "error_space.svg", "report.json"))
    csv.write_text(RIDGE_INPUTS[case], encoding="utf-8")
    assert main(["compare", str(csv), "--a", "M1", "--b", "M2", "--metric", metric,
                 "-o", str(svg), "--json", str(report)]) == 0
    assert (sha(svg.read_bytes()), sha(report.read_bytes())) == RIDGE[(case, metric)]
