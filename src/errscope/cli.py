"""Command-line interface: metrics, compare and synth subcommands.

Exit codes: 0 success, 2 input/usage error, 3 numerical degeneracy.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__
from .density import default_hex_radius, hexbin, kde2d
from .errorspace import analyze_pair
from .exceptions import DegenerateDistribution, ErrscopeError
from .ingest import parse_predictions
from .metrics import BoxplotStats, mae, rmse
from .render import (
    ERROR_SPACE_LAYERS,
    check_layers,
    render_boxplots,
    render_error_space,
    render_model_grid,
)
from .report import build_metrics_report, build_pair_report, to_json
from .synth import SCENARIOS, generate


def _load(path: str):
    p = Path(path)
    fmt = "json" if p.suffix.lower() == ".json" else "csv"
    return parse_predictions(p.read_bytes(), format=fmt)


def _print_metrics_table(report: dict) -> None:
    print(f"{'model':<12} {'mae':>10} {'rmse':>10} {'r2':>8}  ranked by {report['ranking']['key']}")
    for name in report["ranking"]["order"]:
        m = report["per_model"][name]["metrics"]
        r2 = "n/a" if m["r_squared"] is None else f"{m['r_squared']:.4f}"
        print(f"{name:<12} {m['mae']:>10.4f} {m['rmse']:>10.4f} {r2:>8}")
    for w in report["warnings"]:
        print(f"warning: {w}", file=sys.stderr)


def cmd_metrics(args) -> int:
    ps = _load(args.input)
    report = build_metrics_report(ps, sort_key=args.sort)
    if args.plots:
        outdir = Path(args.plots)
        outdir.mkdir(parents=True, exist_ok=True)
        order = report["ranking"]["order"]
        stats = [(m, BoxplotStats(**report["per_model"][m]["boxplot"])) for m in order]
        render_boxplots(stats).save(outdir / "boxplots.svg")
        render_model_grid(ps, order, global_scale=args.global_scale).save(
            outdir / "pred_vs_actual_grid.svg")
    if args.json:
        sys.stdout.write(to_json(report))
    else:
        _print_metrics_table(report)
    return 0


def cmd_compare(args) -> int:
    ps = _load(args.input)
    analysis = analyze_pair(ps.errors[:, [ps.index(args.a), ps.index(args.b)]],
                            args.a, args.b, metric=args.metric)

    kde = kde2d(analysis.e, bandwidth=args.bandwidth) if "kde" in args.layers else None
    hexgrid = None
    if "hexbin" in args.layers:
        radius = default_hex_radius(analysis.e) if args.hex_radius is None else args.hex_radius
        hexgrid = hexbin(analysis.e, radius)

    render_error_space(analysis, layers=args.layers, kde=kde, hexgrid=hexgrid).save(args.output)

    report = build_pair_report(ps, analysis)
    if args.json:
        report["errorspace"] = analysis.to_dict()
        Path(args.json).write_text(to_json(report), encoding="utf-8")

    pair = report["pair"]
    print(f"error space: {args.a} (x) vs {args.b} (y), metric={args.metric}")
    for table in ("zone", "quadrant"):
        print(f"{table:<14} count")
        for name, count in pair[f"{table}_counts"].items():
            print(f"{name:<14} {count}")
    corr = pair["error_correlation"]
    print(f"error correlation: {'n/a' if corr is None else format(corr, '.4f')}")
    print(f"median2d: ({analysis.median2d[0]:.4f}, {analysis.median2d[1]:.4f})")
    print(f"crown threshold: {analysis.crown_threshold:.4f}")
    print(f"fraction with e_b > e_a: {pair['fraction_b_above_a']:.4f}")
    print(f"figure written to {args.output}")
    return 0


def cmd_synth(args) -> int:
    params = {}
    for kv in args.param:
        if "=" not in kv:
            raise ErrscopeError(f"--param expects key=value, got {kv!r}")
        key, value = kv.split("=", 1)
        try:
            params[key] = float(value)
        except ValueError:
            raise ErrscopeError(f"--param {key}: {value!r} is not a number") from None
    try:
        ps = generate(args.kind, args.n, seed=args.seed, params=params)
    except ValueError as exc:
        raise ErrscopeError(str(exc)) from None
    Path(args.output).write_text(ps.to_csv(), encoding="utf-8", newline="")

    print(f"scenario {args.kind}: n={args.n} seed={args.seed} -> {args.output}")
    print(f"{'model':<8} {'mae':>10} {'rmse':>10}")
    for m, errors in zip(ps.model_names, ps.errors.T):
        print(f"{m:<8} {mae(errors):>10.4f} {rmse(errors):>10.4f}")
    return 0


def _positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive finite number")
    return value


def _bandwidth(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"{text!r} is not HX,HY")
    return (_positive(parts[0]), _positive(parts[1]))


def _layers(text: str) -> tuple[str, ...]:
    try:
        return check_layers(s.strip() for s in text.split(",") if s.strip())
    except ErrscopeError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="errscope",
        description="Compare regression models through per-instance errors, "
                    "1D summaries and the 2D error space.",
    )
    parser.add_argument("--version", action="version", version=f"errscope {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metrics", help="per-model metrics, ranking and 1D figures")
    p.add_argument("input", help="prediction file (.csv or .json)")
    p.add_argument("--sort", choices=["mae", "rmse"], default="rmse")
    p.add_argument("--plots", metavar="DIR", help="write boxplot and grid SVGs here")
    p.add_argument("--global-scale", action="store_true",
                   help="normalize the grid colormap over all models at once")
    p.add_argument("--json", action="store_true", help="emit the JSON report to stdout")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("compare", help="pairwise 2D error-space analysis")
    p.add_argument("input", help="prediction file (.csv or .json)")
    p.add_argument("--a", required=True, help="model on the x-axis")
    p.add_argument("--b", required=True, help="model on the y-axis")
    p.add_argument("--metric", choices=["euclidean", "mahalanobis"],
                   default="mahalanobis")
    p.add_argument("--layers", type=_layers, default="zones,proximity,crown",
                   help="comma-separated: " + ",".join(ERROR_SPACE_LAYERS))
    p.add_argument("--bandwidth", type=_bandwidth, metavar="HX,HY",
                   help="KDE bandwidth override")
    p.add_argument("--hex-radius", type=_positive, help="hexbin cell radius")
    p.add_argument("-o", "--output", default="error_space.svg",
                   help="output SVG path (default error_space.svg)")
    p.add_argument("--json", metavar="PATH", help="also write the JSON report here")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("synth", help="generate a synthetic prediction set")
    p.add_argument("--kind", required=True, choices=sorted(SCENARIOS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("-o", "--output", required=True, help="output CSV path")
    p.set_defaults(fn=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except DegenerateDistribution as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ErrscopeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
