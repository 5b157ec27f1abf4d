"""Command line front end.

Subcommands: ``generate`` (synthetic instance), ``solve-full`` (hourly
dispatch), ``aggregate`` (one clustering method), ``compare`` (k-means vs
basis scorecard), ``plot`` (SVG scatter of a saved clustering).

Exit codes: 0 success, 1 runtime failure (infeasible dispatch, failed
aggregation self-check), 2 usage, config, or data errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .data_io import (
    DataError,
    default_spec,
    dispatch_summary,
    dump_json,
    generate_synthetic,
    load_config,
    load_spec,
    read_clusters,
    regime_fractions,
    write_clusters,
    write_config,
    write_report,
    write_series,
)
from .dispatch_model import (
    DispatchError,
    InfeasiblePeriodError,
    SystemData,
    solve_full,
)
from .evaluation import EvaluationReport, compare_methods_detailed
from .lp_core import LPError
from .plotting import write_plot
from .tsa_clustering import (
    ClusterMethod,
    ClusterModel,
    FeatureMatrix,
    _check_partition,
    _member_means,
    basis_cluster,
    kmeans,
    normalize_features,
)

SELF_CHECK_LIMIT_PCT = 1e-4


def _outdir(path_str: str) -> Path:
    path = Path(path_str)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_generate(args) -> int:
    spec = load_spec(args.spec) if args.spec else default_spec()
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    if args.hours is not None:
        spec = dataclasses.replace(spec, hours=args.hours)
    system = generate_synthetic(spec)
    out = _outdir(args.out)
    write_series(system, out / "series.csv")
    write_config(system, out / "config.json", "series.csv")
    fractions = regime_fractions(system)
    dump_json(
        {
            "hours": system.horizon,
            "seed": spec.seed,
            "fractions": dict(sorted(fractions.items())),
        },
        out / "regimes.json",
    )
    print(f"wrote {out / 'series.csv'} ({system.horizon} hours)")
    print(f"wrote {out / 'config.json'}")
    print(f"wrote {out / 'regimes.json'}")
    for label in sorted(fractions):
        print(f"  {label}: {100.0 * fractions[label]:.2f}% of hours")
    return 0


def _cmd_solve_full(args) -> int:
    system = load_config(args.config)
    full = solve_full(system)
    summary = dispatch_summary(system, full)
    print(f"hours      : {summary['hours']}")
    print(f"total cost : {summary['total_cost']:.6f}")
    for label, hours in summary["regime_hours"].items():
        print(f"  {label}: {hours} h")
    if args.out:
        dump_json(summary, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_aggregate(args) -> int:
    system = load_config(args.config)
    features = normalize_features(system)
    if args.method == "kmeans":
        if args.k is None:
            print("error: --k is required with --method kmeans", file=sys.stderr)
            return 2
        model = kmeans(features, args.k, seed=args.seed)
    else:
        if args.k is not None:
            print(
                "warning: --k is ignored with --method basis "
                "(k is discovered from the optimal bases)",
                file=sys.stderr,
            )
        model = basis_cluster(system, features=features)
    out = _outdir(args.out)
    path = out / f"clusters_{args.method}.json"
    write_clusters(model, features, path)
    print(f"wrote {path}")
    print(f"method {args.method}: k={model.k}")
    for cid in range(model.k):
        label = model.labels[cid] if model.labels else f"cluster {cid}"
        print(f"  cluster {cid}: {label} ({int(model.weights[cid])} h)")
    return 0


def _format_summary(reports: list[EvaluationReport]) -> str:
    lines = [
        f"full horizon cost : {reports[0].full_cost:.12g}",
        "",
        f"{'method':<8} {'k':>3} {'input MSE':>14} {'aggregated cost':>18} {'output error %':>16}",
    ]
    for r in reports:
        lines.append(
            f"{r.method:<8} {r.k:>3} {r.input_mse:>14.6g} "
            f"{r.aggregated_cost:>18.12g} {r.output_error_pct:>16.6g}"
        )
    return "\n".join(lines) + "\n"


def _cmd_compare(args) -> int:
    system = load_config(args.config)
    result = compare_methods_detailed(system, k_for_kmeans=args.k, seed=args.seed)
    out = _outdir(args.out)
    write_report(result.kmeans_report, out / "kmeans_report.json")
    write_report(result.basis_report, out / "basis_report.json")
    write_clusters(result.kmeans_model, result.features, out / "clusters_kmeans.json")
    write_clusters(result.basis_model, result.features, out / "clusters_basis.json")
    summary = _format_summary(result.reports)
    (out / "summary.txt").write_text(summary)
    print(summary, end="")
    print(f"wrote reports and cluster files to {out}")
    if result.basis_report.output_error_pct > SELF_CHECK_LIMIT_PCT:
        print(
            f"error: basis aggregation self-check failed: output error "
            f"{result.basis_report.output_error_pct:.6g}% exceeds "
            f"{SELF_CHECK_LIMIT_PCT:g}%",
            file=sys.stderr,
        )
        return 1
    return 0


def _rebuild_model(clusters, features: FeatureMatrix) -> ClusterModel:
    if len(clusters.assignment) != features.H:
        raise DataError(
            f"clusters file covers {len(clusters.assignment)} hours but the "
            f"config series has {features.H}"
        )
    # Saved centroids are member means, so rebuild them exactly from the
    # assignment instead of inverting their rounded physical values.
    # Check the ids and weights first: an id without members would divide
    # 0 by 0 in the means.
    _check_partition(clusters.k, clusters.assignment, clusters.weights)
    centroids = _member_means(features.values.T, clusters.assignment, clusters.k)
    basis_map = None
    if all(b is not None for b in clusters.bases):
        basis_map = {cid: b for cid, b in enumerate(clusters.bases)}
    return ClusterModel(
        k=clusters.k,
        centroids=centroids,
        assignment=clusters.assignment,
        weights=clusters.weights,
        method=ClusterMethod(clusters.method),
        basis_map=basis_map,
        labels=clusters.labels,
    )


def _cmd_plot(args) -> int:
    system = load_config(args.config)
    features = normalize_features(system)
    clusters = read_clusters(args.clusters)
    try:
        model = _rebuild_model(clusters, features)
    except (ValueError, KeyError) as exc:
        raise DataError(f"clusters file does not match config: {exc}") from exc
    title = args.title if args.title is not None else f"{clusters.method} clustering"
    write_plot(model, features, args.out, title=title)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsagg",
        description="Basis-oriented time-series aggregation for dispatch LPs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic instance")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--spec", help="synthetic spec JSON (default: built-in year)")
    p.add_argument("--seed", type=int, help="override the spec seed")
    p.add_argument("--hours", type=int, help="override the spec horizon")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve-full", help="solve every hour of the horizon")
    p.add_argument("--config", required=True, help="system config JSON")
    p.add_argument("--out", help="write a JSON summary here")
    p.set_defaults(func=_cmd_solve_full)

    p = sub.add_parser("aggregate", help="cluster hours with one method")
    p.add_argument("--config", required=True, help="system config JSON")
    p.add_argument("--method", required=True, choices=["kmeans", "basis"])
    p.add_argument("--k", type=int, help="cluster count (kmeans only)")
    p.add_argument("--seed", type=int, default=0, help="kmeans seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("compare", help="k-means vs basis clustering scorecard")
    p.add_argument("--config", required=True, help="system config JSON")
    p.add_argument("--k", type=int, help="override k for kmeans")
    p.add_argument("--seed", type=int, default=0, help="kmeans seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("plot", help="render a saved clustering as SVG")
    p.add_argument("--config", required=True, help="system config JSON")
    p.add_argument("--clusters", required=True, help="clusters JSON to draw")
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument("--title", help="figure title")
    p.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasiblePeriodError as exc:
        print(f"error: hour {exc.index} is infeasible: {exc}", file=sys.stderr)
        return 1
    except LPError as exc:
        print(f"error: LP solve failed: {exc}", file=sys.stderr)
        return 1
    except (DataError, DispatchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
