"""Command-line harness: gen-graph, run, ingest, report.

Exit codes: 0 success, 2 configuration error, 3 numeric or divergence
error in single-trial mode, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .graphs import GenerationError, knn_graph
from .io import (
    IngestError,
    read_points_csv,
    write_edges_csv,
    write_points_csv,
)
from .scenarios import (
    ConfigError,
    ScenarioConfig,
    emit_outputs,
    generate_run_graph,
    run_scenario,
    synthetic_points,
)
from .sdn import RangeViolationError
from .solvers import NumericError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdnfilt",
        description="Graph inverse filtering experiments on spatially "
                    "distributed networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-graph", help="generate a graph and export CSVs")
    gen.add_argument("--kind", choices=("rgg", "knn"), default="rgg")
    gen.add_argument("--n", type=int, default=512, help="vertex count")
    gen.add_argument("--radius", type=float, default=None,
                     help="edge radius; defaults to sqrt(2/n)")
    gen.add_argument("--k", type=int, default=5, help="k for k-NN graphs")
    gen.add_argument("--points", default=None,
                     help="points CSV for k-NN graphs (if omitted, synthetic points "
                          "with values)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output directory")

    run = sub.add_parser("run", help="run a scenario from a config file")
    run.add_argument("--config", required=True, help="flat JSON config file")
    run.add_argument("--seed", type=int, default=None, help="override master_seed")
    run.add_argument("--trials", type=int, default=None, help="override trials")
    run.add_argument("--out", default=None, help="override output_dir")
    run.add_argument("--distributed", action="store_true",
                     help="route solves through the vertex-level simulator")
    run.add_argument("--methods", default=None,
                     help="comma-separated subset of pgda,spgda,opgd,imia")
    run.add_argument("--roundlog", action="store_true",
                     help="log and export every simulator message")

    ing = sub.add_parser("ingest", help="validate a points CSV and build its k-NN graph")
    ing.add_argument("--points", required=True)
    ing.add_argument("--k", type=int, default=5)
    ing.add_argument("--out", required=True)

    rep = sub.add_parser("report", help="summarize a finished run directory")
    rep.add_argument("--out", required=True, help="run output directory")
    return parser


def _cmd_gen_graph(args) -> int:
    values = None
    if args.kind == "rgg":
        radius = args.radius if args.radius is not None else float(np.sqrt(2.0 / args.n))
        g = generate_run_graph(args.n, radius, args.seed)
    else:
        if args.points:
            coords, values = read_points_csv(args.points)
        else:
            coords, values = synthetic_points(args.n, args.seed)
        g = knn_graph(coords, args.k)
    write_edges_csv(os.path.join(args.out, "edges.csv"), g)
    write_points_csv(os.path.join(args.out, "points.csv"), g.coordinates, values)
    print(f"wrote {g.n} vertices, {g.num_edges()} edges to {args.out}")
    return EXIT_OK


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{args.config}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{args.config}: config must be a flat JSON object")
    if args.seed is not None:
        raw["master_seed"] = args.seed
    if args.trials is not None:
        raw["trials"] = args.trials
    if args.out is not None:
        raw["output_dir"] = args.out
    if args.distributed:
        raw["distributed"] = True
    if args.roundlog:
        raw["roundlog"] = True
    if args.methods is not None:
        raw["methods"] = [m.strip() for m in args.methods.split(",") if m.strip()]
    cfg = ScenarioConfig.from_dict(raw)
    if cfg.output_dir is None:
        raise ConfigError("no output directory; set output_dir or pass --out")

    started = time.monotonic()
    agg = run_scenario(cfg)
    written = emit_outputs(agg, cfg.output_dir)
    elapsed = time.monotonic() - started

    total_diverged = sum(agg.diverged.values())
    if agg.trials == 1 and total_diverged:
        print(f"diverged in single-trial mode: {agg.diverged}", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"{cfg.scenario}: {agg.trials} trials in {elapsed:.1f}s; wrote:",
          file=sys.stderr)
    for path in written:
        print(f"  {path}", file=sys.stderr)
    return EXIT_OK


def _cmd_ingest(args) -> int:
    coords, values = read_points_csv(args.points)
    g = knn_graph(coords, args.k)
    write_edges_csv(os.path.join(args.out, "edges.csv"), g)
    write_points_csv(os.path.join(args.out, "points.csv"), coords, values)
    degs = g.degrees()
    print(f"ingested {g.n} points ({'with' if values is not None else 'no'} values); "
          f"k={args.k} graph has {g.num_edges()} edges, "
          f"degree range [{degs.min()}, {degs.max()}]")
    return EXIT_OK


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _cmd_report(args) -> int:
    path = os.path.join(args.out, "summary.json")
    with open(path) as fh:
        try:
            summary = json.load(fh)
        except json.JSONDecodeError as exc:
            raise IngestError(f"{path}:{exc.lineno}: {exc.msg}") from None
    if not isinstance(summary, dict):
        raise IngestError(f"{path}: expected a JSON object")
    for key in ("scenario", "trials", "master_seed", "metric", "methods"):
        if key not in summary:
            raise IngestError(f"{path}: missing key {key!r}")
    if not (isinstance(summary["methods"], list)
            and all(isinstance(m, str) for m in summary["methods"])):
        raise IngestError(f"{path}: key 'methods' must be a list of method names")
    for key in ("mean_spectral_radius", "iterations_to_5pct", "iterations_to_plateau",
                "diverged", "spectral_unconverged"):
        if not isinstance(summary.get(key) or {}, dict):
            raise IngestError(f"{path}: key {key!r} must be an object")
    # the values the report formats as numbers or reads keys of
    radii = summary.get("mean_spectral_radius") or {}
    if not all(r is None or _is_number(r) for r in radii.values()):
        raise IngestError(f"{path}: key 'mean_spectral_radius' must map methods to numbers")
    limit = summary.get("limit_snr")
    if not (limit is None or _is_number(limit)):
        raise IngestError(f"{path}: key 'limit_snr' must be a number")
    kappas = summary.get("condition_numbers") or []
    if not (isinstance(kappas, list) and all(map(_is_number, kappas))):
        raise IngestError(f"{path}: key 'condition_numbers' must be a list of numbers")
    missed = summary.get("spectral_unconverged")
    if missed and not {"radius", "singular_values"} <= missed.keys():
        raise IngestError(
            f"{path}: key 'spectral_unconverged' must hold 'radius' and 'singular_values'")
    print(f"scenario: {summary['scenario']}  trials: {summary['trials']}  "
          f"seed: {summary['master_seed']}")
    print(f"metric: {summary['metric']}")
    to5 = summary.get("iterations_to_5pct") or {}
    plat = summary.get("iterations_to_plateau") or {}
    diverged = summary.get("diverged") or {}
    header = f"{'method':8} {'radius':>10} {'to-5%':>8} {'plateau':>8} {'diverged':>9}"
    print(header)
    for m in summary["methods"]:
        radius = radii.get(m)
        print(f"{m:8} {'None' if radius is None else f'{radius:.4f}':>10} "
              f"{str(to5.get(m)):>8} {str(plat.get(m)):>8} "
              f"{str(diverged.get(m, 0)):>9}")
    if limit is not None:
        print(f"limit snr: {limit:.4f} dB")
    if kappas:
        arr = np.array(kappas)
        print(f"condition numbers: median {np.median(arr):.1f}, "
              f"range [{arr.min():.1f}, {arr.max():.1f}]")
    if missed:
        print(f"spectral estimates unconverged: radius {missed['radius']}, "
              f"singular values {missed['singular_values']}")
    fallbacks = summary.get("spectral_fallbacks")
    if fallbacks:
        print(f"spectral radii through the Lanczos fallback: {fallbacks}")
    if summary.get("message_totals"):
        print(f"messages: {summary['message_totals']}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen-graph": _cmd_gen_graph,
        "run": _cmd_run,
        "ingest": _cmd_ingest,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ValueError, RangeViolationError) as exc:
        if isinstance(exc, IngestError):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except GenerationError as exc:
        print(f"generation error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
