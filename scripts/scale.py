#!/usr/bin/env python3
"""fig1 and denoise runs at large n: a base revision against the working tree.

    python3 scripts/scale.py --label NAME [--base HEAD] \
        [--sizes 4096,16384,65536] [--scenarios fig1,denoise] [--pairs 5] \
        [--out BENCH_scale_NAME.json]

Both sides are copied into one temporary directory as `scripts/bench.py`
copies them. For each size, the fig1 scenario runs `sdnfilt run` on a
centralized fig1 config of one trial with all four methods and 200
iterations, at the edge radius RADII gives for that n. Sizes up to
DISTRIBUTED_UP_TO then run the same config through the vertex-level
simulator (`--distributed --methods pgda,spgda`). The denoise scenario
runs DENOISE's config, all four methods, on `synthetic_points(n,
rng_seed=POINTS_SEED)` written with `write_points_csv`. Base and change
alternate which side goes first, one process at a time, each with one
BLAS thread. Sizes up to 16384 get `--pairs` pairs; 65536 gets one pair,
and the result says so.

Each process runs under a small bootstrap that times the graph draw, the
filter's LU factorization and the solves. Per run the result records:

    wall_s        the process's wall time, interpreter start included
    peak_rss_mb   the process's own peak RSS, from os.wait4
    graph_s       the time of scenarios.generate_run_graph (fig1) or
                  scenarios.knn_graph (denoise)
    graph_rss_mb  the process's peak RSS (ru_maxrss) right after it
    solve_s       the time of the iterative solves (_MethodRuns.run)
    nnz_h         nonzeros of the filter H
    factor_nnz    nonzeros of its LU factor (L and U together)
    factor_s      the time of GraphFilter.lu's first call
    pivots        (every pivot on the diagonal, negative pivots), where
                  the side reads them (for spgda's radius certificate)
    spectral_fallbacks  from summary.json
    message_totals      from summary.json (zeros for a centralized run)

Exit 3, which `sdnfilt run` returns after writing its outputs when a
method diverges in a one-trial run, counts as a finished run. Each size
also gets each side's median and quartiles of wall_s, peak_rss_mb,
graph_s, graph_rss_mb, factor_s and solve_s. fig1's centralized sections
go under "sizes", its simulator sections under "distributed" and the
denoise sections under "denoise", keyed by n. The file
records the base and head commits with a digest and line count of each
side's src/, as `scripts/bench.py` does.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench import ROOT, export_base, export_worktree, git, quartiles, src_summary  # noqa: E402

sys.path.insert(0, os.path.join(ROOT, "src"))
from sdnfilt.io import write_points_csv  # noqa: E402
from sdnfilt.scenarios import synthetic_points  # noqa: E402

# fig1 edge radius per n: about the smallest that still draws a connected
# graph within the generator's retry budget
RADII = {4096: 0.035, 16384: 0.0206, 65536: 0.011}
ONE_PAIR_FROM = 65536
DISTRIBUTED_UP_TO = 16384
DISTRIBUTED_ARGV = ["--distributed", "--methods", "pgda,spgda"]
MASTER_SEED = 777016
# denoise: k = 7, since the 5-NN graph of 65536 points is not connected
DENOISE = {"scenario": "denoise", "k": 7, "alpha": 0.9075, "eta": 35, "trials": 100,
           "iterations": 80, "master_seed": MASTER_SEED}
POINTS_SEED = 818
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

BOOTSTRAP = """
import json, os, resource, sys, time
tree, report = sys.argv[1], sys.argv[2]
sys.path.insert(0, os.path.join(tree, "src"))
from sdnfilt import cli, filters, scenarios
lu, factors, graphs, solves = filters.GraphFilter.lu, [], [], []
def timed_graph(generate):
    def timed(*args):
        start = time.perf_counter()
        g = generate(*args)
        graphs.append({"graph_s": time.perf_counter() - start, "graph_rss_mb":
                       resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})
        return g
    return timed
scenarios.generate_run_graph = timed_graph(scenarios.generate_run_graph)
scenarios.knn_graph = timed_graph(scenarios.knn_graph)
run = scenarios._MethodRuns.run
def timed_run(*args):
    start = time.perf_counter()
    run(*args)
    solves.append(time.perf_counter() - start)
scenarios._MethodRuns.run = timed_run
def timed(self):
    if self._lu is not None:
        return lu(self)
    start = time.perf_counter()
    factor = lu(self)
    factors.append((self, {"nnz_h": int(self.nnz), "factor_nnz": int(factor.nnz),
                           "factor_s": time.perf_counter() - start}))
    return factor
filters.GraphFilter.lu = timed
try:
    code = cli.main(sys.argv[3:])
finally:
    with open(report, "w") as fh:
        json.dump({"graphs": graphs, "solve_s": sum(solves), "factors": [
            {**info, "pivots": getattr(h, "_pivots", None)} for h, info in factors]}, fh)
sys.exit(code)
"""


def fig1_config(n):
    return {"scenario": "fig1", "n": n, "radius": RADII[n], "trials": 1,
            "iterations": 200, "master_seed": MASTER_SEED}


def denoise_config(work, n):
    points = os.path.join(work, f"points-{n}.csv")
    write_points_csv(points, *synthetic_points(n, rng_seed=POINTS_SEED))
    return {**DENOISE, "points_csv": points}


def run_side(tree, work, cfg, argv):
    """One `sdnfilt run` process of the config cfg, with the extra
    `sdnfilt run` arguments argv."""
    config = os.path.join(work, "config.json")
    with open(config, "w") as fh:
        json.dump(cfg, fh)
    out, report = os.path.join(work, "out"), os.path.join(work, "factors.json")
    shutil.rmtree(out, ignore_errors=True)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", BOOTSTRAP, tree, report, "run", "--config", config,
         "--out", out, *argv], cwd=tree, env={**env, **CHILD_ENV},
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    stderr = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code not in (0, 3):
        raise RuntimeError(f"{cfg} failed in {tree} (exit {code}):\n{stderr.decode()[-2000:]}")
    with open(report) as fh:
        record = json.load(fh)
    (graph,), (factor,) = record["graphs"], record["factors"]
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    return {"exit": code, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            **graph, **factor, "solve_s": record["solve_s"],
            "spectral_fallbacks": summary["spectral_fallbacks"],
            "message_totals": summary["message_totals"]}


def run_size(trees, work, cfg, pairs, argv=()):
    runs = []
    for i in range(pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_side(trees[side], work, cfg, argv)
        runs.append(pair)
        print(json.dumps({"scenario": cfg["scenario"], "argv": argv, **pair}),
              file=sys.stderr)
    summary = {side: {key: quartiles([p[side][key] for p in runs])
                      for key in ("wall_s", "peak_rss_mb", "graph_s", "graph_rss_mb",
                                  "factor_s", "solve_s")}
               for side in ("base", "change")}
    return {**({"radius": cfg["radius"]} if "radius" in cfg else {}),
            "pairs": len(runs), "summary": summary, "runs": runs}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--base", default="HEAD", help="git revision to compare with")
    parser.add_argument("--sizes", default="4096,16384,65536",
                        help=f"comma-separated subset of {sorted(RADII)}")
    parser.add_argument("--scenarios", default="fig1,denoise",
                        help="comma-separated subset of fig1,denoise")
    parser.add_argument("--pairs", type=int, default=5,
                        help=f"pairs per size below {ONE_PAIR_FROM}")
    parser.add_argument("--out", default=None, help="default BENCH_scale_<label>.json")
    args = parser.parse_args(argv)

    sizes = [int(s) for s in args.sizes.split(",")]
    scenarios = args.scenarios.split(",")
    if not set(sizes) <= set(RADII):
        parser.error(f"sizes must come from {sorted(RADII)}")
    if not set(scenarios) <= {"fig1", "denoise"}:
        parser.error("scenarios must come from fig1,denoise")
    work = tempfile.mkdtemp(prefix="sdnfilt-scale-")
    trees = {"base": os.path.join(work, "base"), "change": os.path.join(work, "change")}
    results, distributed, denoise = {}, {}, {}
    try:
        export_base(args.base, trees["base"])
        export_worktree(trees["change"])
        for n in sizes:
            pairs = 1 if n >= ONE_PAIR_FROM else args.pairs
            if "fig1" in scenarios:
                cfg = fig1_config(n)
                results[str(n)] = run_size(trees, work, cfg, pairs)
                if n <= DISTRIBUTED_UP_TO:
                    distributed[str(n)] = run_size(trees, work, cfg, pairs,
                                                   DISTRIBUTED_ARGV)
            if "denoise" in scenarios:
                denoise[str(n)] = run_size(trees, work, denoise_config(work, n), pairs)
        sources = {side: src_summary(tree) for side, tree in trees.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    dirty = bool(git("status", "--porcelain", "--untracked-files=no").strip())
    result = {
        "label": args.label,
        "config": {"scenario": "fig1", "trials": 1, "iterations": 200,
                   "master_seed": MASTER_SEED, "methods": "pgda,spgda,opgd,imia",
                   "child_env": CHILD_ENV,
                   "distributed_argv": " ".join(DISTRIBUTED_ARGV),
                   "distributed_up_to": DISTRIBUTED_UP_TO,
                   "denoise": {**DENOISE, "points": f"synthetic_points(n, rng_seed="
                                                    f"{POINTS_SEED})"}},
        "note": f"n >= {ONE_PAIR_FROM} runs one pair",
        "base": {"rev": args.base, "sha": git("rev-parse", args.base, text=True).strip(),
                 **sources["base"]},
        "change": {"head": git("rev-parse", "HEAD", text=True).strip(),
                   "uncommitted_changes": dirty, **sources["change"]},
        "sizes": results,
        "distributed": distributed,
        "denoise": denoise,
    }
    out = args.out or os.path.join(ROOT, f"BENCH_scale_{args.label}.json")
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    sections = [(n, "", sec) for n, sec in results.items()]
    sections += [(n, " distributed", sec) for n, sec in distributed.items()]
    sections += [(n, " denoise", sec) for n, sec in denoise.items()]
    for n, mode, sec in sections:
        b, c = sec["summary"]["base"], sec["summary"]["change"]
        print(f"n={n}{mode} ({sec['pairs']} pairs): wall {b['wall_s']['median']:.2f} -> "
              f"{c['wall_s']['median']:.2f} s, peak RSS {b['peak_rss_mb']['median']:.0f} -> "
              f"{c['peak_rss_mb']['median']:.0f} MB, graph {b['graph_s']['median']:.2f} -> "
              f"{c['graph_s']['median']:.2f} s, {b['graph_rss_mb']['median']:.0f} -> "
              f"{c['graph_rss_mb']['median']:.0f} MB, factor {b['factor_s']['median']:.2f} -> "
              f"{c['factor_s']['median']:.2f} s, solves {b['solve_s']['median']:.2f} -> "
              f"{c['solve_s']['median']:.2f} s, fill {sec['runs'][0]['base']['factor_nnz']} -> "
              f"{sec['runs'][0]['change']['factor_nnz']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
