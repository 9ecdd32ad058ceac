#!/usr/bin/env python3
"""Digest of every file a fixed matrix of sdnfilt runs writes.

    python3 scripts/digests.py > head.txt
    PYTHONPATH=OTHER/src python3 scripts/digests.py > base.txt
    diff base.txt head.txt

    python3 scripts/digests.py --base REV

Imports the sdnfilt that PYTHONPATH names, or else this tree's src/, runs
the matrix below through `cli.main` in one process, inside a temporary
directory with paths relative to it (a summary.json echoes them), and
prints one line per written file:

    scenario file sha256 bytes

sorted by scenario and file name, then removes the directory. Two trees
whose lines match wrote the same bytes. The matrix:

    gen-graph-rgg          gen-graph --kind rgg, n=128
    gen-graph-knn          gen-graph --kind knn, 218 points, seed 818
    gen-graph-knn-points   gen-graph --kind knn --points on the denoise
                           runs' points.csv (id,x,y,value)
    fig1, fig1-sdn         fig1, n=128, 3 trials; centralized, and
                           --distributed --roundlog with pgda and spgda
    fig1-fallback          fig1 centralized with gamma 0.6, where spgda's
                           radius falls back to Lanczos in every trial
    denoise, denoise-sdn   218 synthetic points (seed 818), 20 trials;
                           centralized, and --distributed with pgda and spgda
    denoise-alpha0         the denoise config with alpha 0: the identity
                           filter
    custom, custom-sdn     a fig1 filter on an n=64 graph and its
                           observation, from CSV files; centralized, and
                           --distributed with pgda and spgda
    custom-points          the custom run with the graph's points.csv
    custom-nonsym-sdn      the custom run on the fig1 filter's diagonal and
                           upper-triangle entries (width 2), --distributed
                           --roundlog with pgda: a nonsymmetric pattern
    custom-nonsym-imia     the same filter centralized with pgda, opgd and
                           imia: imia's radius rejects a nonsymmetric
                           filter (exit 2)
    tv, tv-roundlog        time_varying, n=64, 3 epochs, 100 iterations;
                           without and with --roundlog
    tv-roundlog-500        time_varying, n=64, 1 epoch, 500 iterations,
                           --roundlog: perfbench's tv-roundlog config,
                           whose log has values in every float-text zone

The exit code of every run is printed as an `exit` line of its scenario,
so a run that fails shows in the diff too.

With --base REV, REV is exported by `git archive` as scripts/bench.py
does, and this matrix runs twice, each time in a fresh process: once with
the exported src/ and once with this tree's. The lines that differ are
printed, `-` for REV's and `+` for this tree's, and the exit code is 1
if any line differs, else 0.
"""

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.append(os.path.join(ROOT, "src"))  # after PYTHONPATH's entries
sys.path.append(os.path.join(ROOT, "scripts"))  # bench.py, also when loaded by path

from bench import export_base  # noqa: E402
from sdnfilt import cli, scenarios  # noqa: E402
from sdnfilt.filters import apply, build_fig1_filter  # noqa: E402
from sdnfilt.io import atomic_write_text, write_edges_csv, write_points_csv  # noqa: E402

SDN = ["--distributed", "--methods", "pgda,spgda"]
POINTS_SEED = 818


def write_custom_inputs():
    """edges.csv, custom-points.csv, filter.csv and signal.csv of a fig1
    filter on an n=64 graph and its observation of the blockwise
    polynomial, and filter-upper.csv of that filter's entries (i, j) with
    j >= i."""
    graph = scenarios.generate_run_graph(64, 2.0 ** -2.5, 64)
    h = build_fig1_filter(graph, 0.05, 7)
    y = apply(h, scenarios.blockwise_polynomial(graph))
    write_edges_csv("edges.csv", graph)
    write_points_csv("custom-points.csv", graph.coordinates)
    csr = h.csr
    for path, upper in (("filter.csv", False), ("filter-upper.csv", True)):
        rows = [f"# n={graph.n} width={h.width}", "i,j,value"]
        for i in range(graph.n):
            lo, hi = csr.indptr[i], csr.indptr[i + 1]
            rows.extend(f"{i},{j},{v!r}" for j, v in
                        zip(csr.indices[lo:hi].tolist(), csr.data[lo:hi].tolist())
                        if j >= i or not upper)
        atomic_write_text(path, "\n".join(rows) + "\n")
    signal = ["id,value"] + [f"{i},{v!r}" for i, v in enumerate(y.values.tolist())]
    atomic_write_text("signal.csv", "\n".join(signal) + "\n")


def matrix():
    """(scenario, argv) of every run, its inputs written to the current
    directory."""
    def config(name, **kv):
        path = f"{name}.json"
        with open(path, "w") as fh:
            json.dump(kv, fh)
        return path

    points = "points.csv"
    write_points_csv(points, *scenarios.synthetic_points(218, POINTS_SEED))
    write_custom_inputs()
    fig1_cfg = dict(scenario="fig1", n=128, trials=3, iterations=40, master_seed=5)
    fig1 = config("fig1", **fig1_cfg)
    fallback = config("fig1-fallback", **{**fig1_cfg, "gamma": 0.6})
    denoise_cfg = dict(scenario="denoise", points_csv=points, k=5, alpha=0.9075,
                       eta=35.0, trials=20, iterations=80, master_seed=818)
    denoise = config("denoise", **denoise_cfg)
    alpha0 = config("denoise-alpha0", **{**denoise_cfg, "alpha": 0.0})
    own_cfg = dict(scenario="custom", edges_csv="edges.csv", filter_csv="filter.csv",
                   signal_csv="signal.csv", trials=1, iterations=100)
    own = config("custom", **own_cfg)
    own_points = config("custom-points", **own_cfg, points_csv="custom-points.csv")
    nonsym = config("custom-nonsym", **{**own_cfg, "filter_csv": "filter-upper.csv"})
    tv = config("tv", scenario="time_varying", n=64, epochs=3, iterations=100,
                master_seed=31)
    tv500 = config("tv-500", scenario="time_varying", n=64, gamma=0.05, eta=0.2,
                   epochs=1, iterations=500, master_seed=777016)
    return [
        ("gen-graph-rgg", ["gen-graph", "--kind", "rgg", "--n", "128", "--seed", "3"]),
        ("gen-graph-knn", ["gen-graph", "--kind", "knn", "--n", "218",
                           "--seed", str(POINTS_SEED)]),
        ("gen-graph-knn-points", ["gen-graph", "--kind", "knn", "--points", points]),
        ("fig1", ["run", "--config", fig1]),
        ("fig1-sdn", ["run", "--config", fig1, *SDN, "--roundlog"]),
        ("fig1-fallback", ["run", "--config", fallback]),
        ("denoise", ["run", "--config", denoise]),
        ("denoise-sdn", ["run", "--config", denoise, *SDN]),
        ("denoise-alpha0", ["run", "--config", alpha0]),
        ("custom", ["run", "--config", own]),
        ("custom-sdn", ["run", "--config", own, *SDN]),
        ("custom-points", ["run", "--config", own_points]),
        ("custom-nonsym-sdn", ["run", "--config", nonsym, "--distributed",
                               "--methods", "pgda", "--roundlog"]),
        ("custom-nonsym-imia", ["run", "--config", nonsym,
                                "--methods", "pgda,opgd,imia"]),
        ("tv", ["run", "--config", tv]),
        ("tv-roundlog", ["run", "--config", tv, "--roundlog"]),
        ("tv-roundlog-500", ["run", "--config", tv500, "--roundlog"]),
    ]


def digest(path):
    sha, size = hashlib.sha256(), 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            sha.update(chunk)
            size += len(chunk)
    return sha.hexdigest(), size


def print_digests():
    print(f"sdnfilt from {os.path.dirname(cli.__file__)}", file=sys.stderr)
    with tempfile.TemporaryDirectory(prefix="sdnfilt-digests-") as work:
        os.chdir(work)
        for scenario, argv in matrix():
            out = os.path.join("out", scenario)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([*argv, "--out", out])
            print(f"{scenario} exit {code}")
            for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
                print(scenario, name, *digest(os.path.join(out, name)))
        os.chdir(ROOT)


def tree_lines(src):
    """This script's output lines with the sdnfilt of `src`, from a fresh
    process."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__)],
                          env={**os.environ, "PYTHONPATH": src}, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, check=True)
    return proc.stdout.splitlines()


def differences(base, head):
    """The lines only one side printed: `- ` for base's, `+ ` for head's."""
    return [line for line in difflib.ndiff(base, head) if line[:1] in "-+"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision whose src/ to compare with")
    args = parser.parse_args(argv)
    if args.base is None:
        print_digests()
        return 0
    with tempfile.TemporaryDirectory(prefix="sdnfilt-digests-base-") as work:
        export_base(args.base, os.path.join(work, "base"))
        base = tree_lines(os.path.join(work, "base", "src"))
    diff = differences(base, tree_lines(os.path.join(ROOT, "src")))
    print("\n".join(diff) if diff else f"all {len(base)} lines identical")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
