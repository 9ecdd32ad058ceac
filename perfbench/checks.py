"""Output checks that decide whether one `sdnfilt run` process was correct.

They check what correct code must produce, not digits that a planned
change is expected to move:

* pgda/spgda/imia curves and iterations_to_5pct / iterations_to_plateau
  equal a reference recorded with `run.py --record-reference`, bit for bit;
* the simulator's pgda/spgda curves equal the centralized ones;
* message totals equal what the ball sizes of the graph give:
  pgda = trials * (1 + 2 * iterations) * sum_i (|B(i, w)| - 1) and
  spgda = trials * iterations * sum_i (|B(i, w)| - 1);
* the round log equals the recorded one byte for byte;
* mean pgda/spgda spectral radii are below 1;
* condition numbers and the opgd curve are only checked to be finite
  (and positive, where they are relative errors), because the planned
  spectral-layer change is expected to move their digits.
"""

import hashlib
import json
import math
import os

CURVE_METHODS = ("pgda", "spgda", "imia")

# How generate_run_graph lays out its random geometric graph draws: round r
# uses entropy master_seed + r * GRAPH_ROUND_STRIDE and tries RGG_ATTEMPTS
# spawned sub-seeds. The accepted (entropy, attempt) pair gives the count.
GRAPH_ROUND_STRIDE = 100000
RGG_ATTEMPTS = 64


def curve_digests(out_dir, methods):
    rows = {m: [] for m in methods}
    with open(os.path.join(out_dir, "curves.csv")) as fh:
        for line in fh:
            method = line.split(",", 1)[0]
            if method in rows:
                rows[method].append(line)
    return {m: hashlib.sha256("".join(r).encode()).hexdigest() for m, r in rows.items()}


def file_digest(path):
    """(sha256, line count) of a file, read in 1 MiB chunks."""
    digest, lines = hashlib.sha256(), 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
            lines += chunk.count(b"\n")
    return digest.hexdigest(), lines


def read_curves(out_dir):
    curves = {}
    with open(os.path.join(out_dir, "curves.csv")) as fh:
        next(fh)
        for line in fh:
            method, _, value = line.rstrip("\n").split(",")
            curves.setdefault(method, []).append(float(value))
    return curves


def rgg_attempts(summary):
    seed = summary.get("graph", {}).get("generator_seed")
    if not seed:
        return 0
    entropy, attempt = seed
    round_idx = (entropy - summary["master_seed"]) // GRAPH_ROUND_STRIDE
    return round_idx * RGG_ATTEMPTS + attempt + 1


def bytes_written(out_dir):
    return sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))


def check_outputs(workload, out_dir, ref):
    """Return (problems, exact counts) for one finished run directory."""
    problems = []
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    curves = read_curves(out_dir)
    cfg = workload.config
    kind = cfg["scenario"]
    iters = cfg["iterations"]
    totals = summary["message_totals"]

    def expect(label, got, want):
        if got != want:
            problems.append(f"{label}: got {got!r}, expected {want!r}")

    for method in summary["methods"]:
        values = curves.get(method, [])
        if not values or not all(math.isfinite(v) for v in values):
            problems.append(f"{method} curve is empty or not finite")
        elif summary["metric"] == "rel_error" and min(values) <= 0.0:
            problems.append(f"{method} relative-error curve is not positive")

    if "curves" in ref:
        got = curve_digests(out_dir, ref["curves"])
        for method, digest in ref["curves"].items():
            expect(f"{method} curve digest", got[method], digest)
    for key in ("iterations_to_5pct", "iterations_to_plateau"):
        for method, want in ref.get(key, {}).items():
            expect(f"{key}[{method}]", summary[key].get(method), want)

    for method in ("pgda", "spgda"):
        radius = summary["mean_spectral_radius"].get(method)
        if radius is not None and not 0.0 <= radius < 1.0:
            problems.append(f"mean {method} spectral radius {radius!r} is not below 1")
    for kappa in summary["condition_numbers"]:
        if not (math.isfinite(kappa) and kappa > 0.0):
            problems.append(f"condition number {kappa!r} is not finite and positive")
    if kind == "fig1":
        expect("condition number count", len(summary["condition_numbers"]), cfg["trials"])
    if kind == "denoise" and not math.isfinite(summary["limit_snr"]):
        problems.append("limit_snr is not finite")
    for method in ("pgda", "spgda"):
        expect(f"diverged[{method}]", summary["diverged"].get(method, 0), 0)

    per_exchange = ref.get("ball_sum")
    if kind == "time_varying":
        epochs = cfg["epochs"]
        expect("pgda messages", totals["pgda"], epochs * (1 + 2 * iters) * per_exchange)
        with open(os.path.join(out_dir, "epochs.csv")) as fh:
            rows = [line.rstrip("\n").split(",") for line in fh][1:]
        expect("epoch rows", len(rows), epochs)
        for epoch, rel, messages, rounds in rows:
            expect(f"epoch {epoch} messages", int(messages), (1 + 2 * iters) * per_exchange)
            expect(f"epoch {epoch} rounds", int(rounds), 1 + 2 * iters)
            if not 0.0 <= float(rel) < 1.0:
                problems.append(f"epoch {epoch} error against the oracle is {rel}")
        digest, lines = file_digest(os.path.join(out_dir, "roundlog.csv"))
        expect("roundlog lines", lines, totals["pgda"] + 1)
        expect("roundlog digest", digest, ref["roundlog_sha256"])
    elif "--distributed" in workload.argv:
        trials = cfg["trials"]
        expect("pgda messages", totals.get("pgda"), trials * (1 + 2 * iters) * per_exchange)
        expect("spgda messages", totals.get("spgda"), trials * iters * per_exchange)
    else:
        expect("centralized message total", sum(totals.values()), 0)

    exact = {
        "graphs.rgg_attempts": rgg_attempts(summary),
        "sdn.messages": sum(totals.values()),
        "io.bytes_written": bytes_written(out_dir),
    }
    return problems, exact


def ball_sum(graph_adjacency, n, width):
    """sum_i (|B(i, width)| - 1) from the adjacency lists, by sparse powers
    of (I + A); independent of the program's own BFS."""
    import numpy as np
    import scipy.sparse as sparse

    rows = [i for i, nbrs in enumerate(graph_adjacency) for _ in nbrs]
    cols = [j for nbrs in graph_adjacency for j in nbrs]
    step = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    step = step + sparse.identity(n, format="csr")
    reach = sparse.identity(n, format="csr")
    for _ in range(width):
        reach = (reach @ step).tocsr()
        reach.data[:] = 1.0
    return int(reach.nnz - n)


def reference_entry(workload, out_dir, graph=None):
    """What `check_outputs` compares against, taken from a run at the
    current commit. The fig1-sdn entry is recorded from a centralized run,
    so the simulator is checked against the centralized solvers."""
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    kind = workload.config["scenario"]
    entry = {}
    if kind in ("fig1", "denoise"):
        methods = [m for m in CURVE_METHODS if m in summary["methods"]]
        entry["curves"] = curve_digests(out_dir, methods)
        key = "iterations_to_5pct" if kind == "fig1" else "iterations_to_plateau"
        entry[key] = {m: summary[key][m] for m in methods}
    if kind == "time_varying":
        entry["roundlog_sha256"] = file_digest(os.path.join(out_dir, "roundlog.csv"))[0]
    if graph is not None:
        entry["ball_sum"] = ball_sum(graph.adjacency, graph.n, 2)
    return entry
