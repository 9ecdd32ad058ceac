#!/usr/bin/env python3
"""Compare a base revision with the working tree on perfbench workloads.

    python3 scripts/bench.py --label NAME --workload denoise,fig1-central \
        --base HEAD --seeds 101-110 [--seconds 0] [--trace] [--out BENCH_NAME.json]

Both sides are copied into one temporary directory: the base revision by
`git archive`, the working tree with its uncommitted changes (the tracked
and untracked files git does not ignore). For each workload of the
comma-separated list in turn, and each seed, `perfbench/run.py --trace 0`
runs once on each copy, the two alternating which side goes first. Each
side runs its own perfbench/, with the same arguments. The default
`--seconds 0` is the shortest window perfbench accepts, two processes,
so the sides take turns every two processes and a drift of the host's
speed hits both sides of a pair alike; the host's speed changes from one
process to the next, so a verdict needs many such short pairs.

The result file holds one section per workload, with every run's
end-to-end metrics, each side's median and quartiles per metric, how
many pairs the change won (ties count for neither side) and two
verdicts; and, once, the base and head commits with a digest and line
count of each side's src/, and the environment perfbench reported. The
verdicts, printed too, are:

    within_bound  the change's median is no worse than the base median
                  by more than the metric's BENCHMARK.json bound
    claim_holds   the change won at least 9 of 10 pairs, and its median
                  is better than the base median by more than the base
                  quartile spread q3 - q1

With --trace, each side of each pair also runs `perfbench/run.py --trace
1` right after its untraced run, and the section records every per-layer
metric of BENCHMARK.json next to the end-to-end ones: each run's value
and each side's median and quartiles, with the pairs each side won, but
no verdict (the layers have no bounds). This is where a speed claim's
trace evidence comes from: which layer a saving lands in.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args, **kw):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          **kw).stdout


def export_base(rev, dst):
    os.makedirs(dst)
    archive = git("archive", "--format=tar", rev)
    subprocess.run(["tar", "-x", "-C", dst], input=archive, check=True)


def export_worktree(dst):
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, names.decode().split("\0")):
        src = os.path.join(ROOT, name)
        if os.path.isfile(src):  # a tracked file deleted in the tree is skipped
            os.makedirs(os.path.dirname(os.path.join(dst, name)), exist_ok=True)
            shutil.copy2(src, os.path.join(dst, name))


def src_summary(tree):
    """sha256 and line count of the .py files under tree/src."""
    digest, lines = hashlib.sha256(), 0
    src = os.path.join(tree, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                text = fh.read()
            digest.update(text)
            lines += text.count(b"\n")
    return {"src_sha256": digest.hexdigest(), "src_lines": lines}


def run_side(tree, workload, seed, seconds, trace=0):
    """One perfbench run; returns its result line and reported environment."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, timeout=seconds + 300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench failed in {tree}:\n{proc.stderr[-2000:]}")
    env = None
    for line in proc.stderr.splitlines():
        if line.startswith("{"):
            env = json.loads(line).get("environment")
    return json.loads(lines[-1]), env


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def run_pairs(trees, workload, seeds, seconds, trace=False):
    """Alternating base/change runs of one workload, one pair per seed,
    each side's traced run right after its untraced one with trace;
    returns the pairs and the environment perfbench reported."""
    pairs, environment = [], None
    for i, seed in enumerate(seeds):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            line, env = run_side(trees[side], workload, seed, seconds)
            environment = environment or env
            pair[side] = {"correct": line["correct"], "attempted": line["attempted"],
                          "failed": line["failed"],
                          "metrics": {k: v["value"] for k, v in line["metrics"].items()}}
            if trace:
                line, _ = run_side(trees[side], workload, seed, seconds, trace=1)
                pair[side]["traced_correct"] = line["correct"] and not line["failed"]
                pair[side]["layers"] = {k: v["value"] for k, v in line["metrics"].items()}
        pairs.append(pair)
        print(json.dumps({"workload": workload, **pair}), file=sys.stderr)
    return pairs, environment


def compare(pairs, name, direction, section="metrics"):
    """One metric of `section` on both sides: their quartiles and how many
    pairs each side won (ties count for neither)."""
    sign = 1.0 if direction == "higher" else -1.0
    deltas = [sign * (p["change"][section][name] - p["base"][section][name])
              for p in pairs]
    return {
        "better": direction,
        "base": quartiles([p["base"][section][name] for p in pairs]),
        "change": quartiles([p["change"][section][name] for p in pairs]),
        "change_wins": sum(d > 0 for d in deltas),
        "base_wins": sum(d < 0 for d in deltas),
    }


def summarize(pairs, metrics):
    """Per metric: each side's quartiles, how many pairs each side won, and
    the two verdicts of the module docstring."""
    summary = {}
    for name, (direction, bound) in metrics.items():
        s = compare(pairs, name, direction)
        base = s["base"]
        gain = (1.0 if direction == "higher" else -1.0) * (s["change"]["median"]
                                                           - base["median"])
        summary[name] = {
            **s,
            "bound": bound,
            "within_bound": gain >= -bound * abs(base["median"]),
            "claim_holds": (10 * s["change_wins"] >= 9 * len(pairs)
                            and gain > base["q3"] - base["q1"]),
        }
    return summary


def summarize_layers(pairs, layers):
    """Per layer metric ({name: better}): each side's quartiles and the
    pairs each side won, without verdicts."""
    return {name: compare(pairs, name, direction, "layers")
            for name, direction in layers.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--workload", required=True,
                        help="one workload or a comma-separated list")
    parser.add_argument("--base", default="HEAD", help="git revision to compare with")
    parser.add_argument("--seeds", default="1-10", help="e.g. 101-110 or 1,5,9")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="perfbench window per run; 0 runs two processes")
    parser.add_argument("--trace", action="store_true",
                        help="also record the per-layer metrics of a traced run")
    parser.add_argument("--out", default=None, help="default BENCH_<label>.json")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    layers = {m["name"]: m["better"] for m in spec["per_layer"]}
    seeds = parse_seeds(args.seeds)
    workloads = [w.strip() for w in args.workload.split(",") if w.strip()]
    work = tempfile.mkdtemp(prefix="sdnfilt-bench-")
    trees = {"base": os.path.join(work, "base"), "change": os.path.join(work, "change")}
    sections, environment = {}, None
    try:
        export_base(args.base, trees["base"])
        export_worktree(trees["change"])
        for workload in workloads:
            pairs, env = run_pairs(trees, workload, seeds, args.seconds, args.trace)
            environment = environment or env
            sections[workload] = {
                "all_correct": all(p[s]["correct"] and not p[s]["failed"]
                                   and p[s].get("traced_correct", True)
                                   for p in pairs for s in ("base", "change")),
                "summary": summarize(pairs, metrics),
                "pairs": pairs,
            }
            if args.trace:
                sections[workload]["layers"] = summarize_layers(pairs, layers)
        sources = {side: src_summary(tree) for side, tree in trees.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    dirty = bool(git("status", "--porcelain", "--untracked-files=no").strip())
    result = {
        "label": args.label,
        "seeds": seeds,
        "seconds": args.seconds,
        "trace": args.trace,
        "base": {"rev": args.base, "sha": git("rev-parse", args.base, text=True).strip(),
                 **sources["base"]},
        "change": {"head": git("rev-parse", "HEAD", text=True).strip(),
                   "uncommitted_changes": dirty, **sources["change"]},
        "all_correct": all(sec["all_correct"] for sec in sections.values()),
        "environment": environment,
        "workloads": sections,
    }
    out = args.out or os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for workload, sec in sections.items():
        for name, s in sec["summary"].items():
            print(f"{workload} {name}: base {s['base']['median']:.4g} "
                  f"[{s['base']['q1']:.4g}-{s['base']['q3']:.4g}] -> change "
                  f"{s['change']['median']:.4g} [{s['change']['q1']:.4g}-"
                  f"{s['change']['q3']:.4g}], change won "
                  f"{s['change_wins']}/{len(sec['pairs'])}; "
                  f"{'within' if s['within_bound'] else 'OUTSIDE'} the "
                  f"{s['bound']:.0%} bound, gain claim "
                  f"{'holds' if s['claim_holds'] else 'does not hold'}")
        for name, s in sec.get("layers", {}).items():
            if s["base"]["median"] or s["change"]["median"]:
                print(f"{workload} {name}: base {s['base']['median']:.4g} -> change "
                      f"{s['change']['median']:.4g}, change won "
                      f"{s['change_wins']}/{len(sec['pairs'])}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
