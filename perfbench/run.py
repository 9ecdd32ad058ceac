"""sdnfilt end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-reference

Run from the repository root. Each measured run of `sdnfilt run` is one
fresh process (perfbench/child.py), started one at a time, on a config
this script generates from the workload and its seed. Processes repeat
until the next one would end after S seconds (at least two untraced, or
two traced and one untraced with --trace 1); the metrics are medians over
processes, and every process's outputs are checked (checks.py).

--trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
untraced processes and prints the per-layer metrics (layers.py) with the
tracing overhead. The last line of stdout is the JSON result; a record
with every process, the run environment and any layer function that was
not found goes to .perfbench_work/.

--record-reference runs every workload input once at the current commit
and rewrites perfbench/reference.json, the outputs the checks compare to.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import checks
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(HERE, "reference.json")
CHILD = os.path.join(HERE, "child.py")

MASTER_SEED = 777016      # the seed of the reference fig1 study
DENOISE_POINTS = 218
HARD_LIMIT_S = 140.0      # never start a process that would end later than this

# Benchmark settings, not program knobs: one BLAS thread (on a 2-vCPU Xeon
# host a 512x512 LU took 176-208 ms on its first calls in 2 of ~8 processes
# with the default pool, against 4.4-4.9 ms otherwise) and a fixed hash seed.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


@dataclass
class Workload:
    config: dict
    argv: list = field(default_factory=list)
    setup_marker: str = "filters.build_fig1_filter"
    trial_marker: str = "filters.build_fig1_filter"
    # Number of distinct inputs the seed chooses from. Where the graph comes
    # from a random geometric graph seed the inputs are fixed: that seed sets
    # the amount of work (2 to 912 draws at n=512, 0.02-10.8 s; a 22% spread
    # of two-hop ball sizes at n=64), so no seed-to-seed spread would stay
    # within a regression bound.
    pool: int = 1

    def trials(self):
        return self.config.get("epochs") if self.config["scenario"] == "time_varying" \
            else self.config["trials"]


FIG1 = {"scenario": "fig1", "n": 512, "gamma": 0.05, "eta": 0.2, "iterations": 200}

WORKLOADS = {
    "fig1-central": Workload(
        config={**FIG1, "trials": 1},
        argv=["--methods", "pgda,spgda,opgd,imia"],
    ),
    "fig1-sdn": Workload(
        config={**FIG1, "trials": 1},
        argv=["--distributed", "--methods", "pgda,spgda"],
    ),
    "tv-roundlog": Workload(
        config={"scenario": "time_varying", "n": 64, "gamma": 0.05, "eta": 0.2,
                "iterations": 500, "epochs": 1},
        argv=["--roundlog"],
        trial_marker="sdn.SdnNetwork.__init__",
    ),
    "denoise": Workload(
        config={"scenario": "denoise", "k": 5, "alpha": 0.9075, "eta": 35,
                "iterations": 80, "trials": 100},
        argv=["--methods", "pgda,spgda,opgd,imia"],
        setup_marker="scenarios.add_uniform_noise",
        trial_marker="scenarios.add_uniform_noise",
        pool=16,
    ),
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no program, no reference)."""


def child_env():
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env.pop("PYTHONPATH", None)
    return env


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def make_inputs(name, seed, work):
    """Write the config (and the points CSV for denoise) for one seed.
    Returns (config path, config, reference key, points digest or None)."""
    wl = WORKLOADS[name]
    entry = seed % wl.pool
    cfg = {**wl.config, "master_seed": MASTER_SEED + entry}
    points_digest = None
    if cfg["scenario"] == "denoise":
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        from sdnfilt.scenarios import synthetic_points

        coords, values = synthetic_points(DENOISE_POINTS, rng_seed=entry)
        lines = ["id,x,y,value"] + [
            f"{i},{float(x)!r},{float(y)!r},{float(v)!r}"
            for i, ((x, y), v) in enumerate(zip(coords, values))
        ]
        points = os.path.join(work, "points.csv")
        with open(points, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        points_digest = checks.file_digest(points)[0]
        cfg["points_csv"] = os.path.relpath(points, ROOT)
    path = os.path.join(work, "config.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=1)
    return path, cfg, f"pool{entry}", points_digest


def run_process(wl, cfg_path, work, k, trace, environment, deadline):
    """One fresh `sdnfilt run` process. Returns its record, or a dict with
    'error' when it failed to finish. The program sees paths relative to
    the root, of one length in every run, because summary.json echoes them
    and its size is an exact counter."""
    out = os.path.join(work, f"p{k:03d}")
    spec = {
        "root": ROOT,
        "argv": ["run", "--config", os.path.relpath(cfg_path, ROOT),
                 "--out", os.path.relpath(out, ROOT)] + wl.argv,
        "setup_marker": wl.setup_marker,
        "trial_marker": wl.trial_marker,
        "trace": trace,
        "environment": environment,
        "record": os.path.join(work, f"p{k}.record.json"),
    }
    spec_path = os.path.join(work, f"p{k}.spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    log_path = os.path.join(work, f"p{k}.log")
    with open(log_path, "w") as log:
        t_launch = time.monotonic()
        proc = subprocess.Popen([sys.executable, CHILD, spec_path], cwd=ROOT,
                                env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=max(1.0, deadline - t_launch))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return {"error": "timed out", "out": out, "traced": trace,
                    "duration": time.monotonic() - t_launch}
    duration = time.monotonic() - t_launch
    if proc.returncode != 0 or not os.path.exists(spec["record"]):
        with open(log_path) as fh:
            tail = fh.read()[-600:]
        return {"error": f"exit {proc.returncode}: {tail}", "out": out, "traced": trace,
                "duration": duration}
    with open(spec["record"]) as fh:
        record = json.load(fh)
    os.unlink(spec["record"])
    record.update(t_launch=t_launch, duration=duration, out=out, traced=trace)
    if record["rc"] != 0:
        record["error"] = f"sdnfilt exit code {record['rc']}"
    elif record["t_setup"] is None:
        record["error"] = "the setup marker was never called"
    return record


def evaluate(wl, record, ref_entry):
    """Output checks and metrics for one finished process."""
    result = {"traced": record.get("traced", False), "problems": []}
    if "error" in record:
        result["problems"].append(record["error"])
    else:
        try:
            problems, exact = checks.check_outputs(wl, record["out"], ref_entry)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems, exact = [f"unreadable outputs: {exc!r}"], {}
        result["problems"] += problems
        result["exact"] = exact
        t0, t_setup, t_end = record["t_launch"], record["t_setup"], record["t_end"]
        result["cpu_s"] = record["cpu_s"]
        result["e2e"] = {
            "run_s": t_end - t0,
            "setup_s": t_setup - t0,
            "trials_per_s": wl.trials() / (t_end - t_setup),
            "peak_rss_mb": record["maxrss_kb"] / 1024.0,
        }
        if result["traced"]:
            result["layer"] = layers.layer_metrics(
                record, t0, exact.get("io.bytes_written", 0))
            result["counters"] = {k: result["layer"][k] for k in layers.EXACT_COUNTERS}
            result["missing"] = layers.missing_sources(record)
            result["hook_errors"] = record.get("hook_errors", {})
        if "environment" in record:
            result["environment"] = record["environment"]
    shutil.rmtree(record["out"], ignore_errors=True)
    return result


def measure(name, seed, seconds, trace, work):
    """Run processes until the next would end after `seconds`; returns the
    per-process results and the input description."""
    cfg_path, cfg, ref_key, points_digest = make_inputs(name, seed, work)
    reference = load_reference()
    ref_entry = reference["workloads"].get(name, {}).get(ref_key)
    if ref_entry is None:
        raise BenchmarkError(f"no reference for {name} {ref_key}; run --record-reference")
    # untimed warm-up: byte-compile and page in the program and its imports
    subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r}); "
                    "import sdnfilt.cli"], cwd=ROOT, env=child_env(), capture_output=True,
                   timeout=120)  # a failure shows in the measured processes
    problems = []
    if points_digest is not None and points_digest != ref_entry.get("points_sha256"):
        problems.append("denoise input points differ from the recorded reference")
    wl = WORKLOADS[name]
    results = []
    t0 = time.monotonic()
    deadline = t0 + HARD_LIMIT_S + 20.0
    while True:
        traced = trace and len(results) % 2 == 0
        n_traced = sum(r["traced"] for r in results)
        n_plain = len(results) - n_traced
        enough = n_traced >= 2 and n_plain >= 1 if trace else n_plain >= 2
        same_kind = [r["duration"] for r in results if r["traced"] == traced]
        expected = statistics.median(same_kind) if same_kind else 0.0
        elapsed = time.monotonic() - t0
        if (enough and elapsed + expected > seconds) or elapsed + expected > HARD_LIMIT_S:
            break
        record = run_process(wl, cfg_path, work, len(results), traced,
                             environment=not results, deadline=deadline)
        result = evaluate(wl, record, ref_entry)
        result["duration"] = record["duration"]
        results.append(result)
        if result["problems"]:
            break  # a failed check ends the run; the result reports it
    return results, problems, {"config": cfg, "reference": ref_key}


def median_of(results, section, key):
    values = [r[section][key] for r in results if section in r]
    return statistics.median(values) if values else 0.0


def summarize(name, results, input_problems, trace, spec):
    """The result line plus the full record."""
    failed = sum(1 for r in results if r["problems"])
    problems = input_problems + [p for r in results for p in r["problems"]]
    ok = [r for r in results if not r["problems"]]

    for section in ("exact", "counters"):
        seen = {}
        for r in ok:
            for key, value in r.get(section, {}).items():
                seen.setdefault(key, set()).add(value)
        for key, values in seen.items():
            if len(values) > 1:
                problems.append(f"exact counter {key} differs between processes: "
                                f"{sorted(values)}")

    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    metrics = {}
    if trace:
        for entry in spec["per_layer"]:
            key = entry["name"]
            if key == "graphs.rgg_attempts":
                value = median_of(traced, "exact", key)
            elif key == "trace.untraced_run_s":
                value = median_of(plain, "e2e", "run_s")
            elif key == "trace.overhead_s":
                value = median_of(traced, "e2e", "run_s") - median_of(plain, "e2e", "run_s")
            elif key == "trace.overhead_frac":
                base = median_of(plain, "e2e", "run_s")
                value = (median_of(traced, "e2e", "run_s") - base) / base if base else 0.0
            else:
                value = median_of(traced, "layer", key)
            metrics[key] = {"value": value, "unit": entry["unit"]}
    else:
        for entry in spec["end_to_end"]:
            metrics[entry["name"]] = {"value": median_of(plain, "e2e", entry["name"]),
                                      "unit": entry["unit"]}
    line = {
        "correct": not problems and bool(plain) and (bool(traced) or not trace),
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }
    missing = sorted({m for r in traced for m in r.get("missing", [])})
    record = {
        "workload": name,
        "problems": problems,
        "missing_layer_functions": missing,
        "hook_errors": {k: v for r in traced for k, v in r.get("hook_errors", {}).items()},
        "environment": next((r["environment"] for r in results if "environment" in r), None),
        "processes": [{k: r.get(k) for k in ("traced", "duration", "cpu_s", "problems", "e2e",
                                              "exact", "counters")} for r in results],
        "result": line,
    }
    return line, record


def load_reference():
    if not os.path.exists(REFERENCE):
        raise BenchmarkError(f"missing {REFERENCE}; run --record-reference")
    with open(REFERENCE) as fh:
        return json.load(fh)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def record_reference():
    """Run each workload input once and store what the checks compare to."""
    sys.path.insert(0, SRC)
    from sdnfilt.scenarios import generate_run_graph

    reference = {"recorded_at": git_sha(), "workloads": {}}
    for name, wl in WORKLOADS.items():
        entries = reference["workloads"].setdefault(name, {})
        for entry in range(wl.pool):
            work = os.path.join(WORK, f"reference-{name}-{entry}")
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            cfg_path, cfg, key, points_digest = make_inputs(name, entry, work)
            recorded = wl
            if "--distributed" in wl.argv:
                # the simulator's reference is the centralized solve
                recorded = Workload(config=wl.config, argv=["--methods", "pgda,spgda"])
            record = run_process(recorded, cfg_path, work, 0, False, False,
                                 time.monotonic() + 600)
            if "error" in record:
                raise BenchmarkError(f"{name} {key}: {record['error']}")
            graph = None
            if cfg["scenario"] in ("fig1", "time_varying"):
                n = cfg["n"]
                graph = generate_run_graph(n, math.sqrt(2.0 / n), cfg["master_seed"])
            entries[key] = checks.reference_entry(recorded, record["out"], graph)
            if points_digest is not None:
                entries[key]["points_sha256"] = points_digest
            shutil.rmtree(work)
            print(f"recorded {name} {key}", file=sys.stderr)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sdnfilt", "cli.py")):
        print(f"error: no sdnfilt sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.record_reference:
            record_reference()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        spec = load_spec()
        work = os.path.join(WORK, args.workload)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        results, input_problems, inputs = measure(args.workload, args.seed, args.seconds,
                                                  bool(args.trace), work)
        line, record = summarize(args.workload, results, input_problems,
                                 bool(args.trace), spec)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record.update(inputs=inputs, git_sha=git_sha(), seed=args.seed,
                  seconds=args.seconds, trace=args.trace)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if record["missing_layer_functions"]:
        print(f"layer functions not found: {record['missing_layer_functions']}",
              file=sys.stderr)
    attempts = [r["exact"]["graphs.rgg_attempts"] for r in results if "exact" in r]
    print(json.dumps({"environment": record["environment"], "git_sha": record["git_sha"],
                      "setup_s": [round(r["e2e"]["setup_s"], 4) for r in results if "e2e" in r],
                      "graphs.rgg_attempts": attempts[0] if attempts else None}),
          file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
