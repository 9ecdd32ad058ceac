"""Per-layer metrics from the spans and counters of one traced process.

A layer is an sdnfilt module; a span belongs to the layer whose module
defines the wrapped function (`cli.main` is the root span). A span's self
time is its duration minus that of its direct children, so the startup
time before `cli.main` plus the self times of all layers add up to the
traced run time.
"""

import statistics

METHODS = ("pgda", "spgda", "opgd", "imia")
LAYERS = ("cli", "scenarios", "graphs", "filters", "preconditioners",
          "solvers", "sdn", "io")

# The functions the layer metrics are read from. One that a refactor
# removed or renamed is reported as missing and its metrics read 0.
SOURCES = (
    "graphs.random_geometric_graph", "graphs.knn_graph", "graphs.ball",
    "filters.build_fig1_filter", "filters.build_denoise_filter",
    "filters.GraphFilter.__init__", "filters.GraphFilter.matvec",
    "filters.power_spectral_radius", "filters.extreme_singular_values",
    "preconditioners.build_pgda_preconditioner",
    "preconditioners.build_spgda_preconditioner",
    "solvers.prepare_params", "solvers.solve", "solvers.direct_solve_oracle",
    "sdn.SdnNetwork.__init__", "sdn.SdnNetwork.distributed_preconditioner",
    "sdn.SdnNetwork.spgda_setup", "sdn.SdnNetwork.run_pgda",
    "sdn.SdnNetwork.run_spgda",
    "scenarios.run_scenario", "scenarios.emit_outputs",
    "io.write_roundlog_csv", "io.read_points_csv",
)

# Deterministic counts: equal in every traced process of one workload.
EXACT_COUNTERS = (
    "filters.power_iterations", "filters.spectral_unconverged",
    "filters.spectral_estimates", "filters.matvec_calls",
    "solvers.iterations", "solvers.solves", "solvers.diverged",
    "sdn.messages", "sdn.rounds", "graphs.ball_calls",
    "filters.construct_calls",
)


class SpanTree:
    def __init__(self, spans):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                self.child_time[parent] += end - start

    def self_time(self, i):
        _, start, end, _, _ = self.spans[i]
        return end - start - self.child_time[i]

    def under(self, i, names):
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def inclusive(self, *names):
        """Time inside calls to any of `names`, nested calls counted once."""
        names = set(names)
        return sum(end - start for i, (name, start, end, _, _) in enumerate(self.spans)
                   if name in names and not self.under(i, names))

    def matching(self, predicate):
        return [i for i, s in enumerate(self.spans) if predicate(s[0])]

    def count(self, name):
        return sum(1 for s in self.spans if s[0] == name)


def layer_metrics(record, t_launch, bytes_written):
    tree = SpanTree(record["spans"])
    counters = record["counters"]
    c = lambda key: counters.get(key, 0)  # noqa: E731
    run_s = record["t_end"] - t_launch
    m = {}

    m["graphs.rgg_s"] = tree.inclusive("graphs.random_geometric_graph")
    m["graphs.knn_s"] = tree.inclusive("graphs.knn_graph")
    m["graphs.ball_calls"] = tree.count("graphs.ball")
    m["graphs.ball_s"] = tree.inclusive("graphs.ball")

    m["filters.build_s"] = tree.inclusive("filters.build_fig1_filter",
                                          "filters.build_denoise_filter")
    m["filters.construct_s"] = tree.inclusive("filters.GraphFilter.__init__")
    m["filters.construct_calls"] = tree.count("filters.GraphFilter.__init__")
    m["filters.matvec_calls"] = c("filters.GraphFilter.matvec")
    # radius estimates only; those inside extreme_singular_values count there
    m["filters.radius_s"] = sum(
        tree.spans[i][2] - tree.spans[i][1]
        for i in tree.matching(lambda n: n == "filters.power_spectral_radius")
        if not tree.under(i, {"filters.power_spectral_radius",
                              "filters.extreme_singular_values"}))
    m["filters.singular_values_s"] = tree.inclusive("filters.extreme_singular_values")
    m["filters.power_iterations"] = c("filters.power_iterations")
    m["filters.spectral_estimates"] = (c("filters.radius_estimates")
                                       + c("filters.singular_value_pairs"))
    m["filters.spectral_unconverged"] = (c("filters.radius_unconverged")
                                         + c("filters.singular_values_unconverged"))

    m["preconditioners.pgda_build_s"] = tree.inclusive(
        "preconditioners.build_pgda_preconditioner")
    m["preconditioners.spgda_build_s"] = tree.inclusive(
        "preconditioners.build_spgda_preconditioner")

    m["solvers.prepare_s"] = tree.inclusive("solvers.prepare_params")
    for method in METHODS:
        solve_s = counters.get(f"solvers.solve_s.{method}", 0.0)
        iters = c(f"solvers.iterations.{method}")
        m[f"solvers.solve_s.{method}"] = solve_s
        m[f"solvers.iter_us.{method}"] = 1e6 * solve_s / iters if iters else 0.0
    m["solvers.iterations"] = c("solvers.iterations")
    m["solvers.solves"] = c("solvers.solves")
    m["solvers.diverged"] = c("solvers.diverged")
    m["solvers.oracle_s"] = tree.inclusive("solvers.direct_solve_oracle")

    m["sdn.deploy_s"] = tree.inclusive("sdn.SdnNetwork.__init__")
    m["sdn.precond_s"] = tree.inclusive("sdn.SdnNetwork.distributed_preconditioner",
                                        "sdn.SdnNetwork.spgda_setup")
    for method in ("pgda", "spgda"):
        rounds = c(f"sdn.rounds.{method}")
        run = tree.inclusive(f"sdn.SdnNetwork.run_{method}")
        m[f"sdn.{method}_round_s"] = run / rounds if rounds else 0.0
    m["sdn.rounds"] = c("sdn.rounds")
    m["sdn.messages"] = c("sdn.messages")
    m["sdn.messages_per_exchange"] = (c("sdn.messages") / c("sdn.rounds")
                                      if c("sdn.rounds") else 0.0)

    scenario_spans = tree.matching(lambda n: n == "scenarios.run_scenario")
    starts = record.get("trial_starts") or []
    if starts and scenario_spans:
        bounds = starts + [tree.spans[scenario_spans[-1]][2]]
        m["scenarios.trial_s"] = statistics.median(
            b - a for a, b in zip(bounds, bounds[1:]))
    else:
        m["scenarios.trial_s"] = 0.0

    m["io.emit_s"] = tree.inclusive("scenarios.emit_outputs")
    m["io.roundlog_write_s"] = tree.inclusive("io.write_roundlog_csv")
    write_names = {s[0] for s in tree.spans
                   if s[0].startswith("io.write_") or s[0] == "io.atomic_write_text"}
    write_s = tree.inclusive(*write_names)
    m["io.bytes_written"] = bytes_written
    m["io.write_mb_per_s"] = bytes_written / 1e6 / write_s if write_s else 0.0
    read_names = {s[0] for s in tree.spans if s[0].startswith("io.read_")}
    m["io.read_s"] = tree.inclusive(*read_names)

    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for i, span in enumerate(tree.spans):
        layer = span[0].split(".", 1)[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + tree.self_time(i)
    for layer, value in self_by_layer.items():
        m[f"{layer}.self_s"] = value

    root = tree.matching(lambda n: n == "cli.main")
    startup = (tree.spans[root[0]][1] if root else record["t_main_start"]) - t_launch
    m["trace.startup_s"] = startup
    m["trace.run_s"] = run_s
    m["trace.accounted_frac"] = (startup + sum(self_by_layer.values())) / run_s
    m["trace.spans"] = len(tree.spans)
    return m


def missing_sources(record):
    wrapped = set(record.get("wrapped", ()))
    return sorted(set(SOURCES) - wrapped) + list(record.get("missing", ()))
