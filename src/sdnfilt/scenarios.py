"""Experiment scenarios: seeded multi-trial runs with plot-ready outputs.

Three built-in scenarios plus a bring-your-own-files one:

* fig1          inverse filtering of a blockwise polynomial signal through
                a two-hop kernel filter on a random geometric graph; one
                graph per run, filter and signal noise redrawn per trial.
* denoise       smoothing-penalty denoising on a k-NN graph of ingested
                points; observation noise redrawn per trial.
* time_varying  a filter sequence with fresh perturbations per epoch,
                each solved with pgda through the vertex-level simulator.
* custom        graph, filter and observation loaded from CSV files.

Every run is a pure function of (config, master_seed): output files are
byte-identical across reruns.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from .filters import (
    GraphFilter,
    Signal,
    apply,
    build_denoise_filter,
    build_fig1_filter,
    extreme_singular_values,
)
from .graphs import GenerationError, Graph, knn_graph, random_geometric_graph
from .io import (
    IngestError,
    read_edges_csv,
    read_filter_csv,
    read_points_csv,
    read_signal_csv,
    write_curves_csv,
    write_roundlog_csv,
    write_summary_json,
    atomic_write_text,
)
from .sdn import SdnNetwork
from .solvers import (
    METHODS,
    Method,
    _norms,
    _rows,
    _snr_db,
    direct_solve_oracle,
    solve_stack,
    spectral_radius,
)

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "TrialAggregate",
    "blockwise_polynomial",
    "add_uniform_noise",
    "synthetic_points",
    "run_fig1",
    "run_denoise",
    "run_time_varying",
    "run_custom",
    "run_scenario",
    "emit_outputs",
    "iterations_to_threshold",
]

SCENARIOS = ("fig1", "denoise", "time_varying", "custom")
# the scenarios that read each scenario-specific key; all read the others
_READERS = {"points_csv": ("denoise", "custom"), "edges_csv": ("custom",),
            "filter_csv": ("custom",), "signal_csv": ("custom",), "k": ("denoise",),
            "alpha": ("denoise",), "epochs": ("time_varying",),
            **dict.fromkeys(("n", "radius", "gamma"), ("fig1", "time_varying")),
            "eta": ("fig1", "denoise", "time_varying"),
            "trials": ("fig1", "denoise", "custom")}

# spawn-key stream tags so graph, filter noise and signal noise never share
# a random stream
_STREAM_FILTER = 1
_STREAM_SIGNAL = 2
_STREAM_OBS = 3
_STREAM_EPOCH = 4

GRAPH_ROUND_STRIDE = 100000
GRAPH_ROUNDS = 32

FIVE_PCT_THRESHOLD = 0.05
PLATEAU_DB = 0.1


class ConfigError(ValueError):
    """Invalid or inconsistent scenario configuration."""


@dataclass
class ScenarioConfig:
    """Flat, JSON-compatible experiment configuration."""

    scenario: str = "fig1"
    n: int = 512
    radius: float | None = None          # default sqrt(2/n) for geometric graphs
    k: int = 5                           # k-NN degree for the denoise graph
    gamma: float = 0.05                  # filter perturbation level
    eta: float = 0.2                     # signal noise level
    alpha: float = 0.9075                # smoothing penalty
    methods: tuple = METHODS
    iterations: int = 200
    trials: int = 100
    master_seed: int = 777016
    output_dir: str | None = None
    points_csv: str | None = None
    edges_csv: str | None = None
    filter_csv: str | None = None
    signal_csv: str | None = None
    epochs: int = 3
    distributed: bool = False
    comm_range: int | None = None
    roundlog: bool = False

    def __post_init__(self):
        self._check_fields()
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}"
            )
        if not isinstance(self.methods, (list, tuple)):
            raise ConfigError(f"methods must be a list of method names, got {self.methods!r}")
        self.methods = tuple(self.methods)
        if not self.methods:
            raise ConfigError("methods list is empty")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; expected one of {METHODS}")
        if len(set(self.methods)) < len(self.methods):
            raise ConfigError(f"methods {list(self.methods)} name a method twice")
        if self.scenario == "time_varying" and "pgda" not in self.methods:
            raise ConfigError("time_varying runs pgda only, and methods "
                              f"{list(self.methods)} leave it out")
        if self.scenario == "denoise" and self.points_csv is None:
            raise ConfigError("denoise scenario needs points_csv (id,x,y,value)")
        if self.scenario == "custom":
            for key in ("edges_csv", "filter_csv", "signal_csv"):
                if getattr(self, key) is None:
                    raise ConfigError(f"custom scenario needs {key}")
        if self.distributed:
            bad = [m for m in self.methods if m not in ("pgda", "spgda")]
            if bad:
                raise ConfigError(
                    f"distributed execution only supports pgda and spgda, got {bad}"
                )
        elif self.scenario != "time_varying":
            # only the simulator sends messages; time_varying always runs it
            if self.roundlog:
                raise ConfigError("roundlog needs --distributed: a centralized "
                                  f"{self.scenario} run sends no messages")
            if self.comm_range is not None:
                raise ConfigError("comm_range needs --distributed: a centralized "
                                  f"{self.scenario} run sends no messages")

    def _check_fields(self) -> None:
        """Type and range of every numeric field, and the type of every flag
        and path field. Comparisons are written so that NaN fails them;
        only `radius` may be infinite (a complete graph)."""
        for key in ("distributed", "roundlog"):
            if not isinstance(value := getattr(self, key), bool):
                raise ConfigError(f"{key} must be true or false, got {value!r}")
        for key in ("output_dir", "points_csv", "edges_csv", "filter_csv", "signal_csv"):
            if not isinstance(value := getattr(self, key), (str, type(None))):
                raise ConfigError(f"{key} must be a path string or null, got {value!r}")
        for key, low in (("n", 1), ("k", 1), ("iterations", 1), ("trials", 1),
                         ("epochs", 1), ("master_seed", 0), ("comm_range", 0)):
            value = getattr(self, key)
            if key == "comm_range" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
            if not value >= low:
                raise ConfigError(f"{key} must be >= {low}, got {value}")
        for key in ("radius", "gamma", "eta", "alpha"):
            value = getattr(self, key)
            if key == "radius" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{key} must be a number, got {value!r}")
            if key == "radius" and not value > 0:
                raise ConfigError(f"radius must be > 0, got {value}")
            if key != "radius" and not 0 <= value < float("inf"):
                raise ConfigError(f"{key} must be finite and >= 0, got {value}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**raw)
        unread = sorted(k for k in raw if cfg.scenario not in _READERS.get(k, SCENARIOS))
        if unread:
            raise ConfigError(f"the {cfg.scenario} scenario never reads {unread}")
        return cfg

    def resolved_radius(self) -> float:
        return float(np.sqrt(2.0 / self.n)) if self.radius is None else self.radius


@dataclass
class TrialAggregate:
    """One scenario run's record. Each field but the last three is a key of
    summary.json; those three go to files of their own."""

    scenario: str
    methods: tuple
    metric: str                                          # "rel_error" or "snr"
    trials: int
    master_seed: int
    graph: dict
    config: dict
    mean_spectral_radius: dict = field(default_factory=dict)
    iterations_to_5pct: dict = field(default_factory=dict)
    iterations_to_plateau: dict = field(default_factory=dict)
    limit_snr: float | None = None
    diverged: dict = field(default_factory=dict)
    condition_numbers: list = field(default_factory=list)
    spectral_unconverged: dict = field(default_factory=dict)
    spectral_fallbacks: dict = field(default_factory=dict)
    message_totals: dict = field(default_factory=dict)
    curves: dict = field(default_factory=dict)           # curves.csv: method -> mean per m
    epoch_rows: list = field(default_factory=list)       # epochs.csv, time_varying only
    message_logs: list = field(default_factory=list)     # roundlog.csv, empty unless kept


# ---------------------------------------------------------------------------
# signal constructions
# ---------------------------------------------------------------------------


def blockwise_polynomial(g: Graph) -> Signal:
    """Piecewise signal on four anti-diagonal strips of the unit square:
    strips 0 and 2 carry 0.5 - 2x, strips 1 and 3 carry 0.5 + x^2 + y^2."""
    if g.coordinates is None:
        raise ValueError("graph has no coordinates")
    pts = g.coordinates
    strip = np.minimum(3, np.floor(2.0 * (pts[:, 0] + pts[:, 1]))).astype(int)
    values = np.where(
        strip % 2 == 0,
        0.5 - 2.0 * pts[:, 0],
        0.5 + pts[:, 0] ** 2 + pts[:, 1] ** 2,
    )
    return Signal(g, values)


def add_uniform_noise(x: Signal, eta: float, rng_seed: int) -> Signal:
    """Componentwise x + u with u i.i.d. uniform on [-eta, eta]."""
    if not eta >= 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    if eta == 0.0:
        return x.copy()
    rng = np.random.default_rng(np.random.SeedSequence(entropy=rng_seed))
    return Signal(x.graph, x.values + rng.uniform(-eta, eta, size=x.graph.n))


def synthetic_points(n: int = 218, rng_seed: int = 0):
    """Uniform points on [0,1]^2 with a smooth temperature-like field,
    for exercising the denoise scenario without any external dataset."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=rng_seed))
    coords = rng.random((n, 2))
    x, y = coords[:, 0], coords[:, 1]
    values = (
        60.0
        + 25.0 * np.sin(2.1 * x + 0.4)
        + 18.0 * np.cos(1.7 * y - 0.2)
        + 10.0 * x * y
    )
    return coords, values


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _stream_seed(master_seed: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    return int(ss.generate_state(1)[0])


def generate_run_graph(n: int, radius: float, master_seed: int) -> Graph:
    """Connected random geometric graph for one run. Each round hands the
    generator a fresh entropy and its own 64-sub-seed budget; at this
    graph density many rounds can be needed."""
    for round_idx in range(GRAPH_ROUNDS):
        try:
            return random_geometric_graph(
                n, radius, rng_seed=master_seed + GRAPH_ROUND_STRIDE * round_idx
            )
        except GenerationError:
            continue
    raise GenerationError(
        f"no connected geometric graph with n={n}, radius={radius} in "
        f"{GRAPH_ROUNDS} rounds from seed {master_seed}"
    )


def _rgg_info(graph: Graph) -> dict:
    return {
        "n": graph.n,
        "edges": graph.num_edges(),
        "generator_seed": list(graph.generator_seed),
    }


def iterations_to_threshold(curve, threshold: float):
    """Smallest index m with curve[m] <= threshold, or None."""
    return next((m for m, v in enumerate(curve) if v <= threshold), None)


def _routed(net: SdnNetwork, method: str) -> Method:
    """`method` with one simulator round as its step, for `solve_stack` to
    drive from the zero initial on the one observation the network holds.
    Its iterates and their H x (`SdnNetwork.filtered`, which a pgda round
    reads for its next residual too) equal the centralized ones bit for bit."""
    setup, run = ((net.distributed_preconditioner, net.run_pgda) if method == "pgda"
                  else (net.spgda_setup, net.run_spgda))
    setup()
    return Method(g=None, error=None,
                  step=lambda x, e: (run().values[:, None], net.filtered()[:, None]))


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _concurrent_map(fn, items: list) -> list:
    """[fn(item) for item in items], on min(len(items), _cpus()) pool
    threads, or on the calling thread where that is one. The first failure
    in item order is raised once the started calls end, every item not
    yet started cancelled; an interrupt cancels them too."""
    workers = min(len(items), _cpus())
    if workers < 2:
        return list(map(fn, items))
    # imported here, so that a run which starts no pool does not load it
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, items))


class _MethodRuns:
    """Per-method results of one run, of every scenario.

    `run` solves a block of observations of one filter, one trial per
    column, with every method through `solve_stack`, and reads each
    trial's curve of the scenario's metric ("rel_error" or "snr") from its
    trace. A block of one observation (fig1, custom) is one stack of all
    the methods; a block of several (denoise) is one stack per method, the
    stacks solved concurrently (`_concurrent_map`). A distributed config
    solves one trial at a time, trial-major, on a network deployed for it,
    with one simulator round as the step; a time_varying epoch is such a
    trial, and its row goes to `epoch_rows` in place of a curve. A
    diverged solve adds to `diverged` instead of to the curves.
    """

    def __init__(self, cfg: ScenarioConfig, metric: str):
        self.cfg = cfg
        self.metric = metric
        self.trials = 0
        self.curves = {m: [] for m in cfg.methods}
        self.spectra = []       # per filter: ({method: radius}, singular values)
        self.diverged = {m: 0 for m in cfg.methods}
        self.messages = {m: 0 for m in cfg.methods}
        self.message_logs = []  # one sdn.MessageLog per network, with --roundlog
        self.epoch_rows = []

    def prepare(self, h: GraphFilter) -> dict:
        """Prepare every method for h and return the method table. The
        spectral radius of each iteration matrix and the extreme singular
        values, opgd's when it runs, go to `spectra` as one entry."""
        params = {}
        radii = {m: spectral_radius(h, m, params) for m in self.cfg.methods}
        opgd = params.get("opgd")
        self.spectra.append((radii, opgd.singular_values if opgd
                             else extreme_singular_values(h)))
        return params

    def run(self, graph: Graph, h: GraphFilter, ys: np.ndarray, params: dict | None,
            reference: np.ndarray, epoch: int | None = None) -> None:
        """Solve the observations ys (n x trials) of h with every method and
        keep each trial's metric curve against reference (n,); `epoch`
        names the time_varying epoch of a distributed trial."""
        field = "snrs" if self.metric == "snr" else "relative_errors"
        # the solves need no factor: dropped before the stacks are built
        h.release_factor()
        distributed, methods = self.cfg.distributed, self.cfg.methods
        # one observation is one stack of every method. A block of several
        # is one stack per method: a stack of it would hold M copies of
        # the block's working set at once, which ran slower. The simulator
        # runs one method per network, one network at a time. A centralized
        # block's stacks share nothing but read-only inputs, and their
        # products and ufuncs release the GIL, so they run on threads
        stacks = ([methods] if ys.shape[1] == 1 and not distributed
                  else [(m,) for m in methods])
        blocks = np.hsplit(ys, ys.shape[1]) if distributed else [ys]
        solve_all = map if distributed else _concurrent_map
        for block in blocks:
            self.trials += block.shape[1]
            for solved in solve_all(lambda stack: self._solve(
                    graph, h, block, stack, params, reference, epoch), stacks):
                self._record(solved, field, keep=epoch is None)

    def _solve(self, graph, h, ys, stack, params, reference, epoch):
        """(method, traces) for each method of the stack. For a distributed
        config the stack is one method on one observation, solved on a
        network that holds it, whose message count, message log and epoch
        row are recorded here."""
        cfg = self.cfg
        if cfg.distributed:
            (method,) = stack
            net = SdnNetwork(graph, h, Signal(graph, ys[:, 0]), comm_range=cfg.comm_range,
                             log_messages=cfg.roundlog, epoch=epoch)
            params = {method: _routed(net, method)}
        solved = solve_stack(h, ys, stack, cfg.iterations, reference, params)
        if not cfg.distributed:
            return [(m, traces) for m, (_, traces) in zip(stack, solved)]
        [(_, (trace,))] = solved
        self.messages[method] += net.total_messages()
        if cfg.roundlog:
            self.message_logs.append(net.message_log())
        if epoch is not None:
            self.epoch_rows.append({"epoch": epoch, "rel_error": trace.relative_errors[-1],
                                    "messages": net.total_messages(),
                                    "rounds": len(net.rounds)})
        return [(method, [trace])]

    def _record(self, solved, field, keep):
        """Count each diverged trace; keep every other one's curve where `keep`."""
        for m, traces in solved:
            for trace in traces:
                if trace.status == "diverged":
                    self.diverged[m] += 1
                elif keep:  # as an array: a third of the memory of floats
                    self.curves[m].append(np.array(getattr(trace, field)))

    def record(self, scenario: str, graph: dict, config: dict,
               **fields) -> TrialAggregate:
        """The run's record, with the fields every scenario shares filled
        from this run; `fields` are the scenario's own."""
        return TrialAggregate(
            scenario=scenario, methods=self.cfg.methods, metric=self.metric,
            trials=self.trials, master_seed=self.cfg.master_seed, graph=graph,
            config=config, diverged=self.diverged, message_totals=self.messages,
            message_logs=self.message_logs, **fields)

    def aggregate(self, scenario: str, graph: dict, **fields) -> TrialAggregate:
        """The record with cross-trial means, plus iterations to 5% for error
        curves or to the limit-SNR plateau for SNR curves. The spectral keys
        come from `spectra`: each radius's mean, and the count of estimates
        that missed their tolerance or fell back to Lanczos."""
        radii, methods = [r for r, _ in self.spectra], self.cfg.methods
        agg = self.record(
            scenario, graph, asdict(self.cfg),
            curves={m: np.mean(np.array(rows), axis=0).tolist() if rows else []
                    for m, rows in self.curves.items()},
            mean_spectral_radius={m: float(np.mean([r[m].value for r in radii]))
                                  for m in methods},
            spectral_unconverged={
                "radius": {m: sum(not r[m].converged for r in radii) for m in methods},
                "singular_values": sum(not sv.converged for _, sv in self.spectra)},
            spectral_fallbacks={m: sum(r[m].route == "fallback" for r in radii)
                                for m in methods},
            **fields,
        )
        for m, curve in agg.curves.items():
            if self.metric == "snr":
                gaps = [abs(v - agg.limit_snr) for v in curve]
                agg.iterations_to_plateau[m] = iterations_to_threshold(gaps, PLATEAU_DB)
            else:
                agg.iterations_to_5pct[m] = iterations_to_threshold(
                    curve, FIVE_PCT_THRESHOLD)
        return agg


# ---------------------------------------------------------------------------
# fig1: inverse filtering benchmark
# ---------------------------------------------------------------------------


def run_fig1(cfg: ScenarioConfig) -> TrialAggregate:
    graph = generate_run_graph(cfg.n, cfg.resolved_radius(), cfg.master_seed)
    base_signal = blockwise_polynomial(graph)
    runs = _MethodRuns(cfg, "rel_error")

    for trial in range(cfg.trials):
        h = build_fig1_filter(
            graph, cfg.gamma, _stream_seed(cfg.master_seed, trial, _STREAM_FILTER)
        )
        params = runs.prepare(h)
        x = add_uniform_noise(
            base_signal, cfg.eta, _stream_seed(cfg.master_seed, trial, _STREAM_SIGNAL)
        )
        y = apply(h, x)
        direct_solve_oracle(h, y)  # residual gate before any error curve
        runs.run(graph, h, y.values[:, None], params, x.values)

    return runs.aggregate("fig1", _rgg_info(graph), condition_numbers=[
        sv.sigma_max.value / sv.sigma_min.value for _, sv in runs.spectra])


# ---------------------------------------------------------------------------
# denoise: smoothing-penalty inversion on a k-NN graph
# ---------------------------------------------------------------------------


def run_denoise(cfg: ScenarioConfig) -> TrialAggregate:
    coords, values = read_points_csv(cfg.points_csv)
    if values is None:
        raise IngestError(
            f"{cfg.points_csv}: denoise scenario needs a 'value' column"
        )
    graph = knn_graph(coords, cfg.k)
    h = build_denoise_filter(graph, cfg.alpha)
    clean = Signal(graph, values)
    runs = _MethodRuns(cfg, "snr")
    params = runs.prepare(h)

    # the trials share h, so their observations are solved as one block,
    # by the oracle and by every method
    ys = np.empty((graph.n, cfg.trials))
    for trial in range(cfg.trials):
        ys[:, trial] = add_uniform_noise(
            clean, cfg.eta, _stream_seed(cfg.master_seed, trial, _STREAM_OBS)
        ).values
    limit_snrs = _snr_db(_norms(_rows(direct_solve_oracle(h, ys) - values[:, None]))
                         / (np.linalg.norm(values) or 1.0))
    runs.run(graph, h, ys, params, values)

    return runs.aggregate(
        "denoise", {"n": graph.n, "edges": graph.num_edges(), "k": cfg.k},
        limit_snr=float(np.mean(limit_snrs)),
    )


# ---------------------------------------------------------------------------
# time-varying: per-epoch filters through the simulator
# ---------------------------------------------------------------------------


def run_time_varying(cfg: ScenarioConfig) -> TrialAggregate:
    """One pgda solve per epoch, each a --distributed trial on a network
    deployed for that epoch's filter. An epoch's final relative error is
    kept whether or not it diverged."""
    graph = generate_run_graph(cfg.n, cfg.resolved_radius(), cfg.master_seed)
    base = blockwise_polynomial(graph)
    x = add_uniform_noise(base, cfg.eta, _stream_seed(cfg.master_seed, 0, _STREAM_SIGNAL))

    runs = _MethodRuns(replace(cfg, methods=("pgda",), distributed=True), "rel_error")
    for t in range(cfg.epochs):
        h = build_fig1_filter(
            graph, cfg.gamma, _stream_seed(cfg.master_seed, t, _STREAM_EPOCH)
        )
        y = apply(h, x)
        oracle = direct_solve_oracle(h, y)
        runs.run(graph, h, y.values[:, None], None, oracle.values, epoch=t)

    return runs.record("time_varying", _rgg_info(graph), asdict(cfg),
                       curves={"pgda": [r["rel_error"] for r in runs.epoch_rows]},
                       epoch_rows=runs.epoch_rows)


# ---------------------------------------------------------------------------
# custom: everything from files
# ---------------------------------------------------------------------------


def run_custom(cfg: ScenarioConfig) -> TrialAggregate:
    n, edges = read_edges_csv(cfg.edges_csv)
    coords = None
    if cfg.points_csv:
        coords, _ = read_points_csv(cfg.points_csv)
        if len(coords) != n:
            raise IngestError(f"{cfg.points_csv}: {len(coords)} points, but "
                              f"{cfg.edges_csv} has {n} vertices")
    graph = Graph.from_edges(n, edges, coordinates=coords)
    h = read_filter_csv(cfg.filter_csv, graph)
    y = read_signal_csv(cfg.signal_csv, graph)
    oracle = direct_solve_oracle(h, y)

    runs = _MethodRuns(cfg, "rel_error")
    runs.run(graph, h, y.values[:, None], runs.prepare(h), oracle.values)
    return runs.aggregate("custom", {"n": graph.n, "edges": graph.num_edges()})


def run_scenario(cfg: ScenarioConfig) -> TrialAggregate:
    runners = {"fig1": run_fig1, "denoise": run_denoise,
               "time_varying": run_time_varying, "custom": run_custom}
    return runners[cfg.scenario](cfg)


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------


def emit_outputs(agg: TrialAggregate, out_dir: str) -> list[str]:
    """Write curves.csv, summary.json and, when present, epochs.csv and
    roundlog.csv. Returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    curves_path = os.path.join(out_dir, "curves.csv")
    write_curves_csv(curves_path, agg.curves)
    written.append(curves_path)

    payloads = ("curves", "epoch_rows", "message_logs")
    summary = {k: v for k, v in vars(agg).items() if k not in payloads}
    summary_path = os.path.join(out_dir, "summary.json")
    write_summary_json(summary_path, summary)
    written.append(summary_path)

    if agg.epoch_rows:
        rows = ["epoch,rel_error,messages,rounds"]
        rows.extend(
            f"{r['epoch']},{r['rel_error']!r},{r['messages']},{r['rounds']}"
            for r in agg.epoch_rows
        )
        epochs_path = os.path.join(out_dir, "epochs.csv")
        atomic_write_text(epochs_path, "\n".join(rows) + "\n")
        written.append(epochs_path)

    if agg.message_logs:
        roundlog_path = os.path.join(out_dir, "roundlog.csv")
        write_roundlog_csv(roundlog_path, agg.message_logs)
        written.append(roundlog_path)

    return written
