import dataclasses
import json
import os

import numpy as np
import pytest

from sdnfilt.filters import Signal, apply, build_denoise_filter
from sdnfilt.graphs import Graph, knn_graph
from sdnfilt.io import write_points_csv
from sdnfilt.preconditioners import (
    build_pgda_preconditioner,
    build_spgda_preconditioner,
)
from sdnfilt.scenarios import (
    ConfigError,
    ScenarioConfig,
    add_uniform_noise,
    blockwise_polynomial,
    emit_outputs,
    iterations_to_threshold,
    run_denoise,
    run_fig1,
    run_time_varying,
    run_custom,
    synthetic_points,
)
from sdnfilt.solvers import METHODS, SolverConfig, direct_solve_oracle, solve

from conftest import dense_of, write_two_vertex_custom
from scenario_reference import denoise_reference


def coord_graph():
    coords = np.array([[0.0, 0.0], [0.4, 0.4], [1.0, 1.0]])
    return Graph.from_edges(3, [(0, 1), (1, 2)], coordinates=coords)


class TestBlockwisePolynomial:
    def test_strip_values(self):
        x = blockwise_polynomial(coord_graph())
        # (0,0): strip 0, 0.5 - 0 = 0.5
        assert x.values[0] == pytest.approx(0.5)
        # (0.4,0.4): strip 1, 0.5 + 0.16 + 0.16 = 0.82
        assert x.values[1] == pytest.approx(0.82)
        # (1,1): clamped to strip 3, 0.5 + 1 + 1 = 2.5
        assert x.values[2] == pytest.approx(2.5)

    def test_requires_coordinates(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError, match="coordinates"):
            blockwise_polynomial(g)


class TestUniformNoise:
    def test_zero_level_unchanged(self):
        x = blockwise_polynomial(coord_graph())
        out = add_uniform_noise(x, 0.0, rng_seed=5)
        assert np.array_equal(out.values, x.values)

    @pytest.mark.parametrize("eta", [-0.1, float("nan")])
    def test_bad_level_rejected(self, eta):
        with pytest.raises(ValueError, match="eta must be >= 0"):
            add_uniform_noise(blockwise_polynomial(coord_graph()), eta, rng_seed=5)

    def test_support_bound(self):
        x = blockwise_polynomial(coord_graph())
        for seed in range(20):
            out = add_uniform_noise(x, 0.3, rng_seed=seed)
            assert np.abs(out.values - x.values).max() <= 0.3

    def test_empirical_variance(self):
        # uniform-distribution oracle: Var = eta^2 / 3
        eta = 0.7
        g = Graph.from_edges(2, [(0, 1)])
        base = Signal(g, np.zeros(2))
        draws = []
        for seed in range(50_000):
            draws.extend(add_uniform_noise(base, eta, rng_seed=seed).values)
        var = float(np.var(draws))
        assert abs(var - eta**2 / 3.0) <= 0.05 * eta**2 / 3.0

    def test_deterministic(self):
        x = blockwise_polynomial(coord_graph())
        a = add_uniform_noise(x, 0.2, rng_seed=9)
        b = add_uniform_noise(x, 0.2, rng_seed=9)
        assert np.array_equal(a.values, b.values)


class TestScenarioConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ScenarioConfig.from_dict({"scenario": "fig1", "bogus": 1})

    def test_key_the_scenario_never_reads_rejected(self):
        # each scenario-specific key is accepted where a scenario reads it
        # and rejected, naming key and scenario, everywhere else; the
        # shared keys are accepted everywhere
        required = {"fig1": {}, "time_varying": {}, "denoise": {"points_csv": "p.csv"},
                    "custom": {"edges_csv": "e.csv", "filter_csv": "f.csv",
                               "signal_csv": "s.csv"}}
        readers = {"points_csv": "denoise custom", "edges_csv": "custom",
                   "filter_csv": "custom", "signal_csv": "custom", "k": "denoise",
                   "alpha": "denoise", "epochs": "time_varying",
                   "n": "fig1 time_varying", "radius": "fig1 time_varying",
                   "gamma": "fig1 time_varying", "eta": "fig1 denoise time_varying",
                   "trials": "fig1 denoise custom"}
        values = {"points_csv": "q.csv", "edges_csv": "d.csv", "filter_csv": "g.csv",
                  "signal_csv": "t.csv", "k": 3, "alpha": 0.5, "epochs": 2, "n": 16,
                  "radius": 0.5, "gamma": 0.1, "eta": 0.3, "trials": 2}
        shared = {"master_seed": 3, "iterations": 4, "methods": ["pgda"],
                  "output_dir": "o", "distributed": True, "roundlog": True,
                  "comm_range": 2}
        for scenario, base in required.items():
            cfg = ScenarioConfig.from_dict({**base, "scenario": scenario, **shared})
            assert (cfg.master_seed, cfg.comm_range) == (3, 2)
            for key, value in values.items():
                raw = {**base, "scenario": scenario, key: value}
                if scenario in readers[key].split():
                    assert getattr(ScenarioConfig.from_dict(raw), key) == value
                else:
                    with pytest.raises(ConfigError, match=rf"the {scenario} scenario "
                                       rf"never reads \['{key}'\]"):
                        ScenarioConfig.from_dict(raw)

    def test_empty_methods_rejected(self):
        with pytest.raises(ConfigError, match="methods"):
            ScenarioConfig(methods=())

    @pytest.mark.parametrize("methods", [5, None, {"pgda": 1}, "pgda"])
    def test_methods_not_a_list_rejected(self, methods):
        with pytest.raises(ConfigError, match="methods must be a list of method names"):
            ScenarioConfig(methods=methods)

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError, match="unknown method"):
            ScenarioConfig(methods=("pgda", "cg"))

    def test_denoise_needs_points(self):
        with pytest.raises(ConfigError, match="points_csv"):
            ScenarioConfig(scenario="denoise")

    def test_custom_needs_files(self):
        with pytest.raises(ConfigError, match="edges_csv"):
            ScenarioConfig(scenario="custom")

    def test_distributed_restricted_to_vertex_level_methods(self):
        with pytest.raises(ConfigError, match="distributed"):
            ScenarioConfig(distributed=True, methods=("pgda", "opgd"))

    def test_default_radius(self):
        cfg = ScenarioConfig(n=128)
        assert cfg.resolved_radius() == pytest.approx(np.sqrt(2.0 / 128))

    @pytest.mark.parametrize("key,value,message", [
        ("eta", float("nan"), "eta must be finite"),
        ("eta", float("inf"), "eta must be finite"),
        ("eta", -0.1, "eta must be finite"),
        ("gamma", float("nan"), "gamma must be finite"),
        ("alpha", float("nan"), "alpha must be finite"),
        ("gamma", "0.05", "gamma must be a number"),
        ("radius", "0.3", "radius must be a number"),
        ("radius", float("nan"), "radius must be > 0, got nan"),
        ("radius", 0.0, "radius must be > 0"),
        ("radius", True, "radius must be a number"),
        ("n", True, "n must be an integer"),
        ("n", 64.0, "n must be an integer"),
        ("n", 0, "n must be >= 1"),
        ("k", "5", "k must be an integer"),
        ("k", 0, "k must be >= 1"),
        ("iterations", 1.5, "iterations must be an integer"),
        ("iterations", 0, "iterations must be >= 1"),
        ("trials", False, "trials must be an integer"),
        ("trials", 0, "trials must be >= 1"),
        ("epochs", None, "epochs must be an integer"),
        ("epochs", 0, "epochs must be >= 1"),
        ("master_seed", -1, "master_seed must be >= 0"),
        ("comm_range", 1.0, "comm_range must be an integer"),
        ("comm_range", -1, "comm_range must be >= 0"),
    ])
    def test_bad_numeric_field_rejected(self, key, value, message):
        with pytest.raises(ConfigError, match=message):
            ScenarioConfig.from_dict({"scenario": "fig1", key: value})

    def test_numeric_fields_accepted(self):
        # time_varying: a centralized fig1 run rejects any comm_range
        cfg = ScenarioConfig.from_dict({"scenario": "time_varying",
                                        "radius": float("inf"),
                                        "gamma": 0, "eta": 1, "comm_range": 0})
        assert cfg.radius == float("inf") and cfg.gamma == 0
        # alpha is denoise's alone
        cfg = ScenarioConfig.from_dict({"scenario": "denoise", "points_csv": "p.csv",
                                        "alpha": 0.0})
        assert cfg.alpha == 0.0


class TestRunFig1Small:
    CFG = dict(scenario="fig1", n=64, trials=2, iterations=40, master_seed=2024)

    def test_curve_shapes_and_contents(self):
        agg = run_fig1(ScenarioConfig(**self.CFG))
        for m in agg.methods:
            assert len(agg.curves[m]) == 41
            assert agg.curves[m][0] == pytest.approx(1.0)
        assert len(agg.condition_numbers) == 2
        assert agg.graph["n"] == 64

    def test_noiseless_curves_decrease(self):
        cfg = ScenarioConfig(scenario="fig1", n=64, trials=1, iterations=30,
                             gamma=0.0, eta=0.0, master_seed=7)
        agg = run_fig1(cfg)
        for m in agg.methods:
            c = agg.curves[m]
            assert all(c[i + 1] <= c[i] + 1e-12 for i in range(len(c) - 1))

    def test_spectral_unconverged_block(self, tmp_path):
        agg = run_fig1(ScenarioConfig(**self.CFG))
        assert agg.spectral_unconverged == {
            "radius": {"pgda": 0, "spgda": 0, "opgd": 0, "imia": 0},
            "singular_values": 0,
        }
        emit_outputs(agg, str(tmp_path))
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["spectral_unconverged"] == agg.spectral_unconverged
        assert agg.spectral_fallbacks == {"pgda": 0, "spgda": 0, "opgd": 0, "imia": 0}
        assert summary["spectral_fallbacks"] == agg.spectral_fallbacks

    def test_spectral_unconverged_counts_misses(self, monkeypatch):
        # the radii are taken in solvers.spectral_radius, through the
        # estimator solvers imports: pgda's through the LU factor, spgda's
        # by Lanczos on the iteration matrix
        import sdnfilt.scenarios as scenarios
        import sdnfilt.solvers as solvers

        def missed(estimator):
            return lambda *a, **kw: dataclasses.replace(estimator(*a, **kw),
                                                        converged=False)

        def missed_pair(estimator):
            def pair(*a, **kw):
                sv = estimator(*a, **kw)
                return dataclasses.replace(sv, sigma_min=dataclasses.replace(
                    sv.sigma_min, converged=False))
            return pair

        monkeypatch.setattr(solvers, "power_spectral_radius",
                            missed(solvers.power_spectral_radius))
        monkeypatch.setattr(scenarios, "extreme_singular_values",
                            missed_pair(scenarios.extreme_singular_values))
        cfg = ScenarioConfig(**{**self.CFG, "methods": ("pgda", "spgda")})
        agg = run_fig1(cfg)
        assert agg.spectral_unconverged == {"radius": {"pgda": 2, "spgda": 2},
                                            "singular_values": 2}

    @pytest.mark.parametrize("methods", [("pgda", "opgd"), ("pgda", "spgda")])
    def test_singular_values_once_per_trial(self, monkeypatch, methods):
        # kappa reuses opgd's singular values when opgd runs
        import sdnfilt.scenarios as scenarios
        import sdnfilt.solvers as solvers

        calls = []
        real = scenarios.extreme_singular_values

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(scenarios, "extreme_singular_values", counting)
        monkeypatch.setattr(solvers, "extreme_singular_values", counting)
        agg = run_fig1(ScenarioConfig(**{**self.CFG, "iterations": 5,
                                         "methods": methods}))
        assert len(calls) == agg.trials == len(agg.condition_numbers) == 2

    def test_deterministic_aggregate(self):
        a = run_fig1(ScenarioConfig(**self.CFG))
        b = run_fig1(ScenarioConfig(**self.CFG))
        assert a.curves == b.curves
        assert a.mean_spectral_radius == b.mean_spectral_radius
        assert a.condition_numbers == b.condition_numbers

    def test_envelope_bounds_mean_curves(self):
        # weighted-norm contraction translated to the plain relative error
        # through the diagonal's extreme entries
        cfg = ScenarioConfig(scenario="fig1", n=48, trials=3, iterations=30,
                             methods=("pgda", "spgda"), master_seed=99)
        from sdnfilt.scenarios import generate_run_graph
        from sdnfilt.filters import build_fig1_filter
        from sdnfilt.scenarios import _stream_seed, _STREAM_FILTER, _STREAM_SIGNAL

        agg = run_fig1(cfg)
        graph = generate_run_graph(48, cfg.resolved_radius(), cfg.master_seed)
        envelopes = {m: [] for m in cfg.methods}
        for trial in range(cfg.trials):
            h = build_fig1_filter(
                graph, cfg.gamma, _stream_seed(cfg.master_seed, trial, _STREAM_FILTER)
            )
            dense = dense_of(h)
            p = build_pgda_preconditioner(h)
            r_p = np.abs(np.linalg.eigvalsh(
                np.eye(48) - (dense.T @ dense) / p[:, None] / p[None, :]
            )).max()
            ps = build_spgda_preconditioner(h)
            r_s = np.abs(np.linalg.eigvalsh(
                np.eye(48) - dense / np.sqrt(np.outer(ps, ps))
            )).max()
            envelopes["pgda"].append((r_p, p.max() / p.min()))
            envelopes["spgda"].append((r_s, np.sqrt(ps.max() / ps.min())))
        for m in cfg.methods:
            curve = np.array(agg.curves[m])
            env = np.zeros_like(curve)
            for r, cond in envelopes[m]:
                env += cond * np.power(r, np.arange(len(curve)))
            env /= len(envelopes[m])
            assert np.all(curve <= env * (1 + 1e-8) + 1e-12)


class TestRunDenoise:
    def make_points(self, tmp_path, n=60, seed=3):
        coords, values = synthetic_points(n, rng_seed=seed)
        path = str(tmp_path / "points.csv")
        write_points_csv(path, coords, values)
        return path, coords, values

    def test_block_matches_per_trial_reference(self, tmp_path):
        path, _, _ = self.make_points(tmp_path, n=120)
        cfg = ScenarioConfig(scenario="denoise", points_csv=path, eta=35.0,
                             trials=12, iterations=40, master_seed=9)
        agg = run_denoise(cfg)
        curves, limit_snr = denoise_reference(cfg)
        assert agg.trials == 12 and agg.diverged == dict.fromkeys(cfg.methods, 0)
        for m in cfg.methods:
            assert np.array(agg.curves[m]).tobytes() == np.array(curves[m]).tobytes()
        assert agg.limit_snr == limit_snr

    def test_distributed_matches_centralized(self, tmp_path):
        path, _, _ = self.make_points(tmp_path, n=50)
        base = dict(scenario="denoise", points_csv=path, eta=35.0,
                    iterations=20, master_seed=9, methods=("pgda", "spgda"))
        central = run_denoise(ScenarioConfig(**base, trials=3))
        routed = run_denoise(ScenarioConfig(**base, trials=3, distributed=True))
        assert routed.curves == central.curves
        assert routed.limit_snr == central.limit_snr
        # each trial is its own simulator run with the same message pattern
        one = run_denoise(ScenarioConfig(**base, trials=1, distributed=True))
        assert routed.message_totals == {m: 3 * v for m, v in one.message_totals.items()}
        assert one.message_totals["pgda"] > 0

    def test_plateau_ordering_at_paper_params(self, tmp_path):
        path, _, _ = self.make_points(tmp_path, n=120)
        cfg = ScenarioConfig(scenario="denoise", points_csv=path, eta=35.0,
                             trials=3, iterations=60, master_seed=5)
        agg = run_denoise(cfg)
        hits = agg.iterations_to_plateau
        assert hits["spgda"] is not None and hits["opgd"] is not None
        assert hits["spgda"] <= hits["opgd"] <= hits["pgda"]

    def test_noiseless_trace_caps_at_300db(self, tmp_path):
        # with eta = 0 the iterates converge to the oracle solution itself,
        # so the solver-trace snr climbs monotonically into the cap
        path, coords, values = self.make_points(tmp_path, n=40)
        g = knn_graph(coords, 5)
        h = build_denoise_filter(g, 0.9075)
        b = Signal(g, values)
        ref = direct_solve_oracle(h, b)
        _, trace = solve(h, b, SolverConfig(method="spgda", max_iter=400),
                         reference=ref)
        diffs = np.diff(trace.snrs)
        assert np.all(diffs >= -1e-9)
        assert trace.snrs[-1] == 300.0

    def test_alpha_zero_oracle_equals_observation(self, tmp_path):
        path, coords, values = self.make_points(tmp_path, n=30)
        g = knn_graph(coords, 5)
        h = build_denoise_filter(g, 0.0)
        b = Signal(g, values + 1.25)
        ref = direct_solve_oracle(h, b)
        assert np.allclose(ref.values, b.values, atol=1e-12)
        for method in ("spgda", "imia"):
            _, trace = solve(h, b, SolverConfig(method=method, max_iter=1),
                             reference=ref)
            assert trace.relative_errors[-1] <= 1e-15

    def test_missing_value_column(self, tmp_path):
        coords, _ = synthetic_points(30, rng_seed=1)
        path = str(tmp_path / "points.csv")
        write_points_csv(path, coords)
        cfg = ScenarioConfig(scenario="denoise", points_csv=path, trials=1,
                             iterations=5)
        from sdnfilt.io import IngestError

        with pytest.raises(IngestError, match="value"):
            run_denoise(cfg)


class TestRunTimeVarying:
    CFG = dict(scenario="time_varying", n=48, epochs=2, iterations=40,
               master_seed=31)

    def test_epoch_outputs_match_centralized(self):
        cfg = ScenarioConfig(**self.CFG)
        agg = run_time_varying(cfg)
        assert len(agg.epoch_rows) == 2
        # re-derive the epoch pipeline pieces and compare against the
        # centralized solver
        from sdnfilt.scenarios import (
            _STREAM_EPOCH,
            _STREAM_SIGNAL,
            _stream_seed,
            generate_run_graph,
        )
        from sdnfilt.filters import build_fig1_filter

        graph = generate_run_graph(cfg.n, cfg.resolved_radius(), cfg.master_seed)
        base = blockwise_polynomial(graph)
        x = add_uniform_noise(base, cfg.eta,
                              _stream_seed(cfg.master_seed, 0, _STREAM_SIGNAL))
        for t, row in enumerate(agg.epoch_rows):
            h = build_fig1_filter(graph, cfg.gamma,
                                  _stream_seed(cfg.master_seed, t, _STREAM_EPOCH))
            y = apply(h, x)
            central, _ = solve(h, y, SolverConfig(method="pgda",
                                                  max_iter=cfg.iterations))
            oracle = direct_solve_oracle(h, y)
            rel = np.linalg.norm(central.values - oracle.values) / np.linalg.norm(
                oracle.values)
            assert row["rel_error"] == rel

    def test_epoch_keeps_its_row_and_no_curve(self):
        from sdnfilt.filters import build_fig1_filter
        from sdnfilt.scenarios import _MethodRuns, generate_run_graph

        cfg = ScenarioConfig(**self.CFG)
        graph = generate_run_graph(cfg.n, cfg.resolved_radius(), cfg.master_seed)
        h = build_fig1_filter(graph, cfg.gamma, 1)
        y = apply(h, blockwise_polynomial(graph))
        runs = _MethodRuns(dataclasses.replace(cfg, methods=("pgda",), distributed=True),
                           "rel_error")
        runs.run(graph, h, y.values[:, None], None, direct_solve_oracle(h, y).values,
                 epoch=0)
        assert [row["epoch"] for row in runs.epoch_rows] == [0]
        assert runs.curves == {"pgda": []}
        assert runs.diverged == {"pgda": 0}

    def test_message_counts_constant_across_epochs(self):
        agg = run_time_varying(ScenarioConfig(**self.CFG))
        counts = [r["messages"] for r in agg.epoch_rows]
        assert len(set(counts)) == 1

    def test_constant_sequence_identical_epochs(self):
        # gamma = 0: every epoch gets the same filter, so the same solve
        cfg = ScenarioConfig(**{**self.CFG, "epochs": 3, "iterations": 20,
                                "gamma": 0, "roundlog": True})
        agg = run_time_varying(cfg)
        rows = [{k: v for k, v in r.items() if k != "epoch"}
                for r in agg.epoch_rows]
        assert rows[0] == rows[1] == rows[2]
        assert [log.epoch for log in agg.message_logs] == [0, 1, 2]
        sent = [[s.tolist() for s in log.sent] for log in agg.message_logs]
        assert sent[0] == sent[1] == sent[2]

    def test_roundlog_order(self):
        cfg = ScenarioConfig(**{**self.CFG, "iterations": 3, "roundlog": True})
        agg = run_time_varying(cfg)
        # per epoch: the preconditioner exchange, then v and x per iteration
        expected = [(t, i, kind) for t in range(2)
                    for i, kind in enumerate(["d"] + ["v", "x"] * 3)]
        assert [(log.epoch, i, kind) for log in agg.message_logs
                for i, kind in enumerate(log.kinds)] == expected

    def test_diverged_epoch_is_kept_and_counted(self, monkeypatch, tmp_path):
        # a residual that must shrink a thousandfold at once: every solve
        # stops "diverged" at m = 1. An epoch keeps its row and its final
        # error and counts as diverged; a fig1 trial only counts
        import sdnfilt.solvers as solvers

        monkeypatch.setattr(solvers, "DIVERGENCE_FACTOR", 1e-3)
        agg = run_time_varying(ScenarioConfig(**self.CFG))
        emit_outputs(agg, str(tmp_path))
        rows = open(tmp_path / "epochs.csv").read().splitlines()
        assert [row.split(",")[0] for row in rows] == ["epoch", "0", "1"]
        assert agg.curves["pgda"] == [r["rel_error"] for r in agg.epoch_rows]
        assert [float(row.split(",")[1]) for row in rows[1:]] == agg.curves["pgda"]
        assert all(r["rounds"] == 1 + 2 * 1 for r in agg.epoch_rows)
        assert agg.diverged == {"pgda": 2}
        fig1 = run_fig1(ScenarioConfig(scenario="fig1", n=48, trials=2, iterations=40,
                                       master_seed=31, distributed=True,
                                       methods=("pgda",)))
        assert fig1.curves == {"pgda": []}
        assert fig1.diverged == {"pgda": 2}


class TestRunCustom:
    def test_round_trip_through_files(self, tmp_path, rng):
        from sdnfilt.io import write_edges_csv
        from filter_reference import write_filter_csv, write_signal_csv
        from conftest import make_well_conditioned_spd, random_connected_graph

        g = random_connected_graph(rng, 12)
        h = make_well_conditioned_spd(rng, g, 1)
        y = Signal(g, rng.standard_normal(12))
        e, f, s = (str(tmp_path / name) for name in
                   ("edges.csv", "filter.csv", "signal.csv"))
        write_edges_csv(e, g)
        write_filter_csv(f, h)
        write_signal_csv(s, y)
        cfg = ScenarioConfig(scenario="custom", edges_csv=e, filter_csv=f,
                             signal_csv=s, iterations=200, trials=1)
        agg = run_custom(cfg)
        for m in agg.methods:
            assert agg.curves[m][-1] <= 1e-6


class TestEmitOutputs:
    def test_files_and_determinism(self, tmp_path):
        cfg = ScenarioConfig(scenario="fig1", n=64, trials=2, iterations=20,
                             master_seed=44)
        agg = run_fig1(cfg)
        out1 = str(tmp_path / "a")
        out2 = str(tmp_path / "b")
        emit_outputs(agg, out1)
        emit_outputs(run_fig1(cfg), out2)
        for name in ("curves.csv", "summary.json"):
            b1 = open(os.path.join(out1, name), "rb").read()
            b2 = open(os.path.join(out2, name), "rb").read()
            assert b1 == b2

    def test_curves_row_count(self, tmp_path):
        cfg = ScenarioConfig(scenario="fig1", n=64, trials=1, iterations=15,
                             master_seed=44)
        agg = run_fig1(cfg)
        out = str(tmp_path / "o")
        emit_outputs(agg, out)
        lines = open(os.path.join(out, "curves.csv")).read().splitlines()
        assert len(lines) == 1 + len(agg.methods) * (cfg.iterations + 1)

    def test_roundlog_written_when_distributed(self, tmp_path):
        cfg = ScenarioConfig(scenario="time_varying", n=48, epochs=1,
                             iterations=3, master_seed=31, roundlog=True)
        agg = run_time_varying(cfg)
        out = str(tmp_path / "tv")
        paths = emit_outputs(agg, out)
        assert any(p.endswith("roundlog.csv") for p in paths)
        assert any(p.endswith("epochs.csv") for p in paths)

    SUMMARY_KEYS = {
        "scenario", "methods", "metric", "trials", "master_seed", "graph", "config",
        "mean_spectral_radius", "iterations_to_5pct", "iterations_to_plateau",
        "limit_snr", "diverged", "condition_numbers", "spectral_unconverged",
        "spectral_fallbacks", "message_totals",
    }

    def test_summary_key_set(self, tmp_path):
        # a new summary key is a deliberate edit of this set; the curves,
        # epoch rows and message log go to their own files only
        points = str(tmp_path / "points.csv")
        write_points_csv(points, *synthetic_points(40, rng_seed=3))
        runs = {
            "fig1": run_fig1(ScenarioConfig(scenario="fig1", n=48, trials=1,
                                            iterations=5, master_seed=3)),
            "denoise": run_denoise(ScenarioConfig(scenario="denoise", points_csv=points,
                                                  eta=10.0, trials=2, iterations=5)),
            "time_varying": run_time_varying(ScenarioConfig(
                scenario="time_varying", n=48, epochs=1, iterations=3, master_seed=31,
                roundlog=True)),
            "custom": run_custom(ScenarioConfig(**write_two_vertex_custom(tmp_path),
                                                iterations=5)),
        }
        for name, agg in runs.items():
            emit_outputs(agg, str(tmp_path / name))
            summary = json.loads((tmp_path / name / "summary.json").read_text())
            assert set(summary) == self.SUMMARY_KEYS, name


class TestHelpers:
    def test_iterations_to_threshold(self):
        assert iterations_to_threshold([1.0, 0.2, 0.04], 0.05) == 2
        assert iterations_to_threshold([1.0, 0.9], 0.05) is None


class TestDistributedScenarioRouting:
    def test_denoise_distributed_matches_centralized(self, tmp_path):
        coords, values = synthetic_points(40, rng_seed=6)
        path = str(tmp_path / "points.csv")
        write_points_csv(path, coords, values)
        base = dict(scenario="denoise", points_csv=path, eta=10.0, trials=2,
                    iterations=12, master_seed=77, methods=("spgda",))
        central = run_denoise(ScenarioConfig(**base))
        routed = run_denoise(ScenarioConfig(**base, distributed=True))
        assert routed.curves["spgda"] == central.curves["spgda"]
        assert routed.message_totals["spgda"] > 0

    def test_custom_distributed_matches_centralized(self, tmp_path, rng):
        from sdnfilt.io import write_edges_csv
        from filter_reference import write_filter_csv, write_signal_csv
        from conftest import make_well_conditioned_spd, random_connected_graph

        g = random_connected_graph(rng, 10)
        h = make_well_conditioned_spd(rng, g, 1)
        y = Signal(g, rng.standard_normal(10))
        e, f, s = (str(tmp_path / n) for n in ("e.csv", "f.csv", "s.csv"))
        write_edges_csv(e, g)
        write_filter_csv(f, h)
        write_signal_csv(s, y)
        base = dict(scenario="custom", edges_csv=e, filter_csv=f, signal_csv=s,
                    iterations=15, trials=1, methods=("pgda", "spgda"))
        central = run_custom(ScenarioConfig(**base))
        routed = run_custom(ScenarioConfig(**base, distributed=True))
        for m in ("pgda", "spgda"):
            assert routed.curves[m] == central.curves[m]

    def test_fig1_distributed_matches_centralized(self):
        base = dict(scenario="fig1", n=64, trials=2, iterations=30,
                    master_seed=2024, methods=("pgda", "spgda"))
        central = run_fig1(ScenarioConfig(**base))
        routed = run_fig1(ScenarioConfig(**base, distributed=True))
        for m in ("pgda", "spgda"):
            assert routed.curves[m] == central.curves[m]
            assert routed.message_totals[m] > 0
        assert routed.iterations_to_5pct == central.iterations_to_5pct


    def test_routed_pgda_trace_and_products(self, rng, monkeypatch):
        # a routed pgda round hands back its agents' H x: the trace equals
        # the centralized one entry for entry, residuals included, and the
        # loop's own product is taken for the initial residual only
        import sdnfilt.solvers as solvers
        from conftest import make_invertible, random_connected_graph
        from sdnfilt.scenarios import _MethodRuns

        g = random_connected_graph(rng, 25)
        h = make_invertible(rng, g, 2)
        y = rng.standard_normal(25)
        ref = direct_solve_oracle(h, Signal(g, y)).values
        runs = _MethodRuns(ScenarioConfig(scenario="fig1", iterations=20, distributed=True,
                                          roundlog=True, methods=("pgda",)), "rel_error")
        _, central = solve(h, Signal(g, y), SolverConfig("pgda", max_iter=20),
                           Signal(g, ref))
        # every product the loop takes comes from solvers.csr_product
        products, real = [], solvers.csr_product

        def counted(m):
            product = real(m)
            return lambda v: products.append(1) or product(v)

        recorded, record = [], runs._record
        monkeypatch.setattr(runs, "_record", lambda solved, field, keep:
                            recorded.extend(solved) or record(solved, field, keep))
        monkeypatch.setattr(solvers, "csr_product", counted)
        runs.run(g, h, y[:, None], None, ref)
        [(_, [routed])] = recorded
        assert len(products) == 1
        assert routed.residuals == central.residuals
        assert routed.relative_errors == central.relative_errors
        assert routed.status == central.status
        [log] = runs.message_logs
        assert len(log.kinds) == len(log.sent) == 1 + 2 * 20


class TestMethodStacks:
    """A centralized block of one observation is one stack of every method;
    a block of several (denoise) and a distributed run solve one method at
    a time."""

    def count(self, monkeypatch):
        import sdnfilt.scenarios as scenarios

        calls, stack = [], scenarios.solve_stack

        def counted_stack(h, ys, methods, *rest):
            calls.append((tuple(methods), ys.shape[1]))
            return stack(h, ys, methods, *rest)

        monkeypatch.setattr(scenarios, "solve_stack", counted_stack)
        return calls

    def test_fig1_and_custom_stack_every_method(self, monkeypatch, tmp_path):
        calls = self.count(monkeypatch)
        run_fig1(ScenarioConfig(scenario="fig1", n=64, trials=2, iterations=10,
                                master_seed=2024))
        assert calls == [(METHODS, 1)] * 2
        calls.clear()
        base = write_two_vertex_custom(tmp_path)
        run_custom(ScenarioConfig(**{**base, "methods": ("imia", "pgda")}, iterations=10))
        assert calls == [(("imia", "pgda"), 1)]

    def test_factor_released_before_the_solves(self, monkeypatch):
        import sdnfilt.scenarios as scenarios

        factors, stack = [], scenarios.solve_stack
        monkeypatch.setattr(scenarios, "solve_stack",
                            lambda h, *rest: factors.append(h._lu) or stack(h, *rest))
        run_fig1(ScenarioConfig(scenario="fig1", n=64, trials=2, iterations=10,
                                master_seed=2024))
        assert factors == [None, None]

    def run_denoise_on(self, workers, monkeypatch, tmp_path):
        import sdnfilt.scenarios as scenarios

        coords, values = synthetic_points(40, rng_seed=3)
        path = str(tmp_path / "points.csv")
        write_points_csv(path, coords, values)
        monkeypatch.setattr(scenarios, "_cpus", lambda: workers)
        calls = self.count(monkeypatch)
        run_denoise(ScenarioConfig(scenario="denoise", points_csv=path, eta=35.0,
                                   trials=5, iterations=10, master_seed=9))
        return calls

    def test_denoise_solves_one_method_at_a_time(self, monkeypatch, tmp_path):
        # on one worker, in method order
        calls = self.run_denoise_on(1, monkeypatch, tmp_path)
        assert calls == [((m,), 5) for m in METHODS]

    def test_denoise_stacks_on_two_workers(self, monkeypatch, tmp_path):
        # the same stacks, in an order the threads decide
        calls = self.run_denoise_on(2, monkeypatch, tmp_path)
        assert sorted(calls) == sorted(((m,), 5) for m in METHODS)

    def test_distributed_solves_one_method_at_a_time(self, monkeypatch):
        calls = self.count(monkeypatch)
        run_fig1(ScenarioConfig(scenario="fig1", n=64, trials=2, iterations=10,
                                master_seed=2024, distributed=True,
                                methods=("pgda", "spgda")))
        assert calls == [(("pgda",), 1), (("spgda",), 1)] * 2


class TestConcurrentStacks:
    """A denoise block's per-method stacks run on up to `_cpus()` threads;
    what a run writes or raises does not depend on how many."""

    def test_outputs_identical_on_one_and_two_workers(self, monkeypatch, tmp_path):
        import sdnfilt.scenarios as scenarios

        coords, values = synthetic_points(80, rng_seed=4)
        path = str(tmp_path / "points.csv")
        write_points_csv(path, coords, values)
        cfg = ScenarioConfig(scenario="denoise", points_csv=path, eta=35.0,
                             trials=6, iterations=30, master_seed=12)
        written = []
        for workers in (1, 2):
            monkeypatch.setattr(scenarios, "_cpus", lambda w=workers: w)
            out = tmp_path / f"out{workers}"
            emit_outputs(run_denoise(cfg), str(out))
            written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert written[0] == written[1]
        assert {"curves.csv", "summary.json"} <= set(written[0])

    def test_every_item_once_in_order_under_contention(self, monkeypatch):
        # more threads than cores, switching every microsecond: each item
        # is taken by one thread only, and its result lands in its place
        import sys
        import threading
        import time

        import sdnfilt.scenarios as scenarios

        monkeypatch.setattr(scenarios, "_cpus", lambda: 8)
        calls, names = [0] * 300, set()

        def fn(i):
            calls[i] += 1
            names.add(threading.current_thread().name)
            time.sleep(1e-4)            # lets the other threads take items
            return i * i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = scenarios._concurrent_map(fn, list(range(300)))
        finally:
            sys.setswitchinterval(interval)
        assert results == [i * i for i in range(300)]
        assert calls == [1] * 300
        assert len(names) > 1
        assert threading.active_count() == 1

    def test_one_item_runs_on_the_calling_thread(self, monkeypatch):
        # a fig1 or custom trial is one stack: it starts no thread, whose
        # stack and arena would add to the run's peak memory
        import threading

        import sdnfilt.scenarios as scenarios

        monkeypatch.setattr(scenarios, "_cpus", lambda: 4)
        started, real = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self: started.append(self) or real(self))
        me = threading.get_ident()
        assert scenarios._concurrent_map(lambda i: (i, threading.get_ident()), [7]) == [(7, me)]
        assert started == []

    def test_failure_starts_no_further_item(self, monkeypatch):
        # item 0 fails while item 1 holds the other thread; its own thread
        # may take item 2 before the failure is raised, and every later
        # item is cancelled before either thread is free again
        import threading

        import sdnfilt.scenarios as scenarios

        monkeypatch.setattr(scenarios, "_cpus", lambda: 2)
        started, hold = set(), threading.Event()

        def fn(i):
            started.add(i)
            if i == 0:
                raise ValueError("item 0")
            hold.wait(timeout=0.5)
            return i

        with pytest.raises(ValueError, match="item 0"):
            scenarios._concurrent_map(fn, list(range(50)))
        assert started <= {0, 1, 2}
        assert threading.active_count() == 1

    def solve_failing(self, workers, fails, monkeypatch, tmp_path, gate=None):
        """Run a denoise block through `_MethodRuns.run` on `workers`
        threads, each method a step that keeps x, except that method m
        steps to NaN at iteration fails[m]; return the NumericError. With
        a gate, the first failing method waits for the second's NaN step
        before its own."""
        import itertools
        import threading

        import sdnfilt.scenarios as scenarios
        from sdnfilt.scenarios import _MethodRuns
        from sdnfilt.solvers import Method, NumericError

        monkeypatch.setattr(scenarios, "_cpus", lambda: workers)
        coords, values = synthetic_points(30, rng_seed=2)
        g = knn_graph(coords, 5)
        h = build_denoise_filter(g, 0.9075)
        ys = values[:, None] + np.random.default_rng(1).uniform(-35.0, 35.0, (30, 4))
        first, *later = sorted(fails, key=METHODS.index)
        nan_stepped = threading.Event()

        def method(name):
            count = itertools.count(1)

            def step(x, e):
                if next(count) != fails.get(name):
                    return x, h.matvec(x)
                if gate and name == first:
                    assert nan_stepped.wait(timeout=30)
                nan_stepped.set()
                nan = np.full_like(x, np.nan)
                return nan, h.matvec(nan)
            return Method(g=None, error=None, step=step)

        runs = _MethodRuns(ScenarioConfig(scenario="denoise", points_csv="points.csv",
                                          iterations=50), "snr")
        with pytest.raises(NumericError) as exc:
            runs.run(g, h, ys, {m: method(m) for m in METHODS}, values)
        return exc.value

    def test_numeric_error_in_a_threaded_stack(self, monkeypatch, tmp_path):
        errors = [self.solve_failing(workers, {"spgda": 7}, monkeypatch, tmp_path)
                  for workers in (1, 2)]
        assert [(str(e), e.iteration) for e in errors] == \
            [("spgda: nonfinite values at iteration 7", 7)] * 2

    def test_first_failure_in_method_order_wins(self, monkeypatch, tmp_path):
        # on two workers imia fails first in time, while spgda waits for it
        fails = {"spgda": 20, "imia": 1}
        sequential = self.solve_failing(1, fails, monkeypatch, tmp_path)
        threaded = self.solve_failing(2, fails, monkeypatch, tmp_path, gate=True)
        for err in (sequential, threaded):
            assert (str(err), err.iteration) == \
                ("spgda: nonfinite values at iteration 20", 20)


class TestSimulatorDivergence:
    def test_routed_divergence_counted_like_centralized(self, tmp_path):
        base = write_two_vertex_custom(tmp_path)
        central = run_custom(ScenarioConfig(**base, iterations=100))
        routed = run_custom(ScenarioConfig(**base, iterations=100,
                                           distributed=True))
        assert central.diverged == {"spgda": 1}
        assert routed.diverged == central.diverged
        assert routed.curves == central.curves

    def test_routed_nan_raises_at_solve_iteration(self, tmp_path, monkeypatch):
        # with no divergence bound the iterates overflow, and the first NaN
        # residual stops both executors at the same iteration
        from sdnfilt.io import read_edges_csv, read_filter_csv, read_signal_csv
        from sdnfilt.scenarios import _routed
        from sdnfilt.sdn import SdnNetwork
        import sdnfilt.solvers as solvers
        from sdnfilt.solvers import NumericError

        base = write_two_vertex_custom(tmp_path)
        n, edges = read_edges_csv(base["edges_csv"])
        g = Graph.from_edges(n, edges)
        h = read_filter_csv(base["filter_csv"], g)
        y = read_signal_csv(base["signal_csv"], g)
        monkeypatch.setattr(solvers, "DIVERGENCE_FACTOR", float("inf"))
        solver_cfg = SolverConfig(method="spgda", max_iter=4000)
        with pytest.raises(NumericError) as central:
            solve(h, y, solver_cfg)
        routed_params = {"spgda": _routed(SdnNetwork(g, h, y), "spgda")}
        with pytest.raises(NumericError) as routed:
            solve(h, y, solver_cfg, params=routed_params)
        assert routed.value.iteration == central.value.iteration
