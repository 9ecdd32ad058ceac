import json
import os

import pytest

from sdnfilt.cli import main
from sdnfilt.io import write_points_csv
from sdnfilt.scenarios import synthetic_points

from conftest import write_two_vertex_custom


def write_config(tmp_path, name="config.json", **kv):
    path = tmp_path / name
    path.write_text(json.dumps(kv))
    return str(path)


class TestGenGraph:
    def test_rgg_outputs(self, tmp_path, capsys):
        out = str(tmp_path / "g")
        rc = main(["gen-graph", "--kind", "rgg", "--n", "40", "--radius", "0.35",
                   "--seed", "3", "--out", out])
        assert rc == 0
        edges = open(os.path.join(out, "edges.csv")).read().splitlines()
        assert edges[0] == "i,j"
        assert all(int(a) < int(b) for a, b in
                   (line.split(",") for line in edges[1:]))
        assert os.path.exists(os.path.join(out, "points.csv"))

    def test_nan_radius_exit_2(self, tmp_path, capsys):
        out = str(tmp_path / "g")
        rc = main(["gen-graph", "--kind", "rgg", "--n", "512", "--radius", "nan",
                   "--out", out])
        assert rc == 2
        assert "radius must be > 0, got nan" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_infinite_radius_complete_graph(self, tmp_path):
        out = str(tmp_path / "g")
        rc = main(["gen-graph", "--kind", "rgg", "--n", "6", "--radius", "inf",
                   "--out", out])
        assert rc == 0
        assert len(open(os.path.join(out, "edges.csv")).read().splitlines()) == 16

    def test_knn_from_points(self, tmp_path):
        coords, values = synthetic_points(25, rng_seed=8)
        pts = str(tmp_path / "pts.csv")
        write_points_csv(pts, coords, values)
        out = str(tmp_path / "g")
        rc = main(["gen-graph", "--kind", "knn", "--points", pts, "--k", "4",
                   "--out", out])
        assert rc == 0
        assert os.path.exists(os.path.join(out, "edges.csv"))

    @pytest.mark.parametrize("with_values", [True, False])
    def test_knn_points_keep_their_columns(self, tmp_path, with_values):
        # id,x,y,value in gives the same values out; id,x,y in, id,x,y out
        coords, values = synthetic_points(30, rng_seed=4)
        pts = str(tmp_path / "pts.csv")
        write_points_csv(pts, coords, values if with_values else None)
        out = str(tmp_path / "g")
        assert main(["gen-graph", "--kind", "knn", "--points", pts, "--out", out]) == 0
        assert open(os.path.join(out, "points.csv")).read() == open(pts).read()

    def test_knn_without_points_starts_a_denoise_run(self, tmp_path):
        # the synthetic points come with their values, so the written
        # points file is a denoise run's input as it stands
        out = str(tmp_path / "g")
        rc = main(["gen-graph", "--kind", "knn", "--n", "30", "--seed", "8",
                   "--out", out])
        assert rc == 0
        expected = str(tmp_path / "expected.csv")
        write_points_csv(expected, *synthetic_points(30, rng_seed=8))
        points = os.path.join(out, "points.csv")
        assert open(points).read() == open(expected).read()
        cfg = write_config(tmp_path, scenario="denoise", points_csv=points, eta=10.0,
                           trials=2, iterations=5, master_seed=1)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "run")]) == 0


class TestIngest:
    def test_valid_points(self, tmp_path, capsys):
        coords, values = synthetic_points(30, rng_seed=2)
        pts = str(tmp_path / "pts.csv")
        write_points_csv(pts, coords, values)
        rc = main(["ingest", "--points", pts, "--k", "5",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "30 points" in capsys.readouterr().out

    def test_malformed_points_exit_4(self, tmp_path, capsys):
        pts = tmp_path / "bad.csv"
        pts.write_text("id,x,y\n0,0.1,0.2\n1,zzz,0.4\n")
        rc = main(["ingest", "--points", str(pts), "--out", str(tmp_path / "o")])
        assert rc == 4
        assert ":3" in capsys.readouterr().err

    def test_nonfinite_points_exit_4(self, tmp_path, capsys):
        pts = tmp_path / "nan.csv"
        pts.write_text("id,x,y,value\n0,0.1,0.2,1.0\n1,0.3,0.4,nan\n"
                       "2,0.5,0.6,2.0\n")
        rc = main(["ingest", "--points", str(pts), "--out", str(tmp_path / "o")])
        assert rc == 4
        assert f"{pts}:3" in capsys.readouterr().err

    def test_missing_file_exit_4(self, tmp_path):
        rc = main(["ingest", "--points", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "o")])
        assert rc == 4


class TestRun:
    def test_config_error_unknown_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scenario="fig1", bogus=1)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_config_error_empty_methods(self, tmp_path):
        cfg = write_config(tmp_path, scenario="fig1", methods=[])
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_methods_as_one_string_exit_2(self, tmp_path, capsys):
        # a string is not split into one-letter method names
        cfg = write_config(tmp_path, scenario="fig1", methods="pgda")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "'pgda'" in err and "'p'" not in err

    @pytest.mark.parametrize("value", [5, None, {"pgda": 1}])
    def test_methods_not_a_list_exit_2(self, tmp_path, capsys, value):
        # a number or null is not iterated, and an object's keys are not
        # taken for method names
        cfg = write_config(tmp_path, scenario="fig1", n=64, trials=1, iterations=5,
                           methods=value)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert (f"config error: methods must be a list of method names, got {value!r}"
                in capsys.readouterr().err)
        assert not os.path.exists(tmp_path / "o")

    def test_config_error_without_output_dir(self, tmp_path):
        cfg = write_config(tmp_path, scenario="fig1", n=64, trials=1,
                           iterations=5)
        assert main(["run", "--config", cfg]) == 2

    def test_nan_radius_in_config_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scenario="fig1", n=512, radius=float("nan"),
                           trials=1, iterations=5)
        assert "NaN" in open(cfg).read()
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "radius must be > 0, got nan" in capsys.readouterr().err

    def test_nan_gamma_in_config_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scenario="fig1", n=64, gamma=float("nan"),
                           trials=1, iterations=5)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "gamma must be finite and >= 0, got nan" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    def test_nan_alpha_in_denoise_config_exit_2(self, tmp_path, capsys):
        coords, values = synthetic_points(30, rng_seed=1)
        points = str(tmp_path / "p.csv")
        write_points_csv(points, coords, values)
        cfg = write_config(tmp_path, scenario="denoise", points_csv=points,
                           alpha=float("nan"), trials=1, iterations=5)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "alpha must be finite and >= 0, got nan" in capsys.readouterr().err

    def test_nan_eta_in_config_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scenario="fig1", n=64, eta=float("nan"),
                           trials=1, iterations=5)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "eta must be finite" in capsys.readouterr().err

    def test_string_radius_in_config_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scenario="fig1", n=64, radius="0.3",
                           trials=1, iterations=5)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "radius must be a number, got '0.3'" in capsys.readouterr().err

    def test_key_the_scenario_never_reads_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scenario="fig1", n=64, trials=1, iterations=5,
                           edges_csv="nope.csv", alpha=0.5)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert ("config error: the fig1 scenario never reads ['alpha', 'edges_csv']"
                in capsys.readouterr().err)
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("key, value", [
        ("distributed", "false"), ("roundlog", 1), ("output_dir", 5), ("points_csv", 7),
        ("edges_csv", ["e.csv"]), ("filter_csv", 3.0), ("signal_csv", True),
    ])
    def test_flag_or_path_of_wrong_type_exit_2(self, tmp_path, capsys, key, value):
        # a flag must be a JSON bool and a path a string or null; "false"
        # would run the simulator, 7 would open file descriptor 7
        cfg = write_config(tmp_path, scenario="fig1", n=64, trials=1, iterations=5,
                           **{key: value})
        out = [] if key == "output_dir" else ["--out", str(tmp_path / "o")]
        assert main(["run", "--config", cfg, *out]) == 2
        kind = "true or false" if key in ("distributed", "roundlog") else "a path string or null"
        assert f"config error: {key} must be {kind}, got {value!r}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    def test_invalid_json_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_small_fig1_run(self, tmp_path):
        cfg = write_config(tmp_path, scenario="fig1", n=64, trials=2,
                           iterations=20, master_seed=5)
        out = str(tmp_path / "out")
        rc = main(["run", "--config", cfg, "--out", out])
        assert rc == 0
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert summary["scenario"] == "fig1"
        assert summary["trials"] == 2
        assert summary["config"]["master_seed"] == 5

    def test_seed_and_trials_overrides(self, tmp_path):
        cfg = write_config(tmp_path, scenario="fig1", n=64, trials=9,
                           iterations=10, master_seed=5)
        out = str(tmp_path / "out")
        rc = main(["run", "--config", cfg, "--out", out, "--seed", "77",
                   "--trials", "1", "--methods", "imia,spgda"])
        assert rc == 0
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert summary["master_seed"] == 77
        assert summary["trials"] == 1
        assert summary["methods"] == ["imia", "spgda"]

    def test_divergence_single_trial_exit_3(self, tmp_path, rng):
        # symmetric indefinite filter: spgda diverges; one trial -> exit 3
        from conftest import random_connected_graph
        from sdnfilt.filters import Signal
        from sdnfilt.io import write_edges_csv
        from filter_reference import filter_of, write_filter_csv, write_signal_csv

        g = random_connected_graph(rng, 8)
        entries = {}
        for i in range(8):
            entries[(i, i)] = 1.0
            for j in g.adjacency[i]:
                entries[(i, j)] = 2.0
        h = filter_of(g, entries)
        e, f, s = (str(tmp_path / n) for n in ("e.csv", "f.csv", "s.csv"))
        write_edges_csv(e, g)
        write_filter_csv(f, h)
        write_signal_csv(s, Signal(g, rng.standard_normal(8)))
        cfg = write_config(tmp_path, scenario="custom", edges_csv=e,
                           filter_csv=f, signal_csv=s, trials=1,
                           iterations=2000, methods=["spgda"])
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_distributed_divergence_single_trial_exit_3(self, tmp_path, capsys):
        raw = write_two_vertex_custom(tmp_path)
        raw.update(methods=["spgda"], iterations=100)
        cfg = write_config(tmp_path, **raw)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                   "--distributed"])
        assert rc == 3
        assert "diverged" in capsys.readouterr().err

    def test_comm_range_below_width_distributed_fig1_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scenario="fig1", n=64, trials=1, iterations=5,
                           comm_range=1)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                   "--distributed", "--methods", "pgda"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "communication range 1 is below the filter width 2" in err
        assert "epoch" not in err   # a fig1 run has no epochs

    def test_comm_range_below_width_time_varying_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scenario="time_varying", n=64, epochs=1,
                           iterations=5, comm_range=1)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "communication range 1 is below the filter width 2" in \
            capsys.readouterr().err

    def test_time_varying_methods_without_pgda_exit_2(self, tmp_path, capsys):
        # time_varying runs pgda only; a list without it would be ignored
        cfg = write_config(tmp_path, scenario="time_varying", n=48, epochs=1,
                           iterations=5)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                   "--methods", "spgda"])
        assert rc == 2
        assert "time_varying runs pgda only" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    def test_roundlog_without_distributed_exit_2(self, tmp_path, capsys):
        # a centralized run sends no messages, so there is nothing to log
        cfg = write_config(tmp_path, scenario="fig1", n=64, trials=1, iterations=5)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                   "--roundlog"])
        assert rc == 2
        assert "roundlog needs --distributed" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    def test_comm_range_without_distributed_exit_2(self, tmp_path, capsys):
        coords, values = synthetic_points(30, rng_seed=1)
        points = str(tmp_path / "p.csv")
        write_points_csv(points, coords, values)
        cfg = write_config(tmp_path, scenario="denoise", points_csv=points,
                           trials=1, iterations=5, comm_range=3)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "comm_range needs --distributed" in capsys.readouterr().err
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                   "--distributed", "--methods", "pgda"])
        assert rc == 0

    def test_custom_divergence_with_default_trials_exit_3(self, tmp_path, capsys):
        # a custom run is always one trial, whatever the config's trials says
        raw = write_two_vertex_custom(tmp_path)
        del raw["trials"]
        cfg = write_config(tmp_path, **raw)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "diverged" in capsys.readouterr().err

    def test_imia_on_nonsymmetric_filter_exit_2(self, tmp_path, capsys):
        # imia's radius is taken on its symmetric similarity form, which a
        # nonsymmetric filter does not have
        raw = write_two_vertex_custom(tmp_path)
        (tmp_path / "f.csv").write_text(
            "# n=2 width=1\ni,j,value\n0,0,2.0\n0,1,1.0\n1,1,2.0\n")
        cfg = write_config(tmp_path, **{**raw, "methods": ["pgda", "imia"]})
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "not symmetric" in capsys.readouterr().err

    def test_out_of_range_filter_index_exit_4(self, tmp_path, capsys):
        raw = write_two_vertex_custom(tmp_path)
        (tmp_path / "f.csv").write_text(
            "# n=2 width=1\ni,j,value\n0,0,1.0\n0,2,2.0\n")
        cfg = write_config(tmp_path, **raw)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 4
        assert f"{raw['filter_csv']}:4" in capsys.readouterr().err

    def test_edges_without_rows_exit_4(self, tmp_path, capsys):
        raw = write_two_vertex_custom(tmp_path)
        (tmp_path / "e.csv").write_text("i,j\n")
        cfg = write_config(tmp_path, **raw)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 4
        assert f"{raw['edges_csv']}:2: no edges" in capsys.readouterr().err

    @pytest.mark.parametrize("points", [1, 3])
    def test_custom_points_count_mismatch_exit_4(self, tmp_path, capsys, points):
        # a custom run's points file holds one point per vertex of edges.csv
        raw = write_two_vertex_custom(tmp_path)
        path = tmp_path / "p.csv"
        path.write_text("id,x,y\n" + "".join(f"{i},0.{i},0.5\n" for i in range(points)))
        cfg = write_config(tmp_path, **raw, points_csv=str(path))
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 4
        assert (f"{path}: {points} points, but {raw['edges_csv']} has 2 vertices"
                in capsys.readouterr().err)

    def test_distributed_flag_with_unsupported_method(self, tmp_path):
        cfg = write_config(tmp_path, scenario="fig1", n=64, trials=1,
                           iterations=5, methods=["opgd"])
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                   "--distributed"])
        assert rc == 2

    def test_repeated_method_exit_2(self, tmp_path, capsys):
        # pgda twice would run it twice and double its message total
        cfg = write_config(tmp_path, scenario="fig1", n=64, trials=1, iterations=5)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                   "--distributed", "--methods", "pgda,spgda,pgda"])
        assert rc == 2
        assert "name a method twice" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    def test_distributed_fig1_small(self, tmp_path):
        cfg = write_config(tmp_path, scenario="fig1", n=64, trials=1,
                           iterations=5, methods=["pgda", "spgda"],
                           master_seed=5)
        out = str(tmp_path / "o")
        rc = main(["run", "--config", cfg, "--out", out, "--distributed",
                   "--roundlog"])
        assert rc == 0
        assert os.path.exists(os.path.join(out, "roundlog.csv"))
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert summary["message_totals"]["pgda"] > 0


class TestReport:
    def test_report_prints_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scenario="fig1", n=64, trials=1,
                           iterations=10, master_seed=5)
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        capsys.readouterr()
        rc = main(["report", "--out", out])
        assert rc == 0
        text = capsys.readouterr().out
        assert "pgda" in text and "spgda" in text
        assert "condition numbers" in text
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        missed = summary["spectral_unconverged"]
        assert (f"spectral estimates unconverged: radius {missed['radius']}, "
                f"singular values {missed['singular_values']}") in text
        assert ("spectral radii through the Lanczos fallback: "
                f"{summary['spectral_fallbacks']}") in text

    def test_report_missing_dir_exit_4(self, tmp_path):
        assert main(["report", "--out", str(tmp_path / "missing")]) == 4

    def test_report_time_varying_prints_table(self, tmp_path, capsys):
        # time_varying records no spectral radius; its column reads None
        cfg = write_config(tmp_path, scenario="time_varying", n=32, epochs=1,
                           iterations=5, master_seed=5)
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        capsys.readouterr()
        assert main(["report", "--out", out]) == 0
        row = capsys.readouterr().out.splitlines()[3].split()
        assert row[:2] == ["pgda", "None"]

    def test_report_summary_missing_key_exit_4(self, tmp_path, capsys):
        (tmp_path / "summary.json").write_text("{}\n")
        assert main(["report", "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert f"{tmp_path / 'summary.json'}: missing key 'scenario'" in err

    @pytest.mark.parametrize("key,value,message", [
        ("methods", 3, "key 'methods' must be a list"),
        ("methods", [1, 2], "key 'methods' must be a list"),
        ("mean_spectral_radius", [0.5], "key 'mean_spectral_radius' must be an object"),
        ("mean_spectral_radius", "0.5", "key 'mean_spectral_radius' must be an object"),
        ("diverged", 2, "key 'diverged' must be an object"),
        ("mean_spectral_radius", {"pgda": "x"},
         "key 'mean_spectral_radius' must map methods to numbers"),
        ("mean_spectral_radius", {"pgda": True},
         "key 'mean_spectral_radius' must map methods to numbers"),
        ("limit_snr", "x", "key 'limit_snr' must be a number"),
        ("condition_numbers", ["x"], "key 'condition_numbers' must be a list of numbers"),
        ("condition_numbers", 3.0, "key 'condition_numbers' must be a list of numbers"),
        ("spectral_unconverged", {"a": 1},
         "key 'spectral_unconverged' must hold 'radius' and 'singular_values'"),
    ])
    def test_report_summary_bad_type_exit_4(self, tmp_path, capsys, key, value, message):
        summary = {"scenario": "fig1", "trials": 1, "master_seed": 5,
                   "metric": "rel_error", "methods": ["pgda"], key: value}
        (tmp_path / "summary.json").write_text(json.dumps(summary))
        assert main(["report", "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert f"{tmp_path / 'summary.json'}: {message}" in err

    def test_report_truncated_summary_exit_4(self, tmp_path, capsys):
        (tmp_path / "summary.json").write_text('{\n  "scenario": ')
        assert main(["report", "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert f"{tmp_path / 'summary.json'}:2: Expecting value" in err
