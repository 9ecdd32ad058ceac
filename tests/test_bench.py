"""The verdicts of scripts/bench.py's `summarize` on synthetic pairs."""

import importlib.util
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "bench.py")


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pairs(name, base, change):
    return [{"base": {"metrics": {name: b}}, "change": {"metrics": {name: c}}}
            for b, c in zip(base, change)]


def verdict(bench, name, better, base, change, bound=0.25):
    return bench.summarize(pairs(name, base, change), {name: (better, bound)})[name]


@pytest.mark.parametrize("change, within", [(8.0, True), (7.0, False)])
def test_within_bound_higher_is_better(bench, change, within):
    # base median 10: the 25% bound allows a drop to 7.5
    s = verdict(bench, "trials_per_s", "higher", [10.0] * 10, [change] * 10)
    assert s["within_bound"] is within
    assert s["base_wins"] == 10 and s["change_wins"] == 0
    assert not s["claim_holds"]


@pytest.mark.parametrize("change, within", [(1.2, True), (1.3, False)])
def test_within_bound_lower_is_better(bench, change, within):
    # base median 1 s: the 25% bound allows a rise to 1.25 s
    s = verdict(bench, "run_s", "lower", [1.0] * 10, [change] * 10)
    assert s["within_bound"] is within
    assert s["base_wins"] == 10 and s["change_wins"] == 0
    assert not s["claim_holds"]


def test_claim_holds_at_nine_of_ten(bench):
    s = verdict(bench, "run_s", "lower", [10.0] * 10, [8.0] * 9 + [11.0])
    assert (s["change_wins"], s["base_wins"]) == (9, 1)
    assert s["within_bound"] and s["claim_holds"]


def test_claim_fails_at_eight_of_ten(bench):
    s = verdict(bench, "trials_per_s", "higher", [10.0] * 10, [12.0] * 8 + [9.0] * 2)
    assert (s["change_wins"], s["base_wins"]) == (8, 2)
    assert not s["claim_holds"]


def test_tie_counts_for_neither_side(bench):
    s = verdict(bench, "trials_per_s", "higher", [10.0] * 10, [12.0] * 9 + [10.0])
    assert (s["change_wins"], s["base_wins"]) == (9, 0)
    assert s["claim_holds"]
    s = verdict(bench, "trials_per_s", "higher", [10.0] * 10,
                [12.0] * 8 + [10.0, 9.0])
    assert (s["change_wins"], s["base_wins"]) == (8, 1)
    assert not s["claim_holds"]


def test_claim_needs_gain_above_base_spread(bench):
    # the change wins every pair, but by less than the base's q3 - q1
    base = [10.0, 14.0] * 5
    s = verdict(bench, "trials_per_s", "higher", base, [b + 0.5 for b in base])
    assert s["change_wins"] == 10
    assert s["base"]["q3"] - s["base"]["q1"] == pytest.approx(4.0)
    assert not s["claim_holds"]


def test_layers_summarized_without_verdicts(bench):
    layer_pairs = [{"base": {"layers": {"solvers.self_s": b}},
                    "change": {"layers": {"solvers.self_s": c}}}
                   for b, c in zip([12.0, 13.0, 12.5, 12.0], [9.0, 9.5, 13.0, 12.0])]
    s = bench.summarize_layers(layer_pairs, {"solvers.self_s": "lower"})["solvers.self_s"]
    assert s["base"]["median"] == 12.25 and s["change"]["median"] == 10.75
    assert (s["change_wins"], s["base_wins"]) == (2, 1)
    assert "within_bound" not in s and "claim_holds" not in s


@pytest.mark.parametrize("trace", [False, True])
def test_traced_runs_follow_each_untraced_one(bench, monkeypatch, trace):
    calls = []

    def run_side(tree, workload, seed, seconds, trace=0):
        calls.append((tree, seed, trace))
        value = {"base": 2.0, "change": 1.0}[tree]
        names = ["scenarios.trial_s", "solvers.self_s"] if trace else ["run_s"]
        return ({"correct": True, "attempted": 3, "failed": 0,
                 "metrics": {k: {"value": value} for k in names}}, None)

    monkeypatch.setattr(bench, "run_side", run_side)
    pairs, _ = bench.run_pairs({"base": "base", "change": "change"}, "fig1-central",
                               [7, 8], 0.0, trace)
    untraced = [("base", 7), ("change", 7), ("change", 8), ("base", 8)]
    if trace:
        assert calls == [c + (t,) for c in untraced for t in (0, 1)]
        assert pairs[1]["change"]["layers"] == {"scenarios.trial_s": 1.0,
                                                "solvers.self_s": 1.0}
        assert pairs[1]["change"]["traced_correct"]
    else:
        assert calls == [c + (0,) for c in untraced]
        assert "layers" not in pairs[0]["base"]
    assert pairs[0]["base"]["metrics"] == {"run_s": 2.0}


@pytest.fixture(scope="module")
def digests():
    path = os.path.join(os.path.dirname(SCRIPT), "digests.py")
    spec = importlib.util.spec_from_file_location("digests_script", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("head, code, printed", [
    (["fig1 exit 0", "fig1 summary.json aa 10", "tv exit 0"], 0,
     ["all 3 lines identical"]),
    (["fig1 exit 0", "fig1 summary.json bb 11", "tv exit 0"], 1,
     ["- fig1 summary.json aa 10", "+ fig1 summary.json bb 11"]),
    (["fig1 exit 0", "fig1 summary.json aa 10", "tv exit 2"], 1,
     ["- tv exit 0", "+ tv exit 2"]),
])
def test_digests_base_prints_the_differing_lines(digests, monkeypatch, capsys,
                                                 head, code, printed):
    # the exported base tree and the head tree each print their lines; the
    # matrix itself never runs
    base = ["fig1 exit 0", "fig1 summary.json aa 10", "tv exit 0"]
    exported, trees = [], []
    monkeypatch.setattr(digests, "export_base", lambda rev, dst: exported.append(rev))

    def tree_lines(src):
        trees.append(src)
        return base if len(trees) == 1 else head

    monkeypatch.setattr(digests, "tree_lines", tree_lines)
    assert digests.main(["--base", "abc123"]) == code
    assert exported == ["abc123"]
    assert trees[1] == os.path.join(digests.ROOT, "src") != trees[0]
    assert capsys.readouterr().out.splitlines() == printed
