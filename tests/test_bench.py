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
