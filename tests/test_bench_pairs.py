"""The summary code of tools/bench_pairs.py on fixed numbers; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# pair 5 is the one the change loses
PARENT = [1.30, 1.34, 1.40, 1.25, 1.50, 1.36, 1.31, 1.45, 1.38, 1.33]
CHANGE = [0.85, 0.86, 0.90, 0.84, 0.95, 1.40, 0.87, 0.88, 0.86, 0.85]


def test_quartiles_interpolate_linearly():
    # sorted parent: 1.25 1.30 1.31 1.33 1.34 1.36 1.38 1.40 1.45 1.50; the
    # quartiles sit at positions 2.25, 4.5 and 6.75
    assert bench_pairs.quartiles(PARENT) == {"median": 1.35, "q1": 1.315, "q3": 1.395}


def test_gain_shown_in_nine_of_ten_pairs():
    got = bench_pairs.summarize_metric(PARENT, CHANGE)
    assert got == {
        "parent": {"median": 1.35, "q1": 1.315, "q3": 1.395},
        "change": {"median": 0.865, "q1": 0.8525, "q3": 0.895},
        "change_lower_in_pairs": 9,
        "median_change_pct": -35.9,  # 100 * (0.865 - 1.35) / 1.35
        "gain_shown": True,
    }


def test_no_gain_in_eight_of_ten_pairs():
    change = CHANGE[:]
    change[0] = 1.30  # a tie counts for neither side
    got = bench_pairs.summarize_metric(PARENT, change)
    assert got["change_lower_in_pairs"] == 8
    assert got["gain_shown"] is False


def test_no_gain_inside_the_parents_spread():
    # lower in every pair, by 0.05 against the parent's q3 - q1 of 0.08
    change = [v - 0.05 for v in PARENT]
    got = bench_pairs.summarize_metric(PARENT, change)
    assert got["change_lower_in_pairs"] == 10
    assert got["gain_shown"] is False


def test_higher_is_better():
    got = bench_pairs.summarize_metric(CHANGE, PARENT, better="higher")
    assert got["change_lower_in_pairs"] == 1
    assert got["median_change_pct"] == 56.1  # 100 * (1.35 - 0.865) / 0.865
    assert got["gain_shown"] is True


def test_unpaired_runs_rejected():
    with pytest.raises(ValueError):
        bench_pairs.summarize_metric(PARENT, CHANGE[:-1])


def run(seed, wall, correct=True, failed=0):
    return {"seed": seed, "correct": correct, "attempted": 3, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"}}}


def test_workload_keeps_every_run_and_flags_failures():
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]
    runs = {"parent": [run(1, 2.0), run(2, 2.2)], "change": [run(1, 1.0), run(2, 1.1)]}
    got = bench_pairs.summarize_workload(runs, metrics)
    assert got["all_correct_no_failures"] is True
    assert got["parent"] == runs["parent"] and got["change"] == runs["change"]
    assert got["summary"]["wall_s"]["change_lower_in_pairs"] == 2
    runs["change"][1] = run(2, 1.1, failed=1)
    assert bench_pairs.summarize_workload(runs, metrics)["all_correct_no_failures"] is False
    runs["change"][1] = run(2, 1.1, correct=False)
    assert bench_pairs.summarize_workload(runs, metrics)["all_correct_no_failures"] is False


@pytest.mark.parametrize("text, seeds", [("301-304", [301, 302, 303, 304]),
                                         ("5,9,7", [5, 9, 7]), ("8", [8])])
def test_parse_seeds(text, seeds):
    assert bench_pairs.parse_seeds(text) == seeds
