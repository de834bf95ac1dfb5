"""The pair recorder's summary of parent and change runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def run(ratio, loss):
    metrics = {"time_vs_control": {"value": ratio, "unit": "ratio"},
               "final_loss": {"value": loss, "unit": "L1"}}
    return {"perfbench": {}, "result": {"metrics": metrics}}


def test_medians_quartiles_and_lower_pairs():
    parent = [run(r, 1.0) for r in (0.60, 0.58, 0.62, 0.59, 0.61)]
    change = [run(r, 1.0) for r in (0.55, 0.53, 0.63, 0.54, 0.56)]
    p, c, cmp = bench_pairs.compare(parent, change)
    assert p["time_vs_control"] == {"unit": "ratio", "median": 0.60, "q1": 0.59, "q3": 0.61,
                                    "iqr": pytest.approx(0.02)}
    assert c["time_vs_control"]["median"] == 0.55
    ratio = cmp["time_vs_control"]
    assert ratio["change_lower_pairs"] == 4 and ratio["pairs"] == 5
    assert ratio["median_rel_change"] == pytest.approx(-0.05 / 0.60)
    assert ratio["median_drop_over_parent_iqr"] == pytest.approx(2.5)
    # equal values are not lower, and a zero spread gives no ratio
    assert cmp["final_loss"]["change_lower_pairs"] == 0
    assert cmp["final_loss"]["median_drop_over_parent_iqr"] is None


STEADY = (1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00)


@pytest.mark.parametrize("label, parent, change", [
    # wins 10/10 and the median drops by 0.1, more than the parent's IQR
    ("better", STEADY, tuple(v - 0.1 for v in STEADY)),
    # +30 % against time_vs_control's 20 % bound, on a steady parent
    ("worse", STEADY, tuple(v + 0.3 for v in STEADY)),
    # +10 %: a move, but inside the bound
    ("within bound", STEADY, tuple(v + 0.1 for v in STEADY)),
    # the parent's IQR (0.65) is more than 0.2 times its median (1.0)
    ("unresolved", (0.5, 1.6, 0.7, 1.3, 1.0, 0.6, 1.4, 1.0, 0.8, 1.5),
     (1.0, 1.1, 0.9, 1.2, 0.8, 1.0, 1.1, 0.9, 1.0, 1.0)),
])
def test_verdict_against_the_benchmark_bound(label, parent, change):
    _, _, cmp = bench_pairs.compare([run(r, 1.0) for r in parent], [run(r, 1.0) for r in change])
    assert cmp["time_vs_control"]["verdict"] == label
    # equal losses move by nothing
    assert cmp["final_loss"]["verdict"] == "within bound"


def test_wide_parent_resolved_when_every_change_run_beats_it():
    # the parent's IQR is wide, but every change run is below every parent
    # run; the drop (0.55) is not above that IQR, so it is no gain either
    parent = (0.5, 1.6, 0.7, 1.3, 1.0, 0.6, 1.4, 1.0, 0.8, 1.5)
    _, _, cmp = bench_pairs.compare([run(r, 1.0) for r in parent], [run(0.45, 1.0)] * 10)
    assert cmp["time_vs_control"]["verdict"] == "within bound"


def test_metric_without_a_bound_has_no_verdict():
    def runs(value):
        return [{"result": {"metrics": {"steps": {"value": value + i, "unit": "count"}}}}
                for i in range(5)]

    _, _, cmp = bench_pairs.compare(runs(10.0), runs(20.0))
    assert cmp["steps"]["verdict"] is None
