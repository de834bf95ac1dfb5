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
