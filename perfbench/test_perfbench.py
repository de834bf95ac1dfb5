"""Checks of the benchmark itself.

Run from the root of the checkout:  python3 -m pytest perfbench
Each test runs ``run.py`` as the benchmark driver would, with short runs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RATIONALE = json.loads((HERE / "rationale.json").read_text())

# Counts of today's package that must repeat exactly.  A change that alters
# one of them shows here, as a count.
PINNED = {
    "train-mixture": {
        "linop.calls_per_step": 0,
        "denoiser.params": 19202,
        "denoiser.forward.gflop": 0.0,
        "denoiser.adam_step.mbytes": 1.075312,
    },
    "sample-mri": {
        "linop.calls_per_step": 9,
        "denoiser.params": 135680,
        "denoiser.forward.gflop": 0.067584,
        "denoiser.adam_step.mbytes": 0.0,
    },
    "recon-inpaint": {
        "linop.calls_per_step": 10,
        "denoiser.params": 135680,
        "denoiser.forward.gflop": 0.000270336,
        "denoiser.adam_step.mbytes": 0.0,
    },
}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def run(workload, seed, trace, seconds=0.5):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def declared(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


@pytest.mark.parametrize("workload", PINNED)
def test_traced_run_pins_counts_and_accounts_for_its_wall_time(workload):
    info, result = run(workload, 1, 1)
    assert result["correct"], info["errors"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("per_layer")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for name, value in PINNED[workload].items():
        assert metrics[name] == pytest.approx(value, rel=1e-12, abs=0), name
    self_times = sum(v for k, v in metrics.items() if k.endswith(".self_s") and k != "caller.self_s")
    assert self_times + metrics["caller.self_s"] == pytest.approx(metrics["trace.wall_s"], abs=1e-6)


@pytest.mark.parametrize("workload", ["train-mixture", "recon-inpaint"])
def test_seed_fixes_the_outputs(workload):
    first, result = run(workload, 3, 0)
    again, _ = run(workload, 3, 0)
    other, _ = run(workload, 4, 0)
    assert result["correct"], first["errors"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("end_to_end")
    assert first["digest"] == again["digest"] != other["digest"]
    assert set(first["env"]) >= {"nproc", "python", "numpy", "blas", "blas_threads_pinned", "commit"}


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "train-mixture", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_rationale_covers_every_metric_and_workload():
    grouped = [name for group in RATIONALE["layers"] for name in group["metrics"]]
    assert sorted(grouped) == sorted(declared("per_layer"))
    assert all(group["moves"] and group["does_not_move"] for group in RATIONALE["layers"])
    assert set(RATIONALE["end_to_end"]) == set(declared("end_to_end"))
    assert set(RATIONALE["workloads"]) == {w["name"] for w in BENCH["workloads"]}
