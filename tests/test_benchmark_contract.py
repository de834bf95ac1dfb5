"""The package surface that the benchmark in ``perfbench/`` wraps and calls.

``tracer.Tracer()`` looks up every module attribute that it times, and the
workloads call the package's public API.  A renamed function or parameter
fails here, not only as a failed benchmark run.  Nothing under
``perfbench/`` is written: its modules are imported without bytecode.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _files():
    return {p: p.stat().st_mtime_ns for p in PERFBENCH.rglob("*")}


@pytest.fixture()
def perfbench(monkeypatch):
    """perfbench's files as they were, and its tracer and workloads modules."""
    files = _files()
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("control", "tracer", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield files, importlib.import_module("tracer"), importlib.import_module("workloads")
    for name in ("control", "tracer", "workloads"):
        sys.modules.pop(name, None)


def test_traced_train_mixture_job(perfbench, tmp_path):
    files, tracer, workloads = perfbench
    trace = tracer.Tracer()
    workload = workloads.TrainMixture(seed=3, workdir=tmp_path)
    state = workload.setup(trace)
    with trace.active():
        job = workload.run(state, 0, trace)
    assert (job.work, job.failed, job.errors) == (workload.STEPS, 0, [])
    assert trace.calls("denoiser.adam_step") == workload.STEPS
    assert trace.calls("denoiser.l1_loss_and_grad") == workload.STEPS
    assert trace.adds_up()
    metrics = trace.layer_metrics()
    assert metrics["denoiser.params"] == (19202, "count")
    assert _files() == files


def test_traced_recon_inpaint_job(perfbench, tmp_path):
    files, tracer, workloads = perfbench
    trace = tracer.Tracer()
    workload = workloads.ReconInpaint(seed=3, workdir=tmp_path)
    workload.prepare()
    # set up and run inside traced blocks, as perfbench's run.measure_traced does
    with trace.active():
        state = workload.setup(trace)
    with trace.active():
        job = workload.run(state, 0, trace)
    assert (job.failed, job.errors) == (0, [])
    assert trace.calls("sampler.reverse_step") == workloads.SAMPLE_STEPS == 100
    assert trace.layer_metrics()["linop.calls_per_step"] == (2.0, "count/step")
    assert trace.adds_up()
    assert _files() == files


def test_traced_sample_mri_job(perfbench, tmp_path):
    # the noisy partial-isometry path: one signal-space draw per step
    files, tracer, workloads = perfbench
    trace = tracer.Tracer()
    workload = workloads.SampleMri(seed=3, workdir=tmp_path)
    workload.prepare()
    with trace.active():
        state = workload.setup(trace)
    with trace.active():
        job = workload.run(state, 0, trace)
    assert (job.failed, job.errors) == (0, [])
    assert trace.calls("sampler.reverse_step") == workloads.SAMPLE_STEPS == 100
    assert trace.layer_metrics()["linop.calls_per_step"] == (2.0, "count/step")
    assert trace.adds_up()
    assert _files() == files
