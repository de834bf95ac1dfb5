"""sysbridge benchmark: train, batched sampling and single reconstruction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sample-mri --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation; each
job is followed by a fixed control job (control.py), and the gated timing is
the ratio of the two.
``--trace 1`` alternates untraced and traced jobs on the same inputs and
prints the per-layer metrics; the traced outputs must be byte-identical to
the untraced ones.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it (``{"perfbench": ...}``) records the machine, the output digest,
the tail percentile and the metrics under the names the workloads use.

The package is imported from ``src/`` of the checkout this file sits in.
Without that source the benchmark exits with code 2 and prints no result.
Scratch files go to ``.bench_build/`` in the checkout and are removed.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: results and timings must not depend on how many
# cores the machine offers, and one thread is the steadiest on a shared box.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Set-up is repeated at least this many times and for at least this long
# before the measured jobs; setup_s is the median.  Tiny set-ups (the mixture
# problem's is about a millisecond) need many repeats for a steady median.
SETUP_REPEATS = 7
SETUP_MIN_S = 1.5

# Wall-time figures (rates, the median and the tail: the same percentile on
# every workload and run, and the highest percentile with ten samples beyond
# it) are reported, not gated.  On a shared host they move with the other
# tenants' load, by up to a factor of two from run to run; the gated timing
# is the ratio to the control job (control.py).
TAIL_PCT = 90

END_TO_END_UNITS = {
    "time_vs_control": "ratio",
    "final_loss": "L1",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# The end-to-end metrics under the names each workload's users know them by:
# name -> (key among the measured values, unit).
NAMED = {
    "train-mixture": {
        "train_steps_per_s": ("steps_per_s", "1/s"),
        "final_loss": ("final_loss", "L1"),
    },
    "sample-mri": {
        "sample_chain_steps_per_s": ("steps_per_s", "1/s"),
        "recon_psnr_db": ("psnr_db", "dB"),
    },
    "recon-inpaint": {
        "recon_latency_p50_ms": ("latency_p50_ms", "ms"),
        "recon_latency_tail_ms": ("latency_highest_tail_ms", "ms"),
        "recon_psnr_db": ("psnr_db", "dB"),
    },
}
NAMED_EVERYWHERE = {
    "setup_s": ("setup_s", "s"),
    "peak_rss_mb": ("peak_rss_mb", "MB"),
    "failed_frac": ("failed_frac", "ratio"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(NAMED))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def git_commit(root: Path):
    """HEAD of the checkout's own repository, read from its files; None if none."""
    git = root / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def blas_threads_reported():
    """Thread count the bundled OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    cpu = platform.processor() or None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": blas_threads_reported(),
        "commit": git_commit(ROOT),
    }


def summarize(wl, jobs):
    """Correctness checks, output digest and quality over the first pass."""
    errors = []
    first = {}
    for job in jobs:
        errors.extend(job.errors)
        if job.failed:
            continue
        slot = job.index % wl.pool
        if slot not in first:
            first[slot] = job
        elif job.digest != first[slot].digest:
            errors.append(f"job {job.index} output differs from job {first[slot].index} on the same input")
    missing = wl.pool - len(first)
    if missing:
        errors.append(f"{missing} of {wl.pool} inputs never completed")
    ordered = [first[s] for s in sorted(first)]
    digest = hashlib.sha256("".join(j.digest for j in ordered).encode()).hexdigest()
    quality = {
        key: statistics.fmean(j.quality[key] for j in ordered)
        for key in (ordered[0].quality if ordered else {})
    }
    return errors, digest, quality


def tail(latencies, pct):
    """(latency at percentile pct, number of samples beyond it)."""
    value = statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]
    return value, sum(1 for v in latencies if v > value)


def highest_tail(latencies):
    """(percentile, latency) of the 11th-largest sample: ten lie beyond it."""
    n = len(latencies)
    if n < 11:
        return None, float("nan")
    return 100.0 * (n - 10) / n, sorted(latencies)[n - 11]


def run_jobs(wl, st, seconds, tracer=None, plain_st=None):
    """Jobs until the time is up, at least one per pool input.

    Without a tracer, every job is followed by the workload's control job,
    whose time the job records.  With a tracer, every untraced job on
    ``plain_st`` is followed by the same job traced on ``st``; returns
    (untraced jobs, traced jobs).
    """
    # one untimed job (and control) first: the first touch of fresh arrays
    # is not what a long-running caller pays per job
    wl.run(plain_st if tracer else st, 0)
    if tracer is None:
        control = wl.control()
        control()
    plain, traced = [], []
    deadline = perf_counter() + seconds
    while len(plain) < wl.pool or perf_counter() < deadline:
        index = len(plain)
        if tracer is None:
            job = wl.run(st, index)
            start = perf_counter()
            control()
            job.control_s = perf_counter() - start
            plain.append(job)
            continue
        plain.append(wl.run(plain_st, index))
        with tracer.active():
            traced.append(wl.run(st, index, tracer))
    return plain, traced


def measure_plain(wl, seconds):
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
        start = perf_counter()
        st = wl.setup()
        setup_times.append(perf_counter() - start)
    jobs, _ = run_jobs(wl, st, seconds)
    errors, digest, quality = summarize(wl, jobs)
    done = [j for j in jobs if not j.failed]
    latencies = [v for j in jobs for v in j.latencies]
    tail_value, beyond = tail(latencies, TAIL_PCT) if len(latencies) > 1 else (float("nan"), 0)
    highest_pct, highest_value = highest_tail(latencies)
    attempted = sum(j.attempted for j in jobs)
    failed = sum(j.failed for j in jobs)
    values = {
        "time_vs_control": statistics.median(j.wall_s / j.control_s for j in done) if done else float("nan"),
        # median of per-job rates: a stall of the shared machine during one
        # job moves a mean, not the median
        "steps_per_s": statistics.median(j.work / j.wall_s for j in done) if done else 0.0,
        "latency_p50_ms": 1e3 * statistics.median(latencies) if latencies else float("nan"),
        "latency_tail_ms": 1e3 * tail_value,
        "latency_highest_tail_ms": 1e3 * highest_value,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": failed / attempted,
        "final_loss": float("nan"),  # replaced by quality unless every job failed
        "psnr_db": float("nan"),
        **quality,
    }
    named = {**NAMED[wl.name], **NAMED_EVERYWHERE}
    return SimpleNamespace(
        metrics={k: (values[k], unit) for k, unit in END_TO_END_UNITS.items()},
        errors=errors, digest=digest, attempted=attempted, failed=failed,
        info={
            "jobs": len(jobs),
            "latency": {
                "of": wl.latency_of,
                "samples": len(latencies),
                "p50_ms": values["latency_p50_ms"],
                "tail_ms": values["latency_tail_ms"],
                "tail_percentile": TAIL_PCT,
                "beyond_tail": beyond,
                "highest_tail_percentile": highest_pct,
            },
            "named": {name: {"value": values[key], "unit": unit} for name, (key, unit) in named.items()},
        },
    )


def measure_traced(wl, seconds):
    from tracer import Tracer

    plain_st = wl.setup()
    tracer = Tracer()
    with tracer.active():
        st = wl.setup(tracer)
    plain, traced = run_jobs(wl, st, seconds, tracer, plain_st)
    errors, digest, _ = summarize(wl, plain)
    traced_errors, _, _ = summarize(wl, traced)
    errors += [f"traced: {e}" for e in traced_errors]
    for p, t in zip(plain, traced):
        if p.digest != t.digest:
            errors.append(f"job {p.index}: traced output differs from untraced output")
    if not tracer.adds_up():
        errors.append("span self times do not add up to the traced wall time")
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_frac"] = (sum(j.wall_s for j in traced) / sum(j.wall_s for j in plain) - 1.0, "ratio")
    metrics["trace.jobs"] = (len(traced), "count")
    return SimpleNamespace(
        metrics=metrics, errors=errors, digest=digest,
        attempted=sum(j.attempted for j in plain + traced),
        failed=sum(j.failed for j in plain + traced),
        info={"jobs": len(plain) + len(traced)},
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sysbridge" / "__init__.py").is_file():
        print(f"perfbench: no sysbridge source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sysbridge

    if SRC.resolve() not in Path(sysbridge.__file__).resolve().parents:
        print(f"perfbench: imported sysbridge from {sysbridge.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=scratch))
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.prepare()
        out = (measure_traced if args.trace else measure_plain)(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "digest": out.digest,
        "errors": out.errors,
        **out.info,
        "env": environment(),
    }
    print(json.dumps({"perfbench": report}))
    print(json.dumps({
        "correct": not out.errors,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in out.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
