"""Command-line entry points and experiment orchestration.

Subcommands: train, sample, verify, misspec.  The system, data and prior
of a run come from its `tasks.TaskSpec`; this module only orchestrates.
Exit codes: 0 success, 1 runtime or numeric failure, 2 usage or config
error, which includes a task too large for dense algebra, an array too
large to allocate and an unusable ``--output``: a file, a path under a
file, or a path whose parent does not exist.  All outputs are
byte-reproducible given the same config and seeds, at any `--threads`:
`--oracle-denoiser` runs on one BLAS thread.  Timestamps appear only in the
sidecar run.log.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import sys as _sys
import time
from pathlib import Path
from typing import Tuple

import numpy as np

from . import denoiser as dn
from . import oracle, sampler, tasks, tensorio, verification
from .config import ExperimentConfig, parse_config, parse_value, serialize_config, with_seed
from .errors import CapacityError, ConfigError, NumericalError

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):  # numpy scalars too, as plain numbers
        return repr(float(value))
    return str(value)


@functools.lru_cache(maxsize=None)
def _openblas_threads_api():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        get = getattr(handle, "scipy_openblas_get_num_threads64_", None)
        put = getattr(handle, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def set_blas_threads(n: int):
    """Set the BLAS thread count; returns the previous one, or None if unsupported."""
    api = _openblas_threads_api()
    if api is None:
        return None
    get, put = api
    previous = int(get())
    put(n)
    return previous


def _prepare_output_dir(path) -> Path:
    out = Path(path)
    if not out.parent.exists():
        raise ConfigError(f"output directory parent does not exist: {out.parent}")
    try:
        out.mkdir(exist_ok=True)
    except OSError as exc:  # a file at the path or above it
        raise ConfigError(f"cannot use output directory {out}: {exc}") from exc
    return out


def _log(out: Path, message: str):
    with open(out / "run.log", "a", encoding="utf-8") as fh:
        fh.write(f"[{time.strftime('%Y-%m-%dT%H:%M:%S')}] {message}\n")


def _read_config(args, section: str) -> ExperimentConfig:
    """The parsed config with ``--seed`` applied to ``section``."""
    cfg = parse_config(args.config)
    return cfg if args.seed is None else with_seed(cfg, section, args.seed)


def _start_run(args, cfg: ExperimentConfig, what: str) -> Path:
    """The run's output directory, prepared, with the resolved config written
    and the start ``what`` logged (``{run_id}`` filled in).  Commands call it
    after every usage check, so a refused run leaves no directory."""
    out = _prepare_output_dir(args.output or cfg.run.output_dir)
    (out / "config_resolved.ini").write_text(serialize_config(cfg), encoding="utf-8")
    _log(out, what.format(run_id=cfg.run.run_id))
    return out


def _metric_row(cfg, perturbation, psnr_val, ssim_val, n_samples, seed):
    return [
        cfg.run.run_id,
        cfg.task.task,
        cfg.schedule.variant,
        perturbation,
        _fmt(psnr_val),
        _fmt(ssim_val),
        n_samples,
        seed,
    ]


_METRIC_HEADER = ["run_id", "task", "variant", "perturbation", "psnr", "ssim", "n_samples", "seed"]


def _scores(cfg, samples, truth):
    """(psnrs, ssims): each draw's PSNR against its truth, and its SSIM (of
    the draw clipped to [0, 1]) where the draws are images (`TaskSpec.images`)
    of side >= `tasks.SSIM_WINDOW`, else None."""
    psnrs = [tasks.psnr(x, ref) for x, ref in zip(samples, truth)]
    if cfg.task.image_side < tasks.SSIM_WINDOW or not cfg.task.images:
        return psnrs, None
    return psnrs, [tasks.ssim(np.clip(x, 0.0, 1.0), ref) for x, ref in zip(samples, truth)]


def cmd_train(args) -> int:
    cfg = _read_config(args, "train")
    sys_ = tasks.build_system(cfg.task)
    data = tasks.make_dataset(cfg.task, cfg.task.n_train, cfg.task.data_seed)
    tr = cfg.train
    net = dn.init_net(sys_.d, hidden=tr.hidden, activation=tr.activation, seed=tr.seed)
    out = _start_run(args, cfg, "train start run_id={run_id}")
    net, losses = dn.train(net, sys_, cfg.schedule, data, tr)

    ckpt = out / "checkpoint.ckpt"
    dn.save_checkpoint(ckpt, net, cfg.schedule, extra={
        "system_hash": tasks.system_hash(cfg.task), "task": cfg.task.task, "run_id": cfg.run.run_id,
    })
    _write_csv(
        out / "loss.csv",
        ["epoch", "mean_loss"],
        [[i, _fmt(loss)] for i, loss in enumerate(losses)],
    )
    _log(out, f"train done final_loss={losses[-1] if losses else float('nan')}")
    print(f"checkpoint written to {ckpt}")
    return EXIT_OK


def _load_measurements(path, m):
    try:
        y = tensorio.load_tensor(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load measurements {path}: {exc}") from exc
    if y.ndim == 1:
        y = y[None, :]
    if y.ndim != 2 or y.shape[1] != m:
        raise ConfigError(f"measurement tensor must be (n, {m}), got {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ConfigError(f"measurement tensor {path} has non-finite entries")
    return y


def _checkpoint_denoiser(path, cfg: ExperimentConfig, d: int):
    """The checkpoint's network as a denoiser; ConfigError unless it loads,
    has finite parameters, embeds the config's schedule and system, and acts
    on signals of width ``d``."""
    try:
        net, _, header = dn.load_checkpoint(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load checkpoint {path}: {exc}") from exc
    if not np.all(np.isfinite(net.flat)):
        raise ConfigError(f"checkpoint {path} has non-finite parameters")
    for what, key, expected in (
        ("schedule", "schedule_hash", dn.schedule_hash(cfg.schedule)),
        ("system", "system_hash", tasks.system_hash(cfg.task)),
    ):
        if header.get(key) != expected:
            raise ConfigError(
                f"checkpoint {what} does not match config {what} "
                f"({header.get(key, 'missing')[:12]} vs {expected[:12]}); refusing to "
                f"sample with a misspecified embedded {what}"
            )
    if net.signal_dim != d:
        raise ConfigError(
            f"checkpoint network acts on signals of width {net.signal_dim}, "
            f"the configured system on {d}"
        )
    return dn.as_denoiser(net)


def cmd_sample(args) -> int:
    if args.simulate and args.measurements:
        raise ConfigError("sample takes --simulate or --measurements, not both")
    if not (args.simulate or args.measurements):
        raise ConfigError("sample requires --simulate or --measurements PATH")
    if args.oracle_denoiser and args.checkpoint:
        raise ConfigError("sample takes --oracle-denoiser or --checkpoint, not both")
    if not (args.oracle_denoiser or args.checkpoint):
        raise ConfigError("sample requires --checkpoint (or --oracle-denoiser)")
    cfg = _read_config(args, "sample")
    sys_, measure = tasks.deploy(cfg.task)
    spec = cfg.schedule
    if args.oracle_denoiser:
        prior = tasks.gaussian_prior(cfg.task)
        if prior is None:
            raise ConfigError("--oracle-denoiser requires a dataset with an analytic prior (gaussian or field)")
        denoise = oracle.oracle_denoiser(prior, sys_, spec)
    else:
        denoise = _checkpoint_denoiser(args.checkpoint, cfg, sys_.d)
    y = None if args.simulate else _load_measurements(args.measurements, sys_.m)
    out = _start_run(args, cfg, "sample start")

    rng = np.random.default_rng(cfg.sample.seed)
    x_truth = None
    if args.simulate:
        x_truth = tasks.make_dataset(cfg.task, cfg.sample.n_samples, cfg.sample.seed + 1)
        y = measure(x_truth, rng)
        if args.oracle_denoiser:
            # posterior diagnostics sample many chains for a single measurement
            x_truth, y = x_truth[:1], np.repeat(y[:1], cfg.sample.n_samples, axis=0)

    trace = sampler.sample(sys_, cfg.sample, y, denoise, rng=rng)
    samples = trace.final

    tensorio.save_tensor(out / "samples.sdbt", samples)
    if trace.states is not None:
        tensorio.save_tensor(out / "trace.sdbt", np.stack([s.x for s in trace.states]))

    rows = []
    if x_truth is not None and not args.oracle_denoiser:
        psnrs, ssims = _scores(cfg, samples, x_truth)
        for i, psnr_val in enumerate(psnrs):
            ssim_val = None if ssims is None else ssims[i]
            rows.append(_metric_row(cfg, "none", psnr_val, ssim_val, 1, cfg.sample.seed))
    _write_csv(out / "metrics.csv", _METRIC_HEADER, rows)

    if args.oracle_denoiser and args.simulate:
        post = oracle.gaussian_posterior(prior, sys_, y[0])
        emp_mean = samples.mean(axis=0)
        emp_cov = np.cov(samples.T) if samples.shape[0] > 1 else np.zeros((sys_.d, sys_.d))
        mrows = []
        for i in range(sys_.d):
            mrows.append(["mean", i, i, _fmt(float(emp_mean[i])), _fmt(float(post.mean[i]))])
        for i in range(sys_.d):
            for j in range(sys_.d):
                mrows.append(
                    ["cov", i, j, _fmt(float(emp_cov[i, j])), _fmt(float(post.cov[i, j]))]
                )
        _write_csv(
            out / "posterior_moments.csv",
            ["stat", "i", "j", "empirical", "analytic"],
            mrows,
        )
    _log(out, f"sample done n={samples.shape[0]}")
    print(f"samples written to {out / 'samples.sdbt'}")
    return EXIT_OK


def cmd_verify(args) -> int:
    name = args.suite
    if name not in verification.SUITES:
        raise ConfigError(f"unknown suite {name!r}, expected one of {tuple(verification.SUITES)}")
    out = _prepare_output_dir(args.output) if args.output else None
    results = verification.SUITES[name]()
    rows = [
        [r.suite, r.check, r.status, _fmt(r.value), _fmt(r.tolerance)] for r in results
    ]
    if out is not None:
        _write_csv(out / f"verify_{name}.csv", ["suite", "check", "status", "value", "tolerance"], rows)
    for row in rows:
        print(",".join(str(v) for v in row))
    return EXIT_OK if all(r.passed for r in results) else EXIT_RUNTIME


def cmd_misspec(args) -> int:
    if not args.checkpoint:
        raise ConfigError("misspec requires --checkpoint")
    cfg = _read_config(args, "eval")
    param = args.param if args.param else cfg.eval.param
    if args.values:
        values = parse_value("--values", args.values, Tuple[float, ...])
    elif param != cfg.eval.param:
        swept = cfg.eval.param or "no parameter"
        raise ConfigError(f"--param {param} needs --values: [eval] values sweep {swept}")
    else:
        values = cfg.eval.values

    if values and not param:
        raise ConfigError("--values need a sweep parameter: set [eval] param or --param")
    if cfg.task.task not in tasks.TASKS:
        raise ConfigError(f"task {cfg.task.task!r} is not one of the image tasks {tasks.TASKS}")
    try:
        if param:  # an empty sweep must fit its task too
            tasks.sweep_field(cfg.task.task, param)
        deployments = [tasks.deploy(cfg.task, param, value) for value in values]
    except ValueError as exc:
        raise ConfigError(f"bad {param} sweep: {exc}") from exc
    train_sys = tasks.build_system(cfg.task)
    denoise = _checkpoint_denoiser(args.checkpoint, cfg, train_sys.d)
    out = _start_run(args, cfg, "misspec start")
    x0 = tasks.make_dataset(cfg.task, cfg.eval.n_draws, cfg.eval.seed + 1)
    rows, summary = [], []
    for value, (deployed, measure) in zip(values, deployments):
        rng = np.random.default_rng(cfg.eval.seed)
        # deployment reconstruction, then re-measured through the embedded
        # training-time system: the checkpoint never sees the perturbed one
        recon = deployed.apply_pinv(measure(x0, rng))
        y_embedded = train_sys.apply(recon)
        samples = sampler.sample(train_sys, cfg.sample, y_embedded, denoise, rng=rng).final
        scores = _scores(cfg, samples, x0)
        means = [None if v is None else float(np.mean(v)) for v in scores]
        # a spread needs two draws
        sds = [None if v is None or len(v) < 2 else float(np.std(v, ddof=1)) for v in scores]
        label = f"{param}={value:g}"
        rows.append(_metric_row(cfg, label, *means, len(x0), cfg.eval.seed))
        summary.append([label, _fmt(means[0]), _fmt(sds[0]), _fmt(means[1]), _fmt(sds[1]), len(x0)])
    _write_csv(out / "metrics.csv", _METRIC_HEADER, rows)
    _write_csv(
        out / "misspec_summary.csv",
        ["perturbation", "psnr_mean", "psnr_sd", "ssim_mean", "ssim_sd", "n_draws"],
        summary,
    )
    _log(out, f"misspec done points={len(values)}")
    print(f"metrics written to {out / 'metrics.csv'}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sysbridge",
        description="Measurement-system-embedded diffusion bridges: train, sample, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=False, help="experiment config (INI)")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--output", default=None, help="output directory override")
        p.add_argument("--threads", type=int, default=1,
                       help="BLAS threads; outputs do not depend on it")

    p_train = sub.add_parser("train", help="train a denoiser per the config")
    common(p_train)

    p_sample = sub.add_parser("sample", help="reverse-sample from measurements")
    common(p_sample)
    p_sample.add_argument("--checkpoint", default=None)
    p_sample.add_argument("--measurements", default=None, help="tensor file of measurements")
    p_sample.add_argument("--simulate", action="store_true", help="draw ground truth and measurements from the task")
    p_sample.add_argument("--oracle-denoiser", action="store_true", help="bypass checkpoint with the analytic Gaussian denoiser")

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite")
    p_verify.add_argument("--output", default=None)
    p_verify.add_argument("--threads", type=int, default=1, help="BLAS threads; outputs do not depend on it")

    p_mis = sub.add_parser("misspec", help="sweep deployment-time system perturbations")
    common(p_mis)
    p_mis.add_argument("--checkpoint", default=None)
    p_mis.add_argument("--param", default=None, choices=tasks.SWEEP_PARAMS)
    p_mis.add_argument("--values", default=None, help="comma-separated sweep values")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "train": cmd_train,
        "sample": cmd_sample,
        "verify": cmd_verify,
        "misspec": cmd_misspec,
    }
    try:
        if args.command != "verify" and not args.config:
            raise ConfigError(f"{args.command} requires --config PATH")
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        # the oracle's eigh and dense products keep their bytes only on one thread
        threads = 1 if getattr(args, "oracle_denoiser", False) else args.threads
        previous = set_blas_threads(threads)
        if previous is None and threads != 1:
            print("warning: --threads ignored: numpy does not use its bundled OpenBLAS", file=_sys.stderr)
        try:
            return handlers[args.command](args)
        finally:
            if previous is not None:
                set_blas_threads(previous)
    except (ConfigError, CapacityError, MemoryError) as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
