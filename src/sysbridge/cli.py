"""Command-line entry points and experiment orchestration.

Subcommands: train, sample, verify, misspec.  Exit codes: 0 success,
1 runtime or numeric failure, 2 usage or config error.  All CSV outputs
are byte-reproducible given the same config and seeds; timestamps appear
only in the sidecar run.log.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import functools
import sys as _sys
import time
from pathlib import Path

import numpy as np

from . import denoiser as dn
from . import linop, nonlinear, oracle, sampler, tasks, tensorio, verification
from .config import ExperimentConfig, parse_config, serialize_config
from .errors import ConfigError, NumericalError
from .schedule import ScheduleSpec

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _schedule_spec(cfg: ExperimentConfig) -> ScheduleSpec:
    s = cfg.schedule
    return ScheduleSpec(
        variant=s.variant, b0=s.b0, b1=s.b1, sigma_max=s.sigma_max, eps1=s.eps1, eps2=s.eps2
    )


def _task_spec(cfg: ExperimentConfig) -> tasks.TaskSpec:
    t = cfg.task
    return tasks.TaskSpec(
        task=t.task,
        image_side=t.image_side,
        mask_fraction=t.mask_fraction,
        factor=t.factor,
        tau=t.tau,
        sigma1_sq=t.sigma1_sq,
        latent_dim=t.latent_dim,
        lambda1_pct=t.lambda1,
        lambda2_pct=t.lambda2,
        sigma2_sq=t.sigma2_sq,
        seed=t.seed,
    )


def _make_dataset(cfg: ExperimentConfig, n: int, seed: int) -> np.ndarray:
    t = cfg.task
    d = t.d
    if t.dataset == "blobs":
        if t.signal_dim > 0 and t.signal_dim != t.image_side ** 2:
            raise ConfigError("blobs dataset requires signal_dim == image_side**2")
        return tasks.make_toy_dataset("image_blobs", n, seed=seed, side=t.image_side)
    if t.dataset == "gaussian":
        return tasks.make_toy_dataset(
            "gaussian", n, seed=seed, mean=np.full(d, t.gauss_mean), cov=t.gauss_var
        )
    if t.dataset == "field":
        if t.signal_dim > 0 and t.signal_dim != t.image_side ** 2:
            raise ConfigError("field dataset requires signal_dim == image_side**2")
        return tasks.make_toy_dataset(
            "field", n, seed=seed, side=t.image_side,
            scale=t.field_scale, amp=t.field_amp, mean=t.field_mean,
        )
    if t.dataset == "mixture":
        coord = t.mix_coord if t.mix_coord >= 0 else d - 1
        if coord >= d:
            raise ConfigError(f"mix_coord {coord} out of range for d={d}")
        mean_hi = np.zeros(d)
        mean_hi[coord] = t.mix_sep
        mean_lo = -mean_hi
        cov = t.mix_std ** 2
        return tasks.make_toy_dataset(
            "gaussian_mixture",
            n,
            seed=seed,
            weights=[0.5, 0.5],
            means=[mean_hi, mean_lo],
            covs=[cov, cov],
        )
    # single-point dataset (memorization smoke runs)
    return np.tile(np.full(cfg.task.d, t.point_value), (n, 1))


def _gaussian_prior(cfg: ExperimentConfig):
    """Analytic prior for datasets that have one (gaussian and field)."""
    t = cfg.task
    if t.dataset == "gaussian":
        d = t.d
        return oracle.GaussianBelief(np.full(d, t.gauss_mean), t.gauss_var * np.eye(d))
    if t.dataset == "field":
        mu, cov = tasks.field_prior(
            t.image_side, scale=t.field_scale, amp=t.field_amp, mean=t.field_mean
        )
        return oracle.GaussianBelief(mu, cov)
    return None


def _build_system(cfg: ExperimentConfig):
    """Measurement system for the configured task.

    For the nonlinear contrast task, training and sampling embed the
    operator linearized at a gradient-descent estimate from a calibration
    measurement (first dataset draw, noiseless); per-measurement
    re-linearization is available through the nonlinear module API.
    """
    t = cfg.task
    if t.task == "dense":
        rng = np.random.default_rng(t.seed)
        a = rng.standard_normal((t.dense_m, t.d))
        return linop.build_dense_system(a, sigma_half=float(np.sqrt(t.noise_var)))
    if t.task == "contrast":
        nsys = nonlinear.sigmoid_contrast_system(t.d, k=t.contrast_k, a=t.contrast_a)
        calib = _make_dataset(cfg, 1, t.data_seed)[0]
        y_cal = nsys.apply(calib)
        x_hat = nonlinear.mle_init(nsys, y_cal)
        return nonlinear.linearize(nsys, x_hat, sigma_half=float(np.sqrt(t.noise_var)))
    return tasks.build_system(_task_spec(cfg))


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
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


def _prepare_output_dir(cfg: ExperimentConfig, override) -> Path:
    out = Path(override) if override else Path(cfg.run.output_dir)
    if not out.parent.exists():
        raise ConfigError(f"output directory parent does not exist: {out.parent}")
    out.mkdir(exist_ok=True)
    return out


def _snapshot(cfg: ExperimentConfig, out: Path):
    (out / "config_resolved.ini").write_text(serialize_config(cfg), encoding="utf-8")


def _log(out: Path, message: str):
    with open(out / "run.log", "a", encoding="utf-8") as fh:
        fh.write(f"[{time.strftime('%Y-%m-%dT%H:%M:%S')}] {message}\n")


def _metric_row(cfg, perturbation, psnr_val, ssim_val, n_samples, seed):
    return [
        cfg.run.run_id,
        cfg.task.task,
        cfg.schedule.variant,
        perturbation,
        _fmt(psnr_val),
        "" if ssim_val is None else _fmt(ssim_val),
        n_samples,
        seed,
    ]


_METRIC_HEADER = ["run_id", "task", "variant", "perturbation", "psnr", "ssim", "n_samples", "seed"]


def _maybe_ssim(cfg, x, ref):
    side = cfg.task.image_side
    if cfg.task.signal_dim > 0 and cfg.task.signal_dim != side * side:
        return None
    if side * side != x.shape[-1] or side < 8:
        return None
    return tasks.ssim(np.clip(x, 0.0, 1.0), ref)


def cmd_train(args) -> int:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, seed=args.seed))
    out = _prepare_output_dir(cfg, args.output)
    _snapshot(cfg, out)
    _log(out, f"train start run_id={cfg.run.run_id}")

    sys_ = _build_system(cfg)
    spec = _schedule_spec(cfg)
    data = _make_dataset(cfg, cfg.task.n_train, cfg.task.data_seed)
    tr = cfg.train
    net = dn.init_net(
        sys_.d,
        hidden=tr.hidden,
        activation=tr.activation,
        time_embed=tr.time_embed,
        time_freqs=tr.time_freqs,
        seed=tr.seed,
    )
    tcfg = dn.TrainConfig(
        lr=tr.lr,
        adam_beta1=tr.adam_beta1,
        adam_beta2=tr.adam_beta2,
        batch_size=tr.batch_size,
        n_epochs=tr.n_epochs,
        seed=tr.seed,
        lr_milestones=tr.lr_milestones,
    )
    net, losses = dn.train(net, sys_, spec, data, tcfg)

    ckpt = out / "checkpoint.ckpt"
    dn.save_checkpoint(ckpt, net, spec, extra={"task": cfg.task.task, "run_id": cfg.run.run_id})
    _write_csv(
        out / "loss.csv",
        ["epoch", "mean_loss"],
        [[i, _fmt(loss)] for i, loss in enumerate(losses)],
    )
    _log(out, f"train done final_loss={losses[-1] if losses else float('nan')}")
    print(f"checkpoint written to {ckpt}")
    return EXIT_OK


def _load_measurements(path, m):
    y = tensorio.load_tensor(path)
    if y.ndim == 1:
        y = y[None, :]
    if y.ndim != 2 or y.shape[1] != m:
        raise ConfigError(f"measurement tensor must be (n, {m}), got {y.shape}")
    return y


def _checkpoint_denoiser(path, spec: ScheduleSpec, d: int):
    """The checkpoint's network as a denoiser; ConfigError unless it loads,
    embeds ``spec`` and acts on signals of width ``d``."""
    try:
        net, _, header = dn.load_checkpoint(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load checkpoint {path}: {exc}") from exc
    if header.get("schedule_hash") != dn.schedule_hash(spec):
        raise ConfigError(
            "checkpoint schedule does not match config schedule "
            f"({header.get('schedule_hash', 'missing')[:12]} vs "
            f"{dn.schedule_hash(spec)[:12]}); refusing to sample with a "
            "misspecified embedded schedule"
        )
    if net.signal_dim != d:
        raise ConfigError(
            f"checkpoint network acts on signals of width {net.signal_dim}, "
            f"the configured system on {d}"
        )
    return dn.as_denoiser(net)


def cmd_sample(args) -> int:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, sample=dataclasses.replace(cfg.sample, seed=args.seed))
    out = _prepare_output_dir(cfg, args.output)
    _snapshot(cfg, out)
    _log(out, "sample start")

    sys_ = _build_system(cfg)
    spec = _schedule_spec(cfg)

    if args.oracle_denoiser:
        prior = _gaussian_prior(cfg)
        if prior is None:
            raise ConfigError("--oracle-denoiser requires a dataset with an analytic prior (gaussian or field)")
        denoise = oracle.oracle_denoiser(prior, sys_, spec)
    else:
        if not args.checkpoint:
            raise ConfigError("sample requires --checkpoint (or --oracle-denoiser)")
        denoise = _checkpoint_denoiser(args.checkpoint, spec, sys_.d)

    smp = cfg.sample
    rng = np.random.default_rng(smp.seed)
    x_truth = None
    if args.simulate:
        x_truth = _make_dataset(cfg, smp.n_samples, smp.seed + 1)
        clean = sys_.apply(x_truth)
        y = clean + sys_.noise_scale(rng.standard_normal(clean.shape))
        if args.oracle_denoiser:
            # posterior diagnostics sample many chains for a single measurement
            x_truth, y = x_truth[:1], y[:1]
    elif args.measurements:
        y = _load_measurements(args.measurements, sys_.m)
    else:
        raise ConfigError("sample requires --simulate or --measurements PATH")

    scfg = sampler.SamplerConfig(
        n_steps=smp.n_steps,
        spec=spec,
        noiseless_range_lock=smp.range_lock,
        seed=smp.seed,
        keep_every=smp.keep_every,
        time_grid=smp.time_grid,
    )
    n_chains = smp.n_samples if (args.oracle_denoiser and args.simulate) else 1
    if n_chains > 1:
        trace = sampler.sample(sys_, scfg, y[0], denoise, n_chains=n_chains, rng=rng)
    else:
        trace = sampler.sample(sys_, scfg, y, denoise, rng=rng)
    samples = np.atleast_2d(trace.final)

    tensorio.save_tensor(out / "samples.sdbt", samples)
    if trace.states is not None:
        tensorio.save_tensor(out / "trace.sdbt", np.stack([s.x for s in trace.states]))

    rows = []
    if x_truth is not None and not args.oracle_denoiser:
        for i in range(samples.shape[0]):
            rows.append(
                _metric_row(
                    cfg,
                    "none",
                    tasks.psnr(samples[i], x_truth[i]),
                    _maybe_ssim(cfg, samples[i], x_truth[i]),
                    1,
                    smp.seed,
                )
            )
    _write_csv(out / "metrics.csv", _METRIC_HEADER, rows)

    if args.oracle_denoiser and args.simulate:
        prior = _gaussian_prior(cfg)
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
        print(f"unknown suite {name!r}, expected one of {verification.SUITES}", file=_sys.stderr)
        return EXIT_USAGE
    results = verification.run_suite(name)
    rows = [
        [r.suite, r.check, r.status, _fmt(r.value), _fmt(r.tolerance)] for r in results
    ]
    if args.output:
        out = Path(args.output)
        if not out.parent.exists():
            print(f"output parent does not exist: {out.parent}", file=_sys.stderr)
            return EXIT_USAGE
        out.mkdir(exist_ok=True)
        _write_csv(out / f"verify_{name}.csv", ["suite", "check", "status", "value", "tolerance"], rows)
    for row in rows:
        print(",".join(str(v) for v in row))
    return EXIT_OK if all(r.passed for r in results) else EXIT_RUNTIME


def _sweep_perturbation(cfg: ExperimentConfig, param: str, value: float) -> tasks.Perturbation:
    if param == "lambda1":
        return tasks.Perturbation(lambda1=value)
    if param == "tau":
        return tasks.Perturbation(tau=value)
    if param == "noise_var":
        return tasks.Perturbation(noise_var=value)
    if param == "poisson_i0":
        return tasks.Perturbation(noise_model="poisson", poisson_i0=value)
    raise ConfigError(f"unknown sweep parameter {param!r}")


def cmd_misspec(args) -> int:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, eval=dataclasses.replace(cfg.eval, seed=args.seed))
    out = _prepare_output_dir(cfg, args.output)
    _snapshot(cfg, out)
    _log(out, "misspec start")

    param = args.param if args.param else cfg.eval.param
    if args.values:
        values = tuple(float(v) for v in args.values.split(","))
    else:
        values = cfg.eval.values

    if not args.checkpoint:
        raise ConfigError("misspec requires --checkpoint")
    spec = _schedule_spec(cfg)
    train_sys = _build_system(cfg)
    denoise = _checkpoint_denoiser(args.checkpoint, spec, train_sys.d)
    task_spec = _task_spec(cfg)
    rows, summary = [], []
    for value in values:
        pert = _sweep_perturbation(cfg, param, value)
        deployed, generate = tasks.perturb_system(task_spec, pert)
        rng = np.random.default_rng(cfg.eval.seed)
        x0 = _make_dataset(cfg, cfg.eval.n_draws, cfg.eval.seed + 1)
        y_deploy = generate(x0, rng)
        # deployment reconstruction, then re-measured through the embedded
        # training-time system: the checkpoint never sees the perturbed one
        recon = deployed.apply_pinv(y_deploy)
        y_embedded = train_sys.apply(recon)
        scfg = sampler.SamplerConfig(
            n_steps=cfg.sample.n_steps,
            spec=spec,
            noiseless_range_lock=cfg.sample.range_lock,
            seed=cfg.sample.seed,
            time_grid=cfg.sample.time_grid,
        )
        samples = np.atleast_2d(sampler.sample(train_sys, scfg, y_embedded, denoise, rng=rng).final)
        psnrs = np.array([tasks.psnr(samples[i], x0[i]) for i in range(len(x0))])
        ssims = [
            _maybe_ssim(cfg, samples[i], x0[i]) for i in range(len(x0))
        ]
        have_ssim = all(s is not None for s in ssims)
        mean_ssim = float(np.mean(ssims)) if have_ssim else None
        label = f"{param}={value:g}"
        rows.append(
            _metric_row(cfg, label, float(psnrs.mean()), mean_ssim, len(x0), cfg.eval.seed)
        )
        summary.append(
            [
                label,
                _fmt(float(psnrs.mean())),
                _fmt(float(psnrs.std(ddof=1))) if len(psnrs) > 1 else "",
                "" if mean_ssim is None else _fmt(mean_ssim),
                "" if not have_ssim else _fmt(float(np.std([s for s in ssims], ddof=1))),
                len(x0),
            ]
        )
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
        p.add_argument("--threads", type=int, default=1, help="BLAS threads; outputs do not depend on it")

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
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--threads", type=int, default=1, help="BLAS threads; outputs do not depend on it")

    p_mis = sub.add_parser("misspec", help="sweep deployment-time system perturbations")
    common(p_mis)
    p_mis.add_argument("--checkpoint", default=None)
    p_mis.add_argument("--param", default=None, choices=["lambda1", "tau", "noise_var", "poisson_i0"])
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
        previous = set_blas_threads(args.threads)
        if previous is None and args.threads != 1:
            print("warning: --threads ignored: numpy does not use its bundled OpenBLAS", file=_sys.stderr)
        try:
            return handlers[args.command](args)
        finally:
            if previous is not None:
                set_blas_threads(previous)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
