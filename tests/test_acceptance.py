"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or on
failure); the assertion carries the same tolerance.  The heavy criteria
(end-to-end mixture learning, misspecification protocol) take a few
minutes each and are kept within their stated runtime budgets.
"""

import time

import numpy as np
import pytest

from sysbridge import cli, denoiser as dn
from sysbridge import forward, linop, nonlinear, oracle, sampler, schedule, tasks, verification


def report(num, name, passed, detail):
    line = f"criterion {num:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def test_criterion_01_pseudoinverse_penrose():
    t0 = time.time()
    rows = verification.suite_penrose(n_instances=20)
    worst = max(r.value for r in rows)
    elapsed = time.time() - t0
    report(
        1, "pseudoinverse penrose identities",
        all(r.passed for r in rows) and elapsed < 10.0,
        f"worst residual {worst:.2e} tol 1e-9, {elapsed:.1f}s < 10s",
    )


def test_criterion_02_forward_marginal_consistency():
    t0 = time.time()
    rows = verification.suite_marginals(n_traj=20_000, n_steps=2000)
    worst = max(r.value for r in rows)
    elapsed = time.time() - t0
    report(
        2, "forward SDE marginals match closed form",
        all(r.passed for r in rows) and elapsed < 120.0,
        f"worst rel err {worst:.4f} tol 0.05, {elapsed:.0f}s < 120s",
    )


def test_criterion_03_null_rate_identity():
    t0 = time.time()
    rows = verification.suite_g2(n_pairs=5, n_grid=1001)
    worst = max(r.value for r in rows)
    elapsed = time.time() - t0
    report(
        3, "null diffusion rate identity",
        all(r.passed for r in rows) and elapsed < 1.0,
        f"max residual {worst:.2e} tol 1e-8, {elapsed:.2f}s < 1s",
    )


def test_criterion_04_vanishing_diffusion_straight_path():
    t0 = time.time()
    rows = verification.suite_otode()
    elapsed = time.time() - t0
    report(
        4, "vanishing-diffusion null path",
        all(r.passed for r in rows) and elapsed < 5.0,
        f"deviation {rows[0].value:.2e} of path length, tol 0.01, {elapsed:.1f}s < 5s",
    )


def test_criterion_05_posterior_sampling():
    t0 = time.time()
    rows = verification.suite_posterior(n_chains=20_000, n_steps=1000)
    elapsed = time.time() - t0
    detail = "; ".join(f"{r.check} {r.value:.4f}/{r.tolerance}" for r in rows)
    report(
        5, "posterior moments (sb, vp, ve)",
        all(r.passed for r in rows) and elapsed < 300.0,
        f"{detail}, {elapsed:.0f}s < 300s",
    )


def test_criterion_06_score_decomposition():
    t0 = time.time()
    rng = np.random.default_rng(13)
    worst = 0.0
    for trial in range(100):
        d = int(rng.integers(2, 7))
        m = int(rng.integers(1, d + 1))
        sys = linop.build_dense_system(
            rng.standard_normal((m, d)), sigma_half=float(rng.uniform(0.2, 1.0))
        )
        half = rng.standard_normal((d, d)) / np.sqrt(d)
        prior = oracle.GaussianBelief(rng.standard_normal(d), half @ half.T + 0.5 * np.eye(d))
        spec = schedule.ScheduleSpec(("sb", "vp", "ve")[trial % 3])
        coeffs = schedule.evaluate(spec, float(rng.uniform(spec.t_min + 0.02, spec.t_max - 0.02)))
        x = rng.standard_normal(d)
        den = oracle.oracle_denoiser(prior, sys, coeffs)
        drift = sampler.score_drift(sys, coeffs, x, den(x))
        score = oracle.dense_score(prior, sys, coeffs, x)
        pinv_noise = sys.apply_pinv(sys.noise_scale(np.eye(m))).T
        nullp = np.eye(d) - linop.project_range(sys, np.eye(d)).T
        ggt = coeffs.dgamma_dt * pinv_noise @ pinv_noise.T + coeffs.gnull_sq * nullp
        worst = max(worst, float(np.max(np.abs(drift - ggt @ score))))
    elapsed = time.time() - t0
    report(
        6, "sampler drift equals diffusion times score",
        worst < 1e-8 and elapsed < 10.0,
        f"max abs diff {worst:.2e} tol 1e-8 over 100 tuples, {elapsed:.1f}s < 10s",
    )


def test_criterion_07_gradient_correctness():
    t0 = time.time()
    rows = verification.suite_gradients(n_points=20)
    elapsed = time.time() - t0
    report(
        7, "reverse-mode gradients vs finite differences",
        all(r.passed for r in rows) and elapsed < 30.0,
        f"max rel err {rows[0].value:.2e} tol 1e-4, {elapsed:.1f}s < 30s",
    )


@pytest.mark.slow
def test_criterion_08_end_to_end_mixture_learning():
    t0 = time.time()
    sys = linop.build_dense_system(np.array([[1.0, 0.0]]))
    spec = schedule.ScheduleSpec("sb", b0=0.25, b1=0.25)
    data = tasks.make_toy_dataset(
        "gaussian_mixture", 32_768, seed=5,
        weights=[0.5, 0.5],
        means=[np.array([0.0, 2.0]), np.array([0.0, -2.0])],
        covs=[0.25, 0.25],
    )
    net = dn.init_net(2, hidden=(128, 128), activation="silu", seed=1)
    tcfg = dn.TrainConfig(
        lr=1e-4, adam_beta1=0.9, adam_beta2=0.99, batch_size=8,
        n_epochs=192, seed=1, lr_milestones=(36, 60, 72, 90, 128, 160),
    )
    net, _ = dn.train(net, sys, spec, data, tcfg)

    cfg = sampler.SamplerConfig(n_steps=1000, spec=spec, seed=9)
    xs = sampler.sample(sys, cfg, np.array([0.0]), dn.as_denoiser(net), n_chains=10_000).final
    null = xs[:, 1]
    w_pos = float(np.mean(null > 0))
    m_pos = float(null[null > 0].mean())
    m_neg = float(null[null < 0].mean())
    elapsed = time.time() - t0
    ok = (
        abs(w_pos - 0.5) < 0.05
        and abs(m_pos - 2.0) < 0.15
        and abs(m_neg + 2.0) < 0.15
        and elapsed < 900.0
    )
    report(
        8, "trained bridge reproduces conditional mixture",
        ok,
        f"weight+ {w_pos:.3f} (0.5 +/- 0.05), means {m_pos:.3f}/{m_neg:.3f} "
        f"(+/-2 +/- 0.15), {elapsed:.0f}s < 900s",
    )


def test_criterion_09_noiseless_data_consistency():
    worst = 0.0
    for spec in (
        tasks.TaskSpec("inpainting", image_side=4, mask_fraction=0.5, seed=1),
        tasks.TaskSpec("superres", image_side=8, factor=4),
    ):
        sys = tasks.build_system(spec)
        rng = np.random.default_rng(3)
        x0 = rng.uniform(size=sys.d)
        y = sys.apply(x0)
        cfg = sampler.SamplerConfig(n_steps=100, spec=schedule.ScheduleSpec("sb"), seed=2)
        trace = sampler.sample(sys, cfg, y, lambda x, t: x, n_chains=32)
        resid = sys.apply(trace.final) - y
        worst = max(worst, float(np.max(np.abs(resid))))
    report(
        9, "noiseless samples reproduce the measurement",
        worst < 1e-9,
        f"max |A x - y| = {worst:.2e} tol 1e-9 over every sample",
    )


MISSPEC_INI = """
[run]
run_id = acceptance-misspec
output_dir = {out}

[task]
task = mri
image_side = 16
lambda1 = 16
lambda2 = 30
sigma2_sq = 0.001
seed = 4
dataset = field
field_scale = 3.0
field_amp = 0.1
n_train = 4096
data_seed = 21

[schedule]
variant = sb

[train]
lr = 0.001
batch_size = 8
n_epochs = 100
lr_milestones = 40,65,85
hidden = 256
seed = 2

[sample]
n_steps = 100

[eval]
param = lambda1
values = 16,14,12,10
n_draws = 200
seed = 77
"""


def _read_summary(path):
    rows = [r.split(",") for r in path.read_text().strip().splitlines()[1:]]
    means = np.array([float(r[1]) for r in rows])
    sds = np.array([float(r[2]) for r in rows])
    n = np.array([float(r[5]) for r in rows])
    return means, sds / np.sqrt(n)


@pytest.mark.slow
def test_criterion_10_misspecification_protocol(tmp_path):
    t0 = time.time()
    out = tmp_path / "mis"
    cfg = tmp_path / "mis.ini"
    cfg.write_text(MISSPEC_INI.format(out=out), encoding="utf-8")
    assert cli.main(["train", "--config", str(cfg)]) == 0
    ckpt = str(out / "checkpoint.ckpt")

    lam_dir = tmp_path / "lam"
    assert cli.main([
        "misspec", "--config", str(cfg), "--checkpoint", ckpt, "--output", str(lam_dir),
    ]) == 0
    lam_means, lam_ses = _read_summary(lam_dir / "misspec_summary.csv")

    noise_dir = tmp_path / "noise"
    assert cli.main([
        "misspec", "--config", str(cfg), "--checkpoint", ckpt,
        "--param", "noise_var", "--values", "0.001,0.0015,0.002", "--output", str(noise_dir),
    ]) == 0
    noise_means, _ = _read_summary(noise_dir / "misspec_summary.csv")

    inversions = 0
    monotone_ok = True
    for i in range(len(lam_means) - 1):
        if lam_means[i + 1] > lam_means[i]:
            slack = np.hypot(lam_ses[i], lam_ses[i + 1])
            if lam_means[i + 1] - lam_means[i] <= slack:
                inversions += 1
                if inversions > 1:
                    monotone_ok = False
            else:
                monotone_ok = False
    lam_drop = float(lam_means[0] - lam_means[-1])
    noise_drop = float(noise_means[0] - noise_means[-1])
    elapsed = time.time() - t0
    ok = monotone_ok and noise_drop < lam_drop and elapsed < 1200.0
    report(
        10, "misspecification protocol shape",
        ok,
        f"lambda1 sweep {np.round(lam_means, 2).tolist()} dB "
        f"({inversions} inversion(s) within 1 se), noise drop {noise_drop:.2f} "
        f"< lambda drop {lam_drop:.2f}, {elapsed:.0f}s < 1200s",
    )


def test_criterion_11_nonlinear_extension():
    # Jacobian accuracy
    nsys = nonlinear.sigmoid_contrast_system(8, k=4.0, a=0.5)
    rng = np.random.default_rng(6)
    x_hat = rng.uniform(0.2, 0.8, size=8)
    jac = nonlinear.jacobian_matrix(nsys, x_hat)
    h = 1e-6
    fd = np.zeros((8, 8))
    for j, e in enumerate(np.eye(8)):
        fd[:, j] = (nsys.apply(x_hat + h * e) - nsys.apply(x_hat - h * e)) / (2 * h)
    denom = np.maximum(np.abs(fd), 1e-12)
    jac_rel = float(np.max(np.abs(jac - fd)[np.abs(fd) > 1e-8] / denom[np.abs(fd) > 1e-8]))

    # gradient-descent estimate halves the residual in five iterations
    x_true = rng.uniform(0.2, 0.8, size=8)
    y = nsys.apply(x_true)
    x0_resid = float(np.sum((nsys.apply(np.zeros(8)) - y) ** 2))
    x_mle = nonlinear.mle_init(nsys, y, n_iters=5, step=0.5)
    mle_resid = float(np.sum((nsys.apply(x_mle) - y) ** 2))

    # reduced pipeline on an affine operator is bit-identical to direct
    a = rng.standard_normal((2, 4))
    x_lin = rng.standard_normal(4)
    y_lin = a @ x_lin
    direct = linop.build_dense_system(a, kind="linearized")
    reduced_sys, reduced_y, _ = nonlinear.localize(nonlinear.affine_system(a), y_lin)
    spec = schedule.ScheduleSpec("sb")
    cfg = sampler.SamplerConfig(n_steps=60, spec=spec, seed=5)
    out_direct = sampler.sample(direct, cfg, y_lin, lambda x, t: x).final
    out_reduced = sampler.sample(reduced_sys, cfg, reduced_y, lambda x, t: x).final
    identical = out_direct.tobytes() == out_reduced.tobytes()

    ok = jac_rel < 1e-6 and mle_resid <= 0.5 * x0_resid and identical
    report(
        11, "nonlinear extension",
        ok,
        f"jacobian rel err {jac_rel:.2e} tol 1e-6, residual ratio "
        f"{mle_resid / x0_resid:.3f} <= 0.5, affine pipeline bit-identical: {identical}",
    )


DETERMINISM_INI = """
[run]
run_id = acceptance-determinism
output_dir = {out}

[task]
task = inpainting
image_side = 4
mask_fraction = 0.25
seed = 3
dataset = point
point_value = 0.6
n_train = 8

[schedule]
variant = vp

[train]
lr = 0.005
batch_size = 2
n_epochs = 30
lr_milestones = 10,20
hidden = 8

[sample]
n_steps = 80
n_samples = 4
"""


def test_criterion_12_cli_determinism(tmp_path):
    blobs = {"loss": [], "metrics": []}
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = tmp_path / f"{tag}.ini"
        cfg.write_text(DETERMINISM_INI.format(out=out), encoding="utf-8")
        assert cli.main(["train", "--config", str(cfg)]) == 0
        blobs["loss"].append((out / "loss.csv").read_bytes())
        sample_out = tmp_path / f"{tag}-s"
        assert cli.main([
            "sample", "--config", str(cfg), "--checkpoint", str(out / "checkpoint.ckpt"),
            "--simulate", "--output", str(sample_out),
        ]) == 0
        blobs["metrics"].append((sample_out / "metrics.csv").read_bytes())
    ok = blobs["loss"][0] == blobs["loss"][1] and blobs["metrics"][0] == blobs["metrics"][1]
    report(
        12, "byte-identical CSVs across reruns",
        ok,
        f"loss.csv identical: {blobs['loss'][0] == blobs['loss'][1]}, "
        f"metrics.csv identical: {blobs['metrics'][0] == blobs['metrics'][1]}",
    )
