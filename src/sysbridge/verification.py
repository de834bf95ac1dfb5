"""Named verification suites with fixed seeds.

Each suite takes no arguments and returns CheckResult rows (suite, check,
value, tolerance, status); `SUITES` maps each suite name to its function.
The command-line ``verify`` subcommand prints them as CSV and the acceptance
tests assert on them, so the checked quantities, their sizes and their
tolerances live in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from . import denoiser as dn
from . import forward, linop, oracle, sampler, schedule, tasks


@dataclass
class CheckResult:
    suite: str
    check: str
    value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.value < self.tolerance

    @property
    def status(self) -> str:
        return "pass" if self.passed else "FAIL"


class _ZeroRng:
    """Stand-in generator producing zero draws (noise-free trajectories)."""

    def standard_normal(self, shape=None):
        return np.zeros(shape if shape is not None else ())


def _penrose_instances(kind: str, index: int):
    rng = np.random.default_rng(1000 + 17 * index)
    if kind == "dense":
        m = int(rng.integers(1, 24))
        d = int(rng.integers(1, 24))
        return linop.build_dense_system(rng.standard_normal((m, d)))
    if kind == "mask":
        side = int(rng.choice([4, 8, 12, 16]))
        frac = float(rng.uniform(0.1, 0.9))
        return tasks.build_system(
            tasks.TaskSpec("inpainting", image_side=side, mask_fraction=frac, seed=index)
        )
    if kind == "avgpool":
        side, k = [(8, 2), (8, 4), (12, 2), (16, 4), (12, 3)][index % 5]
        return tasks.build_system(tasks.TaskSpec("superres", image_side=side, factor=k))
    if kind == "truncated_svd":
        side = int(rng.choice([4, 6, 8]))
        tau = float(rng.uniform(0.0, 0.5))
        return tasks.build_system(
            tasks.TaskSpec("ct", image_side=side, tau=tau, latent_dim=8, seed=index)
        )
    side = int(rng.choice([4, 8, 12, 16]))
    lam1 = float(rng.uniform(5, 40))
    lam2 = float(rng.uniform(0, 40))
    return tasks.build_system(
        tasks.TaskSpec("mri", image_side=side, lambda1_pct=lam1, lambda2_pct=lam2, seed=index)
    )


def suite_penrose() -> List[CheckResult]:
    """Four Penrose identities for every operator kind, materialized densely."""
    rows = []
    for kind in ("dense", "mask", "avgpool", "truncated_svd", "fourier_mask"):
        worst = 0.0
        for i in range(20):
            sys = _penrose_instances(kind, i)
            a = linop.materialize(sys)
            a_pinv = linop.materialize_pinv(sys)
            worst = max(worst, max(linop.penrose_residuals(a, a_pinv).values()))
        rows.append(CheckResult("penrose", kind, worst, 1e-9))
    return rows


def suite_g2() -> List[CheckResult]:
    """Null diffusion rate equals the defining rate for the sb variant."""
    rng = np.random.default_rng(7)
    rows = []
    for i in range(5):
        b0 = float(rng.uniform(0.01, 1.0))
        b1 = float(rng.uniform(0.01, 1.0))
        spec = schedule.ScheduleSpec("sb", b0=b0, b1=b1)
        grid = np.linspace(spec.t_min, spec.t_max, 1001)
        resid = schedule.verify_g2_identity(spec, grid)
        rows.append(CheckResult("g2", f"b0={b0:.3f};b1={b1:.3f}", resid, 1e-8))
    return rows


def suite_marginals() -> List[CheckResult]:
    """Simulated forward marginals match the closed form on a dense system."""
    rng = np.random.default_rng(3)
    d = 4
    a = rng.standard_normal((d, d))
    sys = linop.build_dense_system(a, sigma_half=0.1)
    x0 = rng.standard_normal(d)
    rows = []
    for variant in schedule.VARIANTS:
        spec = schedule.ScheduleSpec(variant)
        checks = [0.2, 0.5, 0.8, spec.t_max]
        x0b = np.broadcast_to(x0, (20000, d)).copy()
        _, rec = forward.simulate_forward_sde(
            sys, spec, x0b, 2000, np.random.default_rng(99), checkpoint_times=checks
        )
        for t in checks:
            xs = rec[t]
            ana = oracle.analytic_marginal(sys, schedule.evaluate(spec, t), x0)
            mean_err = np.linalg.norm(xs.mean(axis=0) - ana.mean) / max(
                np.linalg.norm(ana.mean), 1e-12
            )
            cov_err = np.linalg.norm(np.cov(xs.T) - ana.cov) / np.linalg.norm(ana.cov)
            rows.append(
                CheckResult("marginals", f"{variant};t={t:.4f}", max(mean_err, cov_err), 0.05)
            )
    return rows


def posterior_problem():
    """Fixed random conjugate-Gaussian toy: d=4, m=2, scalar noise 0.25 I."""
    rng = np.random.default_rng(42)
    d, m = 4, 2
    a = rng.standard_normal((m, d))
    sys = linop.build_dense_system(a, sigma_half=0.5)
    mu0 = rng.standard_normal(d)
    c_half = rng.standard_normal((d, d)) / np.sqrt(d)
    c0 = c_half @ c_half.T + 0.5 * np.eye(d)
    prior = oracle.GaussianBelief(mu0, c0)
    x_true = rng.multivariate_normal(mu0, c0)
    y = a @ x_true + 0.5 * rng.standard_normal(m)
    return sys, prior, y


def suite_posterior() -> List[CheckResult]:
    """Reverse sampling with the exact denoiser hits the conjugate posterior."""
    sys, prior, y = posterior_problem()
    post = oracle.gaussian_posterior(prior, sys, y)
    rows = []
    for variant, kw in (
        ("sb", {"eps2": 1e-6}),
        ("vp", {"eps2": 1e-6}),
        ("ve", {"sigma_max": 50.0, "eps2": 1e-8}),
    ):
        spec = schedule.ScheduleSpec(variant, **kw)
        den = oracle.oracle_denoiser(prior, sys, spec)
        cfg = sampler.SamplerConfig(n_steps=1000, spec=spec, seed=123, time_grid="stiffness")
        xs = sampler.sample(sys, cfg, np.tile(y, (20000, 1)), den).final
        mean_err = np.linalg.norm(xs.mean(axis=0) - post.mean) / np.linalg.norm(post.mean)
        cov_err = np.linalg.norm(np.cov(xs.T) - post.cov) / np.linalg.norm(post.cov)
        rows.append(CheckResult("posterior", f"{variant};mean", mean_err, 0.02))
        rows.append(CheckResult("posterior", f"{variant};cov", cov_err, 0.05))
    return rows


def suite_gradients() -> List[CheckResult]:
    """Reverse-mode parameter gradients against central finite differences."""
    d = 6
    sys = linop.build_dense_system(
        np.random.default_rng(5).standard_normal((3, d)), sigma_half=0.2
    )
    spec = schedule.ScheduleSpec("vp")
    net = dn.init_net(d, hidden=(16, 12), activation="silu", seed=11)
    params = net.parameters()
    point_rng = np.random.default_rng(21)
    worst = 0.0
    done = 0
    h = 1e-5  # central-difference step
    while done < 20:
        x0 = point_rng.standard_normal(d)
        t = point_rng.uniform(spec.t_min, spec.t_max)
        noise_seed = int(point_rng.integers(0, 2 ** 31))
        coeffs = schedule.evaluate(spec, t)

        def loss_at(seed=noise_seed, c=coeffs, x=x0):
            return dn.loss_and_grad(net, sys, c, x, np.random.default_rng(seed))

        _, grads = loss_at()
        # keep clear of the L1 kink: residual entries must not sit near zero
        noise = linop.draw_noise(sys, np.random.default_rng(noise_seed), (1, d))
        x_t = forward.forward_sample(sys, coeffs, np.atleast_2d(x0), noise)
        resid = dn.forward_denoise(net, x_t, coeffs.t) - x0
        if float(np.min(np.abs(resid))) < 1e-3:
            continue
        done += 1
        for p, g in zip(params, grads):
            flat_idx = np.ndindex(p.shape)
            for idx in flat_idx:
                orig = p[idx]
                p[idx] = orig + h
                lp, _ = loss_at()
                p[idx] = orig - h
                lm, _ = loss_at()
                p[idx] = orig
                fd = (lp - lm) / (2 * h)
                rel = abs(g[idx] - fd) / max(abs(fd), 1e-6)
                worst = max(worst, rel)
    return [CheckResult("gradients", "reverse_mode_vs_fd", worst, 1e-4)]


def suite_otode() -> List[CheckResult]:
    """Vanishing-diffusion null trajectory follows the alpha interpolation."""
    spec = schedule.ScheduleSpec("sb", b0=1e-4, b1=1e-4)
    sys = linop.build_dense_system(np.array([[1.0, 0.0]]))
    x0 = np.array([0.7, -1.3])
    y = sys.apply(x0)
    cfg = sampler.SamplerConfig(n_steps=500, spec=spec, seed=0, keep_every=1)
    trace = sampler.sample(sys, cfg, y, lambda x, t: np.broadcast_to(x0, x.shape), rng=_ZeroRng())
    null_target = linop.project_null(sys, x0)
    path_len = float(np.linalg.norm(null_target))
    worst = 0.0
    for state in trace.states:
        coeffs = schedule.evaluate(spec, state.t)
        ref = coeffs.alpha * null_target
        dev = float(np.linalg.norm(linop.project_null(sys, state.x) - ref))
        worst = max(worst, dev / path_len)
    return [CheckResult("otode", "null_path_deviation", worst, 0.01)]


SUITES = {
    "penrose": suite_penrose,
    "marginals": suite_marginals,
    "g2": suite_g2,
    "posterior": suite_posterior,
    "gradients": suite_gradients,
    "otode": suite_otode,
}
