"""Forward corruption: one-shot sampling, marginals, SDE consistency."""

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from sysbridge import forward, linop, oracle, schedule
from sysbridge.errors import DivergenceError


def mask_system(sigma=0.0):
    return linop.build_dense_system(np.array([[1.0, 0.0]]), sigma_half=sigma)


@dataclass(frozen=True)
class DriftDiffusion:
    """Matrix-free drift and diffusion actions of the forward SDE at one time.

    The term-by-term reference for the fused SDE step.  apply_F annihilates
    range-space vectors: the drift acts only on the null space.  The two
    half-diffusion maps produce the range and null noise contributions from
    independent standard normal draws.
    """

    apply_F: Callable[[np.ndarray], np.ndarray]
    apply_GGT_half_range: Callable[[np.ndarray], np.ndarray]
    apply_GGT_half_null: Callable[[np.ndarray], np.ndarray]


def drift_diffusion(sys, coeffs) -> DriftDiffusion:
    """Operator bundle for the SDE at coeffs.t, each action spelled out."""
    gnull, root_dgamma = np.sqrt(coeffs.gnull_sq), np.sqrt(coeffs.dgamma_dt)

    def apply_F(x):
        return coeffs.dlog_alpha_dt * linop.project_null(sys, x)

    def apply_GGT_half_range(eps):
        return root_dgamma * sys.apply_pinv(sys.noise_scale(eps))

    def apply_GGT_half_null(eps):
        return gnull * linop.project_null(sys, eps)

    return DriftDiffusion(apply_F, apply_GGT_half_range, apply_GGT_half_null)


class TestForwardSample:
    def test_noiseless_range_exact(self):
        sys = mask_system(sigma=0.0)
        spec = schedule.ScheduleSpec("vp")
        x0 = np.array([1.5, -0.5])
        noise = linop.draw_noise(sys, np.random.default_rng(0), x0.shape)
        for t in (0.1, 0.5, 0.9):
            x_t = forward.forward_sample(sys, schedule.evaluate(spec, t), x0, noise)
            np.testing.assert_allclose(
                linop.project_range(sys, x_t), [1.5, 0.0], atol=1e-12
            )

    def test_pure_null_terminal_is_standard_gaussian(self):
        # alpha ~ 0, beta ~ 1 at the vp terminal: state is unit noise
        sys = linop.build_dense_system(np.zeros((1, 3)))
        spec = schedule.ScheduleSpec("vp")
        coeffs = schedule.evaluate(spec, spec.t_max)
        noise = linop.draw_noise(sys, np.random.default_rng(1), (50_000, 3))
        xs = forward.forward_sample(sys, coeffs, np.zeros((50_000, 3)), noise)
        assert abs(xs.mean()) < 0.02
        assert abs(xs.var() - coeffs.beta) < 0.02

    def test_range_noise_variance(self):
        sys = linop.build_dense_system(np.eye(3), sigma_half=2.0)
        spec = schedule.ScheduleSpec("vp")
        coeffs = schedule.evaluate(spec, 0.0625)  # gamma = 0.25
        noise = linop.draw_noise(sys, np.random.default_rng(2), (100_000, 3))
        xs = forward.forward_sample(sys, coeffs, np.zeros((100_000, 3)), noise)
        assert coeffs.gamma == pytest.approx(0.25)
        np.testing.assert_allclose(xs.var(axis=0), 0.25 * 4.0, rtol=0.03)

    def test_affine_in_x0_for_fixed_draws(self):
        sys = mask_system()
        coeffs = schedule.evaluate(schedule.ScheduleSpec("sb"), 0.4)
        x1 = np.array([1.0, 2.0])
        x2 = np.array([-0.3, 0.7])
        noise = linop.draw_noise(sys, np.random.default_rng(7), x1.shape)
        out = {}
        for name, x in (("x1", x1), ("x2", x2), ("sum", x1 + x2), ("zero", 0 * x1)):
            out[name] = forward.forward_sample(sys, coeffs, x, noise)
        np.testing.assert_allclose(
            out["x1"] + out["x2"] - out["zero"], out["sum"], atol=1e-12
        )


class TestFusedUpdate:
    """Forward draw and SDE step against their term-by-term transcriptions."""

    def system(self, seed):
        rng = np.random.default_rng(seed)
        return linop.build_dense_system(rng.standard_normal((2, 4)), sigma_half=0.4), rng

    def test_forward_sample(self):
        sys, rng = self.system(11)
        x0 = rng.standard_normal((6, 4))
        for variant in ("sb", "vp", "ve"):
            coeffs = schedule.evaluate(schedule.ScheduleSpec(variant), 0.3)
            noise = linop.draw_noise(sys, np.random.default_rng(5), x0.shape)
            out = forward.forward_sample(sys, coeffs, x0, noise)
            expected = (
                oracle.analytic_marginal(sys, coeffs, x0).mean
                + np.sqrt(coeffs.gamma) * sys.apply_pinv(sys.noise_scale(noise.eps))
                + np.sqrt(coeffs.beta) * linop.project_null(sys, noise.z)
            )
            np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    def test_sde_step(self):
        sys, rng = self.system(12)
        x0 = rng.standard_normal((6, 4))
        spec = schedule.ScheduleSpec("sb")
        dt = spec.t_max - spec.t_min
        coeffs = schedule.evaluate(spec, spec.t_min)
        noise = linop.draw_noise(sys, np.random.default_rng(6), x0.shape)
        out = forward.sde_step(sys, coeffs, dt, x0, noise)
        dd = drift_diffusion(sys, coeffs)
        expected = x0 + dt * dd.apply_F(x0) + np.sqrt(dt) * (
            dd.apply_GGT_half_range(noise.eps) + dd.apply_GGT_half_null(noise.z)
        )
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)


class TestOperatorCalls:
    """One A and one A+ per forward draw and per forward-SDE step."""

    def test_forward_sample(self, counting):
        sys, calls = counting(linop.build_dense_system(np.ones((2, 3)), sigma_half=0.3))
        coeffs = schedule.evaluate(schedule.ScheduleSpec("sb"), 0.4)
        noise = linop.draw_noise(sys, np.random.default_rng(0), (5, 3))
        forward.forward_sample(sys, coeffs, np.ones((5, 3)), noise)
        assert calls == {"apply": 1, "apply_pinv": 1}

    def test_forward_sde_step(self, counting):
        sys, calls = counting(mask_system(sigma=0.5))
        spec = schedule.ScheduleSpec("vp")
        noise = linop.draw_noise(sys, np.random.default_rng(0), (5, 2))
        forward.sde_step(sys, schedule.evaluate(spec, 0.3), 0.01, np.ones((5, 2)), noise)
        assert calls == {"apply": 1, "apply_pinv": 1}
        # six steps after the exact start: one forward draw and six steps
        forward.simulate_forward_sde(sys, spec, np.ones((5, 2)), 6, np.random.default_rng(0))
        assert calls == {"apply": 1 + 7, "apply_pinv": 1 + 7}


class TestAnalyticMarginal:
    def test_identity_noiseless(self):
        sys = linop.build_dense_system(np.eye(3))
        coeffs = schedule.evaluate(schedule.ScheduleSpec("vp"), 0.5)
        x0 = np.array([1.0, 2.0, 3.0])
        bel = oracle.analytic_marginal(sys, coeffs, x0)
        np.testing.assert_allclose(bel.mean, x0)
        np.testing.assert_allclose(bel.cov, np.zeros((3, 3)), atol=1e-12)

    def test_mask_hand_values(self):
        # alpha = 0.5, beta = 0.25 at hand-picked coefficients
        sys = mask_system()
        coeffs = schedule.ScheduleCoeffs(
            t=0.3, alpha=0.5, beta=0.25, gamma=0.1,
            dalpha_dt=-1.0, dbeta_dt=0.5, dgamma_dt=0.5,
            dlog_alpha_dt=-2.0, gnull_sq=0.5, f_range=5.0, f_null=2.0,
        )
        x0 = np.array([2.0, 4.0])
        bel = oracle.analytic_marginal(sys, coeffs, x0)
        np.testing.assert_allclose(bel.mean, [2.0, 2.0])
        np.testing.assert_allclose(bel.cov, np.diag([0.0, 0.25]), atol=1e-12)

    def test_range_covariance_with_dense_noise(self):
        sys = linop.build_dense_system(np.eye(2), sigma_half=np.diag([1.0, 2.0]))
        coeffs = schedule.evaluate(schedule.ScheduleSpec("vp"), 0.25)  # gamma = 0.5
        bel = oracle.analytic_marginal(sys, coeffs, np.zeros(2))
        np.testing.assert_allclose(bel.cov, np.diag([0.5, 2.0]), atol=1e-12)


class TestDriftDiffusion:
    def test_ve_drift_vanishes(self):
        sys = mask_system()
        coeffs = schedule.evaluate(schedule.ScheduleSpec("ve"), 0.5)
        dd = drift_diffusion(sys, coeffs)
        x = np.array([1.0, 5.0])
        np.testing.assert_allclose(dd.apply_F(x), np.zeros(2))

    def test_vp_drift_acts_on_null_only(self):
        sys = mask_system()
        coeffs = schedule.evaluate(schedule.ScheduleSpec("vp"), 0.5)
        dd = drift_diffusion(sys, coeffs)
        x = np.array([3.0, 7.0])
        np.testing.assert_allclose(dd.apply_F(x), [0.0, -2.0 * 7.0])

    def test_mean_map_reconstruction_via_ode(self):
        # integrating dH/dt = F H from the analytic start recovers the mean map
        rng = np.random.default_rng(5)
        sys = linop.build_dense_system(rng.standard_normal((2, 4)))
        spec = schedule.ScheduleSpec("vp")
        t0, t1 = 0.1, 0.9
        n = 20_000
        dt = (t1 - t0) / n
        h = oracle.analytic_marginal(sys, schedule.evaluate(spec, t0), np.eye(4)).mean.T
        for k in range(n):
            coeffs = schedule.evaluate(spec, t0 + k * dt)
            h = h + dt * coeffs.dlog_alpha_dt * (
                h - linop.project_range(sys, h.T).T
            )
        target = oracle.analytic_marginal(sys, schedule.evaluate(spec, t1), np.eye(4)).mean.T
        assert np.max(np.abs(h - target)) < 1e-4

    def test_commutation_of_drift_operators(self):
        # drift matrices at different times are multiples of one projector
        rng = np.random.default_rng(6)
        sys = linop.build_dense_system(rng.standard_normal((2, 5)))
        spec = schedule.ScheduleSpec("vp")
        eye = np.eye(5)
        nullp = eye - linop.project_range(sys, eye).T
        f1 = schedule.evaluate(spec, 0.3).dlog_alpha_dt * nullp
        f2 = schedule.evaluate(spec, 0.7).dlog_alpha_dt * nullp
        np.testing.assert_allclose(f1 @ f2, f2 @ f1, atol=1e-12)


class TestSimulator:
    def test_frozen_coefficients_single_step(self):
        # zero drift leaves the state mean unchanged across one noise step
        sys = mask_system()
        spec = schedule.ScheduleSpec("ve")  # dlog_alpha = 0: drift-free
        x0 = np.array([1.0, 2.0])
        noise = linop.draw_noise(sys, np.random.default_rng(0), (20_000, 2))
        xs = forward.sde_step(
            sys, schedule.evaluate(spec, spec.t_min), spec.t_max - spec.t_min,
            np.broadcast_to(x0, (20_000, 2)), noise,
        )
        np.testing.assert_allclose(xs.mean(axis=0), x0, atol=0.05 * 10)

    def test_null_terminal_variance_sb(self):
        # eps1 large enough that 1000 uniform steps resolve the terminal
        # drift -1/(1-t); at eps1 ~ dt the discretization inflates variance
        spec = schedule.ScheduleSpec("sb", b0=0.1, b1=0.1, eps1=0.05)
        sys = mask_system()
        x0 = np.zeros((20_000, 2))
        xs, _ = forward.simulate_forward_sde(sys, spec, x0, 1000, np.random.default_rng(1))
        beta_end = schedule.evaluate(spec, spec.t_max).beta
        assert xs[:, 1].var() == pytest.approx(beta_end, rel=0.05)

    def test_divergence_reports_step(self):
        sys = mask_system()
        spec = schedule.ScheduleSpec("vp")

        class BadRng:
            def standard_normal(self, shape=None):
                return np.full(shape, np.inf)

        with pytest.raises(DivergenceError) as err:
            forward.simulate_forward_sde(sys, spec, np.zeros(2), 10, BadRng())
        assert err.value.step == 0

    def test_marginal_consistency_rank_deficient(self):
        # null and range dynamics against the closed form at interior times
        rng = np.random.default_rng(3)
        sys = linop.build_dense_system(rng.standard_normal((2, 4)), sigma_half=0.1)
        x0 = rng.standard_normal(4)
        for variant in ("sb", "vp", "ve"):
            spec = schedule.ScheduleSpec(variant)
            checks = [0.2, 0.35, 0.5, 0.65, 0.8]
            _, rec = forward.simulate_forward_sde(
                sys, spec, np.broadcast_to(x0, (8000, 4)).copy(), 800,
                np.random.default_rng(99), checkpoint_times=checks,
            )
            for t in checks:
                ana = oracle.analytic_marginal(sys, schedule.evaluate(spec, t), x0)
                xs = rec[t]
                mean_err = np.linalg.norm(xs.mean(axis=0) - ana.mean) / np.linalg.norm(ana.mean)
                cov_err = np.linalg.norm(np.cov(xs.T) - ana.cov) / np.linalg.norm(ana.cov)
                assert mean_err < 0.08 and cov_err < 0.08, (variant, t)

    def test_range_null_cross_independence(self):
        sys = mask_system(sigma=1.0)
        coeffs = schedule.evaluate(schedule.ScheduleSpec("vp"), 0.5)
        noise = linop.draw_noise(sys, np.random.default_rng(4), (100_000, 2))
        xs = forward.forward_sample(sys, coeffs, np.zeros((100_000, 2)), noise)
        r = xs[:, 0]
        n = xs[:, 1]
        cross = np.mean(r * n) - r.mean() * n.mean()
        se = r.std() * n.std() / np.sqrt(len(r))
        assert abs(cross) < 3 * se
