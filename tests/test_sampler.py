"""Reverse sampler: initializer, single steps, data consistency."""

import numpy as np
import pytest

from sysbridge import forward, linop, oracle, sampler, schedule
from sysbridge.verification import posterior_problem
from sysbridge.errors import DimensionError


def mask_system(sigma=0.0):
    return linop.build_dense_system(np.array([[1.0, 0.0]]), sigma_half=sigma)


class TestInitialize:
    def test_identity_system_no_noise_added(self):
        sys = linop.identity_system(3)
        spec = schedule.ScheduleSpec("vp")
        y = np.array([1.0, -2.0, 0.3])
        state = sampler.initialize(sys, spec, y, np.random.default_rng(0))
        np.testing.assert_allclose(state.x, y, atol=1e-12)
        assert state.t == spec.t_max

    def test_mask_null_noise_scale(self):
        sys = mask_system()
        spec = schedule.ScheduleSpec("vp")
        beta = schedule.evaluate(spec, spec.t_max).beta
        rng = np.random.default_rng(1)
        ys = np.full((100_000, 1), 3.0)
        state = sampler.initialize(sys, spec, ys, rng)
        np.testing.assert_allclose(state.x[:, 0], 3.0, atol=1e-12)
        assert state.x[:, 1].mean() == pytest.approx(0.0, abs=0.02)
        assert state.x[:, 1].var() == pytest.approx(beta, rel=0.03)

    def test_ve_noise_scale(self):
        sys = mask_system()
        spec = schedule.ScheduleSpec("ve", sigma_max=10.0)
        rng = np.random.default_rng(2)
        ys = np.zeros((50_000, 1))
        state = sampler.initialize(sys, spec, ys, rng)
        expected_std = np.sqrt(10.0) * (1.0 - spec.eps1) ** 0.25
        assert state.x[:, 1].std() == pytest.approx(expected_std, rel=0.03)

    def test_dimension_mismatch(self):
        sys = mask_system()
        with pytest.raises(DimensionError):
            sampler.initialize(sys, schedule.ScheduleSpec("vp"), np.zeros(2), np.random.default_rng(0))


class TestReverseStep:
    def test_zero_dt_only_locks(self):
        sys = mask_system()
        coeffs = schedule.evaluate(schedule.ScheduleSpec("vp"), 0.5)
        state = forward.ProcessState(x=np.array([1.0, 2.0]), t=0.5)
        out = sampler.reverse_step(sys, coeffs, state, np.zeros(2), 0.0, np.random.default_rng(0))
        np.testing.assert_allclose(out.x, state.x)
        assert out.t == 0.5

    def test_stationary_when_denoised_matches(self):
        # identity system, no noise, denoised == x: drift vanishes entirely
        sys = linop.identity_system(2)
        coeffs = schedule.evaluate(schedule.ScheduleSpec("vp"), 0.5)
        x = np.array([0.4, -1.2])
        state = forward.ProcessState(x=x.copy(), t=0.5)
        out = sampler.reverse_step(sys, coeffs, state, x.copy(), 0.01, np.random.default_rng(0))
        np.testing.assert_allclose(out.x, x, atol=1e-12)

    def test_matches_dense_transcription(self):
        # one step against an explicit dense-matrix evaluation of the update
        sys = mask_system(sigma=0.5)
        spec = schedule.ScheduleSpec("vp")
        t, dt = 0.5, 1e-3
        coeffs = schedule.evaluate(spec, t)
        x = np.array([0.8, -0.6])
        denoised = np.array([0.5, 0.25])
        seed = 31
        out = sampler.reverse_step(
            sys, coeffs, forward.ProcessState(x=x.copy(), t=t), denoised, dt,
            np.random.default_rng(seed),
        )

        a = np.array([[1.0, 0.0]])
        a_pinv = a.T
        proj = a_pinv @ a
        nullp = np.eye(2) - proj
        h = proj + coeffs.alpha * nullp
        rng = np.random.default_rng(seed)
        eps = rng.standard_normal(1)
        eps_null = rng.standard_normal(2)
        f_term = coeffs.f_range * proj + (coeffs.f_null - 2 * coeffs.dlog_alpha_dt) * nullp
        drift = f_term @ (h @ denoised - x) - coeffs.dlog_alpha_dt * (nullp @ x)
        noise = (
            np.sqrt(coeffs.dgamma_dt) * (a_pinv * 0.5) @ eps
            + np.sqrt(coeffs.gnull_sq) * nullp @ eps_null
        )
        expected = x + dt * drift + np.sqrt(dt) * noise
        np.testing.assert_allclose(out.x, expected, atol=1e-12)


def transcribed_step(sys, coeffs, x, denoised, dt, rng, locked_range=None):
    """The reverse step written out term by term with separate projections."""
    noisy = not sys.noise_is_zero
    drift = sampler.score_drift(sys, coeffs, x, denoised, include_range=noisy)
    drift = drift - coeffs.dlog_alpha_dt * linop.project_null(sys, x)
    noise = np.zeros_like(x)
    if noisy and coeffs.dgamma_dt > 0:
        eps = rng.standard_normal(x.shape[:-1] + (sys.m,))
        noise = noise + np.sqrt(coeffs.dgamma_dt) * sys.apply_pinv(sys.noise_scale(eps))
    eps_null = rng.standard_normal(x.shape)
    noise = noise + np.sqrt(max(coeffs.gnull_sq, 0.0)) * linop.project_null(sys, eps_null)
    x_new = x + dt * drift + np.sqrt(dt) * noise
    if locked_range is not None:
        x_new = locked_range + linop.project_null(sys, x_new)
    return x_new


class TestFusedStep:
    """The fused update against its term-by-term transcription, same seed."""

    def check(self, sys, coeffs, x, denoised, dt, seed, locked_range=None):
        out = sampler.reverse_step(
            sys, coeffs, forward.ProcessState(x=x.copy(), t=coeffs.t), denoised, dt,
            np.random.default_rng(seed), locked_range,
        )
        expected = transcribed_step(
            sys, coeffs, x, denoised, dt, np.random.default_rng(seed), locked_range
        )
        np.testing.assert_allclose(out.x, expected, rtol=0, atol=1e-12)

    def test_random_noisy_dense_systems(self):
        rng = np.random.default_rng(8)
        for trial in range(30):
            d = int(rng.integers(2, 9))
            m = int(rng.integers(1, d + 1))
            noise = float(rng.uniform(0.1, 1.0)) if trial % 2 else np.diag(rng.uniform(0.1, 1.0, m))
            sys = linop.build_dense_system(rng.standard_normal((m, d)), sigma_half=noise)
            spec = schedule.ScheduleSpec(("sb", "vp", "ve")[trial % 3])
            coeffs = schedule.evaluate(spec, float(rng.uniform(spec.t_min + 0.05, spec.t_max - 0.05)))
            x = rng.standard_normal((5, d))
            self.check(sys, coeffs, x, rng.standard_normal((5, d)), float(rng.uniform(0, 0.02)), trial)

    def test_noiseless_mask_with_lock(self):
        rng = np.random.default_rng(9)
        mask = np.repeat(np.eye(6), [1, 0, 1, 1, 0, 1], axis=0)
        sys = linop.build_dense_system(mask)
        x = rng.standard_normal((4, 6))
        locked = linop.project_range(sys, rng.standard_normal((4, 6)))
        for variant in ("sb", "vp", "ve"):
            coeffs = schedule.evaluate(schedule.ScheduleSpec(variant), 0.6)
            self.check(sys, coeffs, x, rng.standard_normal((4, 6)), 0.01, 1, locked)
            self.check(sys, coeffs, x, rng.standard_normal((4, 6)), 0.01, 2)

    def test_zero_dt(self):
        rng = np.random.default_rng(10)
        coeffs = schedule.evaluate(schedule.ScheduleSpec("vp"), 0.5)
        x = rng.standard_normal(2)
        self.check(mask_system(sigma=0.5), coeffs, x, rng.standard_normal(2), 0.0, 3)
        self.check(mask_system(), coeffs, x, rng.standard_normal(2), 0.0, 3)
        self.check(mask_system(), coeffs, x, rng.standard_normal(2), 0.0, 3, np.array([0.7, 0.0]))


class TestOperatorCalls:
    """One A and one A+ per update."""

    def test_reverse_step_noisy(self, counting):
        sys, calls = counting(linop.build_dense_system(np.ones((2, 3)), sigma_half=0.3))
        coeffs = schedule.evaluate(schedule.ScheduleSpec("sb"), 0.5)
        state = forward.ProcessState(x=np.ones((4, 3)), t=0.5)
        sampler.reverse_step(sys, coeffs, state, np.zeros((4, 3)), 0.01, np.random.default_rng(0))
        assert calls == {"apply": 1, "apply_pinv": 1}

    def test_reverse_step_noiseless_with_lock(self, counting):
        sys, calls = counting(mask_system())
        coeffs = schedule.evaluate(schedule.ScheduleSpec("sb"), 0.5)
        state = forward.ProcessState(x=np.ones((4, 2)), t=0.5)
        sampler.reverse_step(
            sys, coeffs, state, np.zeros((4, 2)), 0.01, np.random.default_rng(0), np.array([1.0, 0.0])
        )
        assert calls == {"apply": 1, "apply_pinv": 1}

    def test_sample_two_per_step(self, counting):
        # the chain start takes two and the range lock, A+ y, one; then two a step
        sys, calls = counting(mask_system())
        cfg = sampler.SamplerConfig(n_steps=7, spec=schedule.ScheduleSpec("sb"), seed=0)
        sampler.sample(sys, cfg, np.array([0.5]), lambda x, t: x)
        assert calls == {"apply": 1 + 7, "apply_pinv": 2 + 7}


class TestScoreDecomposition:
    def test_drift_equals_diffusion_times_score(self):
        # the denoiser-based drift is G G^T times the exact marginal score
        rng = np.random.default_rng(4)
        for trial in range(25):
            d = int(rng.integers(2, 7))
            m = int(rng.integers(1, d + 1))
            a = rng.standard_normal((m, d))
            sigma = float(rng.uniform(0.2, 1.0))
            sys = linop.build_dense_system(a, sigma_half=sigma)
            half = rng.standard_normal((d, d)) / np.sqrt(d)
            prior = oracle.GaussianBelief(
                rng.standard_normal(d), half @ half.T + 0.5 * np.eye(d)
            )
            variant = ("sb", "vp", "ve")[trial % 3]
            spec = schedule.ScheduleSpec(variant)
            t = float(rng.uniform(spec.t_min + 0.05, spec.t_max - 0.05))
            coeffs = schedule.evaluate(spec, t)
            x = rng.standard_normal(d)
            den = oracle.oracle_denoiser(prior, sys, coeffs)
            drift = sampler.score_drift(sys, coeffs, x, den(x))

            score = oracle.dense_score(prior, sys, coeffs, x)
            pinv_noise = sys.apply_pinv(sys.noise_scale(np.eye(m))).T
            eye = np.eye(d)
            nullp = eye - linop.project_range(sys, eye).T
            ggt = coeffs.dgamma_dt * pinv_noise @ pinv_noise.T + coeffs.gnull_sq * nullp
            np.testing.assert_allclose(drift, ggt @ score, atol=1e-8)


class TestSample:
    def test_identity_noiseless_returns_measurement(self):
        sys = linop.identity_system(3)
        spec = schedule.ScheduleSpec("sb")
        y = np.array([0.3, 0.8, -0.5])
        for seed in (0, 1, 2):
            cfg = sampler.SamplerConfig(n_steps=50, spec=spec, seed=seed)
            trace = sampler.sample(sys, cfg, y, lambda x, t: np.zeros_like(x))
            np.testing.assert_allclose(trace.final, y, atol=1e-12)

    def test_single_step_smoke(self):
        sys = mask_system()
        cfg = sampler.SamplerConfig(n_steps=1, spec=schedule.ScheduleSpec("vp"), seed=0)
        trace = sampler.sample(sys, cfg, np.array([1.0]), lambda x, t: x)
        assert np.all(np.isfinite(trace.final))

    def test_noiseless_data_consistency(self):
        # every sample reproduces the measurement exactly through the operator
        rng = np.random.default_rng(5)
        sys = linop.build_dense_system(rng.standard_normal((2, 5)))
        spec = schedule.ScheduleSpec("sb")
        x_true = rng.standard_normal(5)
        y = sys.apply(x_true)
        cfg = sampler.SamplerConfig(n_steps=100, spec=spec, seed=3)
        trace = sampler.sample(sys, cfg, y, lambda x, t: x, n_chains=16)
        resid = sys.apply(trace.final) - y
        assert np.max(np.abs(resid)) < 1e-9

    def test_checkpoint_retention(self):
        sys = mask_system()
        cfg = sampler.SamplerConfig(
            n_steps=10, spec=schedule.ScheduleSpec("vp"), seed=0, keep_every=2
        )
        trace = sampler.sample(sys, cfg, np.array([0.5]), lambda x, t: x)
        assert len(trace.states) == 5
        assert trace.states[-1].t == pytest.approx(schedule.ScheduleSpec("vp").t_min)

    def test_posterior_moments_small_scale(self):
        # scaled-down version of the full posterior verification
        sys, prior, y = posterior_problem()
        post = oracle.gaussian_posterior(prior, sys, y)
        spec = schedule.ScheduleSpec("vp", eps2=1e-6)
        den = oracle.oracle_denoiser(prior, sys, spec)
        cfg = sampler.SamplerConfig(n_steps=400, spec=spec, seed=11, time_grid="stiffness")
        xs = sampler.sample(sys, cfg, y, den, n_chains=4000).final
        mean_err = np.linalg.norm(xs.mean(axis=0) - post.mean) / np.linalg.norm(post.mean)
        cov_err = np.linalg.norm(np.cov(xs.T) - post.cov) / np.linalg.norm(post.cov)
        assert mean_err < 0.05 and cov_err < 0.12

    def test_step_refinement_stability(self):
        # doubling the step count moves the output moments within MC noise
        sys, prior, y = posterior_problem()
        spec = schedule.ScheduleSpec("vp", eps2=1e-6)
        den = oracle.oracle_denoiser(prior, sys, spec)
        moments = []
        for n_steps in (500, 1000):
            cfg = sampler.SamplerConfig(n_steps=n_steps, spec=spec, seed=17, time_grid="stiffness")
            xs = sampler.sample(sys, cfg, y, den, n_chains=4000).final
            moments.append((xs.mean(axis=0), np.cov(xs.T)))
        dm = np.linalg.norm(moments[0][0] - moments[1][0])
        scale = np.sqrt(np.trace(moments[1][1]) / 4000)
        assert dm < 5 * scale

    def test_time_grid_modes(self):
        spec = schedule.ScheduleSpec("ve", sigma_max=10.0)
        uni = sampler.time_grid(spec, 100, "uniform")
        stf = sampler.time_grid(spec, 100, "stiffness")
        for grid in (uni, stf):
            assert grid[0] == pytest.approx(spec.t_max)
            assert grid[-1] == pytest.approx(spec.t_min)
            assert all(a > b for a, b in zip(grid, grid[1:]))
        # stiffness spacing resolves the small-time tail much more finely
        assert stf[-2] - stf[-1] < (uni[-2] - uni[-1]) / 10
