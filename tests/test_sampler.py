"""Reverse sampler: initializer, single steps, data consistency."""

import tracemalloc

import numpy as np
import pytest

from sysbridge import denoiser as dn
from sysbridge import forward, linop, oracle, sampler, schedule, tasks
from sysbridge.verification import posterior_problem
from sysbridge.errors import DimensionError, DivergenceError


def mask_system(sigma=0.0):
    return linop.build_dense_system(np.array([[1.0, 0.0]]), sigma_half=sigma)


class TestInitialize:
    def test_identity_system_no_noise_added(self):
        sys = linop.build_dense_system(np.eye(3))
        spec = schedule.ScheduleSpec("vp")
        y = np.array([1.0, -2.0, 0.3])
        x = sampler.initialize(sys, spec, y, np.random.default_rng(0).standard_normal(3))
        np.testing.assert_allclose(x, y, atol=1e-12)

    def test_mask_null_noise_scale(self):
        sys = mask_system()
        spec = schedule.ScheduleSpec("vp")
        beta = schedule.evaluate(spec, spec.t_max).beta
        ys = np.full((100_000, 1), 3.0)
        x = sampler.initialize(sys, spec, ys, np.random.default_rng(1).standard_normal((100_000, 2)))
        np.testing.assert_allclose(x[:, 0], 3.0, atol=1e-12)
        assert x[:, 1].mean() == pytest.approx(0.0, abs=0.02)
        assert x[:, 1].var() == pytest.approx(beta, rel=0.03)

    def test_ve_noise_scale(self):
        sys = mask_system()
        spec = schedule.ScheduleSpec("ve", sigma_max=10.0)
        ys = np.zeros((50_000, 1))
        x = sampler.initialize(sys, spec, ys, np.random.default_rng(2).standard_normal((50_000, 2)))
        expected_std = np.sqrt(10.0) * (1.0 - spec.eps1) ** 0.25
        assert x[:, 1].std() == pytest.approx(expected_std, rel=0.03)

    def test_dimension_mismatch(self):
        sys = mask_system()
        with pytest.raises(DimensionError):
            sampler.initialize(sys, schedule.ScheduleSpec("vp"), np.zeros(2), np.zeros(2))


class TestReverseStep:
    def test_zero_dt_only_locks(self):
        sys = mask_system()
        coeffs = schedule.evaluate(schedule.ScheduleSpec("vp"), 0.5)
        x = np.array([1.0, 2.0])
        out = sampler.reverse_step(
            sys, sampler.plan_step(coeffs, 0.0), x, np.zeros(2),
            linop.draw_noise(sys, np.random.default_rng(0), x.shape), np.array([1.0, 0.0]),
        )
        np.testing.assert_allclose(out, x)

    def test_stationary_when_denoised_matches(self):
        # identity system, no noise, denoised == x: drift vanishes entirely
        sys = linop.build_dense_system(np.eye(2))
        coeffs = schedule.evaluate(schedule.ScheduleSpec("vp"), 0.5)
        x = np.array([0.4, -1.2])
        step = sampler.plan_step(coeffs, 0.01)
        out = sampler.reverse_step(sys, step, x, x.copy(), linop.Noise(np.zeros(2)), x.copy())
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_noiseless_step_needs_locked_range(self):
        coeffs = schedule.evaluate(schedule.ScheduleSpec("vp"), 0.5)
        with pytest.raises(ValueError, match="locked_range"):
            sampler.reverse_step(
                mask_system(), sampler.plan_step(coeffs, 0.01), np.ones(2), np.zeros(2),
                linop.Noise(np.zeros(2)),
            )

    def test_matches_dense_transcription(self):
        # one step against an explicit dense-matrix evaluation of the update;
        # a one-row system is a partial isometry (kappa = 1), so its range
        # noise is the range part of the one signal-space draw
        sys = mask_system(sigma=0.5)
        spec = schedule.ScheduleSpec("vp")
        t, dt = 0.5, 1e-3
        coeffs = schedule.evaluate(spec, t)
        x = np.array([0.8, -0.6])
        denoised = np.array([0.5, 0.25])
        step = sampler.plan_step(coeffs, dt)
        z = np.random.default_rng(31).standard_normal(2)
        out = sampler.reverse_step(sys, step, x.copy(), denoised, linop.Noise(z))

        a = np.array([[1.0, 0.0]])
        a_pinv = a.T
        proj = a_pinv @ a
        nullp = np.eye(2) - proj
        h = proj + coeffs.alpha * nullp
        assert sys.kappa == 1.0
        f_term = coeffs.f_range * proj + (coeffs.f_null - 2 * coeffs.dlog_alpha_dt) * nullp
        drift = f_term @ (h @ denoised - x) - coeffs.dlog_alpha_dt * (nullp @ x)
        noise = (
            np.sqrt(coeffs.dgamma_dt) * 0.5 * proj @ z
            + np.sqrt(coeffs.gnull_sq) * nullp @ z
        )
        expected = x + dt * drift + np.sqrt(dt) * noise
        np.testing.assert_allclose(out, expected, atol=1e-12)


def transcribed_step(sys, coeffs, x, denoised, dt, draws, locked_range=None):
    """The reverse step written out term by term with separate projections.

    A partial isometry with scalar noise s I has no eps: its range noise is
    s sqrt(kappa) times the range part of the null-noise draw z."""
    gain = sys.range_noise_gain
    x_range = linop.project_range(sys, x)
    x_null = x - x_range
    d_range = linop.project_range(sys, denoised)
    d_null = denoised - d_range
    lam = coeffs.dlog_alpha_dt
    drift = (
        (coeffs.f_null - 2.0 * lam) * (coeffs.alpha * d_null - x_null)
        + coeffs.f_range * (d_range - x_range)
        - lam * x_null
    )
    noise = np.zeros_like(x)
    if draws.eps is not None:
        noise = noise + np.sqrt(coeffs.dgamma_dt) * sys.apply_pinv(sys.noise_scale(draws.eps))
    if gain is not None:
        noise = noise + np.sqrt(coeffs.dgamma_dt) * gain * linop.project_range(sys, draws.z)
    noise = noise + np.sqrt(coeffs.gnull_sq) * linop.project_null(sys, draws.z)
    x_new = x + dt * drift + np.sqrt(dt) * noise
    if locked_range is not None:
        x_new = locked_range + linop.project_null(sys, x_new)
    return x_new


class TestFusedStep:
    """The fused update against its term-by-term transcription, same draws."""

    def check(self, sys, coeffs, x, denoised, dt, seed, locked_range=None):
        draws = linop.draw_noise(sys, np.random.default_rng(seed), x.shape)
        out = sampler.reverse_step(
            sys, sampler.plan_step(coeffs, dt), x.copy(), denoised, draws, locked_range
        )
        expected = transcribed_step(sys, coeffs, x, denoised, dt, draws, locked_range)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

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

    def test_zero_dt(self):
        rng = np.random.default_rng(10)
        coeffs = schedule.evaluate(schedule.ScheduleSpec("vp"), 0.5)
        x = rng.standard_normal(2)
        self.check(mask_system(sigma=0.5), coeffs, x, rng.standard_normal(2), 0.0, 3)
        self.check(mask_system(), coeffs, x, rng.standard_normal(2), 0.0, 3, np.array([0.7, 0.0]))


class TestOperatorCalls:
    """One A and one A+ per update."""

    def test_reverse_step_noisy(self, counting):
        sys, calls = counting(linop.build_dense_system(np.ones((2, 3)), sigma_half=0.3))
        coeffs = schedule.evaluate(schedule.ScheduleSpec("sb"), 0.5)
        step = sampler.plan_step(coeffs, 0.01)
        noise = linop.draw_noise(sys, np.random.default_rng(0), (4, 3))
        sampler.reverse_step(sys, step, np.ones((4, 3)), np.zeros((4, 3)), noise)
        assert calls == {"apply": 1, "apply_pinv": 1}

    def test_reverse_step_noiseless_with_lock(self, counting):
        sys, calls = counting(mask_system())
        coeffs = schedule.evaluate(schedule.ScheduleSpec("sb"), 0.5)
        sampler.reverse_step(
            sys, sampler.plan_step(coeffs, 0.01), np.ones((4, 2)), np.zeros((4, 2)),
            linop.Noise(np.ones((4, 2))), np.array([1.0, 0.0]),
        )
        assert calls == {"apply": 1, "apply_pinv": 1}

    def test_sample_two_per_step(self, counting):
        # the chain start takes two and the range lock, A+ y, one; then two a step
        sys, calls = counting(mask_system())
        cfg = sampler.SamplerConfig(n_steps=7, spec=schedule.ScheduleSpec("sb"), seed=0)
        sampler.sample(sys, cfg, np.array([0.5]), lambda x, t: x)
        assert calls == {"apply": 1 + 7, "apply_pinv": 2 + 7}


# one system per kind of update noise: noiseless with the range lock, a
# noisy partial isometry (z only), a decaying spectrum and matrix noise (eps
# and z)
UPDATE_SYSTEMS = {
    "mask_lock": lambda: tasks.build_system(tasks.TaskSpec("inpainting", image_side=4, seed=1)),
    "mri": lambda: tasks.build_system(tasks.TaskSpec("mri", image_side=4, sigma2_sq=0.5, seed=2)),
    "ct": lambda: tasks.build_system(tasks.TaskSpec("ct", image_side=4, latent_dim=6, seed=3)),
    "dense_matrix_noise": lambda: linop.build_dense_system(
        np.random.default_rng(23).standard_normal((3, 6)), sigma_half=np.diag([0.2, 0.5, 0.9])
    ),
}


def _lock(sys, n):
    """The range lock of n chains on a noiseless system, else None."""
    if not sys.noise_is_zero:
        return None
    return linop.project_range(sys, np.random.default_rng(24).standard_normal((n, sys.d)))


class TestDrawsAreValues:
    @pytest.mark.parametrize("kind", sorted(UPDATE_SYSTEMS))
    def test_no_update_writes_its_draws(self, kind):
        sys = UPDATE_SYSTEMS[kind]()
        spec = schedule.ScheduleSpec("sb")
        coeffs = schedule.evaluate(spec, 0.4)
        rng = np.random.default_rng(25)
        x = rng.standard_normal((4, sys.d))
        noise = linop.draw_noise(sys, rng, x.shape)
        before = [a.copy() for a in noise if a is not None]
        sampler.initialize(sys, spec, sys.apply(x), noise.z)
        sampler.reverse_step(sys, sampler.plan_step(coeffs, 0.01), x, np.tanh(x), noise, _lock(sys, 4))
        forward.forward_sample(sys, coeffs, x, noise)
        forward.sde_step(sys, coeffs, 0.01, x, noise)
        after = [a for a in noise if a is not None]
        assert [a.tobytes() for a in after] == [a.tobytes() for a in before]


class TestAffineReadOff:
    """A reverse step is affine in its state, denoised estimate and draws:
    out = F x + G d + L z (+ M eps) + c, each map read off from basis inputs.
    The exact law of a chain with a Gaussian-prior denoiser rests on this."""

    @pytest.mark.parametrize("kind", sorted(UPDATE_SYSTEMS))
    @pytest.mark.parametrize("variant", schedule.VARIANTS)
    def test_step_equals_its_read_off(self, variant, kind):
        sys = UPDATE_SYSTEMS[kind]()
        d, m = sys.d, sys.m
        takes_eps = linop.draw_noise(sys, np.random.default_rng(0), (d,)).eps is not None
        plan = sampler._step_plan(schedule.ScheduleSpec(variant), 20, "stiffness")
        for step in (plan[0], plan[10], plan[-1]):

            def step_of(x, den, z, eps):
                noise = linop.Noise(z, eps if takes_eps else None)
                return sampler.reverse_step(sys, step, x, den, noise, _lock(sys, 1))

            zd, zm = np.zeros((d, d)), np.zeros((d, m))
            c = step_of(np.zeros((1, d)), np.zeros((1, d)), np.zeros((1, d)), np.zeros((1, m)))
            f = step_of(np.eye(d), zd, zd, zm) - c
            g = step_of(zd, np.eye(d), zd, zm) - c
            el = step_of(zd, zd, np.eye(d), zm) - c
            rng = np.random.default_rng(26)
            x, den, z = (rng.standard_normal((5, d)) for _ in range(3))
            eps = rng.standard_normal((5, m))
            expected = x @ f + den @ g + z @ el + c
            if takes_eps:
                zmd = np.zeros((m, d))
                expected += eps @ (step_of(zmd, zmd, zmd, np.eye(m)) - c)
            np.testing.assert_allclose(step_of(x, den, z, eps), expected, rtol=0, atol=1e-12)


def per_step_sample(sys, config, y, denoiser):
    """`sampler.sample` without the step plan: the grid, the coefficients
    and each `Step` computed step by step.  Returns (final, [(x, t) kept])."""
    spec = config.spec
    rng = np.random.default_rng(config.seed)
    x = sampler.initialize(sys, spec, y, rng.standard_normal(y.shape[:-1] + (sys.d,)))
    locked_range = sys.apply_pinv(y) if sys.noise_is_zero else None
    grid = sampler.time_grid(spec, config.n_steps, config.time_grid)
    kept = []
    for k in range(config.n_steps):
        t = grid[k]
        dt = t - grid[k + 1]
        step = sampler.plan_step(schedule.evaluate(spec, t), dt)
        denoised = denoiser(x, t)
        x = sampler.reverse_step(sys, step, x, denoised, linop.draw_noise(sys, rng, x.shape), locked_range)
        if config.keep_every and (k + 1) % config.keep_every == 0:
            kept.append((x.copy(), grid[k + 1]))
    return x, kept


def _noisy_dense(noise):
    rng = np.random.default_rng(21)
    a = rng.standard_normal((3, 6))
    if noise == "matrix":
        return linop.build_dense_system(a, sigma_half=np.diag(rng.uniform(0.1, 1.0, 3)))
    return linop.build_dense_system(a, sigma_half=0.3)


PLAN_SYSTEMS = {
    "noisy_scalar": lambda: _noisy_dense("scalar"),
    "noisy_matrix": lambda: _noisy_dense("matrix"),
    "mask_lock": lambda: linop.build_dense_system(np.eye(6)[[0, 2, 3, 5]]),
}


class TestStepPlan:
    """The cached step plan: same bytes as the per-step loop, one plan per
    (spec, n_steps, grid)."""

    @pytest.mark.parametrize("system", sorted(PLAN_SYSTEMS))
    @pytest.mark.parametrize("grid", sampler.TIME_GRIDS)
    @pytest.mark.parametrize("variant", schedule.VARIANTS)
    def test_bytes_equal_per_step_loop(self, variant, grid, system):
        sys = PLAN_SYSTEMS[system]()
        cfg = sampler.SamplerConfig(
            n_steps=30, spec=schedule.ScheduleSpec(variant), seed=4, keep_every=7, time_grid=grid
        )
        y = sys.apply(np.random.default_rng(22).standard_normal((5, 6)))

        def den(x, t):
            return np.tanh(x) * (1.0 - t)

        final, kept = per_step_sample(sys, cfg, y, den)
        for _ in range(2):  # building the plan, then reusing it
            trace = sampler.sample(sys, cfg, y, den)
            assert trace.final.tobytes() == final.tobytes()
            assert len(trace.states) == len(kept) == 4
            for state, (x, t) in zip(trace.states, kept):
                assert state.x.tobytes() == x.tobytes() and state.t == t

    def test_second_sample_evaluates_once(self, monkeypatch):
        calls = []
        real = sampler.evaluate

        def counted(spec, t):
            calls.append(t)
            return real(spec, t)

        monkeypatch.setattr(sampler, "evaluate", counted)
        cfg = sampler.SamplerConfig(n_steps=23, spec=schedule.ScheduleSpec("sb", b1=0.29), seed=0)
        sampler.sample(mask_system(), cfg, np.array([0.5]), lambda x, t: x)
        del calls[:]
        sampler.sample(mask_system(), cfg, np.array([0.5]), lambda x, t: x)
        assert len(calls) <= 1  # the chain start's, not n_steps + 1

    def test_distinct_plans(self):
        sb, vp = schedule.ScheduleSpec("sb"), schedule.ScheduleSpec("vp")
        plan = sampler._step_plan(sb, 10, "uniform")
        assert sampler._step_plan(sb, 10, "uniform") is plan
        others = [
            sampler._step_plan(vp, 10, "uniform"),
            sampler._step_plan(sb, 11, "uniform"),
            sampler._step_plan(sb, 10, "stiffness"),
        ]
        for other in others:
            assert other != plan
        assert [s.denoised_gain for s in plan] != [s.denoised_gain for s in others[0]]
        assert len(others[1]) == 11
        assert [s.t for s in plan] != [s.t for s in others[2]]

    @pytest.mark.parametrize("grid", sampler.TIME_GRIDS)
    @pytest.mark.parametrize("variant", schedule.VARIANTS)
    def test_steps_are_records_of_python_floats(self, variant, grid):
        plan = sampler._step_plan(schedule.ScheduleSpec(variant), 12, grid)
        for step in plan:
            assert type(step) is sampler.Step
            assert all(type(v) is float for v in step)

    @pytest.mark.parametrize("grid", sampler.TIME_GRIDS)
    @pytest.mark.parametrize("variant", schedule.VARIANTS)
    def test_steps_equal_the_per_call_derivation(self, variant, grid):
        # the scalars as a step derived them from its coefficients on every
        # call, at the grid's numpy points: bit for bit the same
        spec = schedule.ScheduleSpec(variant)
        n = 40
        points = (
            np.linspace(spec.t_max, spec.t_min, n + 1) if grid == "uniform"
            else sampler.time_grid(spec, n, grid)
        )
        plan = sampler._step_plan(spec, n, grid)
        assert len(plan) == n
        for step, t, t_next in zip(plan, points, points[1:]):
            c = schedule.evaluate(spec, t)
            dt = t - t_next
            lam = c.dlog_alpha_dt
            stiff = c.f_null - 2.0 * lam
            expected = (
                t,
                dt,
                np.sqrt(dt * c.gnull_sq),
                dt * stiff * c.alpha,
                1.0 - dt * (stiff + lam),
                dt * c.f_range,
                np.sqrt(dt * c.dgamma_dt),
            )
            assert [float.hex(float(v)) for v in step] == [float.hex(float(v)) for v in expected]

    def test_thousand_step_plan_holds_under_0_3_mb(self):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            plan = sampler._step_plan.__wrapped__(schedule.ScheduleSpec("sb"), 1000, "uniform")
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(plan) == 1000 and held <= 0.3e6

    def test_negative_step_length_refused(self):
        with pytest.raises(ValueError, match="dt"):
            sampler.plan_step(schedule.evaluate(schedule.ScheduleSpec("vp"), 0.5), -1e-3)

    def test_network_time_features_read_only(self):
        net = dn.init_net(3, hidden=(4,), seed=0)
        x = np.random.default_rng(0).standard_normal((2, 3))
        # the training forward pass, uncached and with its tape, for reference
        feats = dn.time_features(0.25)
        expected = dn._forward(net, dn._input_features(x, feats), tape=[])
        for _ in range(2):
            assert dn.forward_denoise(net, x, np.float64(0.25)).tobytes() == expected.tobytes()
        cached = dn._grid_time_features(0.25)
        assert cached is dn._grid_time_features(0.25)
        assert cached.tobytes() == feats.tobytes()
        with pytest.raises(ValueError):
            cached[0] = 1.0


class TestScoreDecomposition:
    def test_drift_equals_diffusion_times_score(self):
        # a noise-free step moves by dt (G G^T score - L (I - A+ A) x), with
        # G G^T score the denoiser-based drift at the exact marginal score
        rng = np.random.default_rng(4)
        dt = 1e-3
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
            den = oracle.oracle_denoiser(prior, sys, spec)
            zero = linop.Noise(np.zeros(d), np.zeros(m))
            x_new = sampler.reverse_step(sys, sampler.plan_step(coeffs, dt), x, den(x, t), zero)

            score = oracle.dense_score(prior, sys, coeffs, x)
            pinv_noise = sys.apply_pinv(sys.noise_scale(np.eye(m))).T
            eye = np.eye(d)
            nullp = eye - linop.project_range(sys, eye).T
            ggt = coeffs.dgamma_dt * pinv_noise @ pinv_noise.T + coeffs.gnull_sq * nullp
            drift = ggt @ score - coeffs.dlog_alpha_dt * nullp @ x
            np.testing.assert_allclose((x_new - x) / dt, drift, atol=1e-8)


class TestSample:
    def test_identity_noiseless_returns_measurement(self):
        sys = linop.build_dense_system(np.eye(3))
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
        trace = sampler.sample(sys, cfg, np.tile(y, (16, 1)), lambda x, t: x)
        resid = sys.apply(trace.final) - y
        assert np.max(np.abs(resid)) < 1e-9

    def test_divergence_raised_at_its_step(self):
        spec = schedule.ScheduleSpec("vp")
        cfg = sampler.SamplerConfig(n_steps=10, spec=spec, seed=0)
        times = []

        def den(x, t):
            times.append(t)
            return np.full_like(x, np.inf) if len(times) > 3 else x

        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
            sampler.sample(mask_system(), cfg, np.array([0.5]), den)
        assert err.value.step == 3
        assert err.value.t == sampler._step_plan(spec, 10, "uniform")[3].t
        message = str(err.value)
        assert "\n" not in message and "step 3" in message and "max|denoised|=inf" in message
        assert len(times) == 4

    def test_checkpoint_retention(self):
        sys = mask_system()
        cfg = sampler.SamplerConfig(
            n_steps=10, spec=schedule.ScheduleSpec("vp"), seed=0, keep_every=2
        )
        trace = sampler.sample(sys, cfg, np.array([0.5]), lambda x, t: x)
        assert len(trace.states) == 5
        assert trace.states[-1].t == pytest.approx(schedule.ScheduleSpec("vp").t_min)

    @pytest.mark.parametrize("variant, eps, grid, n_steps, keep_every", [
        ("sb", 1e-5, "uniform", 11, 11),
        ("sb", 1e-5, "uniform", 11, 1),
        ("vp", 0.3, "uniform", 999, 333),
        ("ve", 1e-3, "stiffness", 37, 37),
        ("sb", 0.1, "stiffness", 12, 4),
    ])
    def test_kept_times_are_grid_points(self, variant, eps, grid, n_steps, keep_every):
        spec = schedule.ScheduleSpec(variant, eps1=eps, eps2=eps)
        cfg = sampler.SamplerConfig(
            n_steps=n_steps, spec=spec, seed=0, keep_every=keep_every, time_grid=grid
        )
        trace = sampler.sample(mask_system(), cfg, np.array([0.5]), lambda x, t: x)
        points = sampler.time_grid(spec, n_steps, grid)
        assert [s.t for s in trace.states] == [
            points[(k + 1) * keep_every] for k in range(n_steps // keep_every)
        ]
        assert trace.states[-1].t == spec.t_min
        schedule.evaluate(spec, trace.states[-1].t)

    def test_posterior_moments_small_scale(self):
        # scaled-down version of the full posterior verification
        sys, prior, y = posterior_problem()
        post = oracle.gaussian_posterior(prior, sys, y)
        spec = schedule.ScheduleSpec("vp", eps2=1e-6)
        den = oracle.oracle_denoiser(prior, sys, spec)
        cfg = sampler.SamplerConfig(n_steps=400, spec=spec, seed=11, time_grid="stiffness")
        xs = sampler.sample(sys, cfg, np.tile(y, (4000, 1)), den).final
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
            xs = sampler.sample(sys, cfg, np.tile(y, (4000, 1)), den).final
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
